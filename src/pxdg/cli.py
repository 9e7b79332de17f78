"""Command-line interface: single solves and convergence studies to CSV.

Exit codes: 0 success, 1 bad input, 2 solver failed to converge.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple

from .solver import SolverConfig, run
from .study import exact_l2_norm, l2_error, manufactured_problem, run_study

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # non-convergence and 1 for input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pxdg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--r", type=float, default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--alg", type=int, choices=(1, 2), default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="solve one manufactured problem")
    solve.add_argument("--b", type=float, required=True)
    solve.add_argument("--nx", type=int, required=True)
    solve.add_argument("--ny", type=int, default=None)
    solve.add_argument("--trace", default=None)
    add_common(solve)

    study = sub.add_parser("study", help="run a (b, nx) refinement study")
    study.add_argument("--b", required=True, help="comma-separated values")
    study.add_argument("--nx", required=True, help="comma-separated values")
    add_common(study)
    return parser


_CONFIG_KEYS = {"r": float, "rho": float, "alg": int, "tol": float,
                "max_iter": int}
# config keys (and flag dests) whose SolverConfig field is named otherwise
_FIELDS = {"alg": "algorithm", "tol": "tol_outer", "max_iter": "max_outer"}


def _read_config(path) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key: {key!r}")
            values[key] = _CONFIG_KEYS[key](raw.strip())
    return values


def _solver_config(args) -> SolverConfig:
    """SolverConfig from the values a config file or flag set; flags win."""
    given = _read_config(args.config) if args.config else {}
    flags = vars(args)
    given.update({key: flags[key] for key in _CONFIG_KEYS
                  if flags[key] is not None})
    return SolverConfig(**{_FIELDS.get(key, key): value
                           for key, value in given.items()})


def _write_csv(path, header, row_format, rows) -> None:
    """One CSV table of row tuples, one % call per row: csv.writer's
    layout and CRLF line ends. It writes the trace and study tables, a row
    per outer iteration or per study cell."""
    line = row_format + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(line % row for row in rows)


def _write_solution(path, mesh, u) -> None:
    """solution.csv, (k, x, y, u) per element, as _write_csv lays it out,
    one grid row at a time. A row is one template, with the "%.12g" text
    of its x and y written in, and one % call formats its k and u."""
    _, _, xc, yc = mesh.axes()
    xs = ["%.12g" % x for x in xc.tolist()]
    values = [None] * (2 * mesh.nx)
    with open(path, "w", newline="") as fh:
        fh.write("element,x,y,u\r\n")
        for row, y in enumerate(yc.tolist()):
            tail = ",%.12g,%%.12g\r\n" % y  # the y text and u's format
            k = row * mesh.nx
            values[0::2] = range(k, k + mesh.nx)
            values[1::2] = u[k:k + mesh.nx].tolist()
            fh.write(("%d," + (tail + "%d,").join(xs) + tail) % tuple(values))


def _cmd_solve(args) -> int:
    cfg = _solver_config(args)
    prob = manufactured_problem(args.b)
    ny = args.ny if args.ny is not None else args.nx
    data = prob.discretize(args.nx, ny)
    mesh = data.mesh
    state = run(data, cfg)
    err = l2_error(state.u, prob)
    rel_err = err / exact_l2_norm(prob, mesh)
    _write_solution(args.out, mesh, state.u.values)
    if args.trace:
        _write_csv(args.trace,
                   "iter,residual_u,residual_constraint,residual_lambda,Jh",
                   "%d,%.12g,%.12g,%.12g,%.12g",
                   map(astuple, state.history))
    print(f"b={args.b:g} nx={args.nx} ny={ny} m={mesh.n_elements} "
          f"l2_error={err:.6g} rel_l2_error={rel_err:.6g} "
          f"iterations={state.iteration} "
          f"cg_iterations={state.linear_iterations} "
          f"u_solves={state.u_solves} "
          f"flux_passes={state.flux_passes} jh={state.energy:.6g} "
          f"converged={state.converged} "
          f"inner_converged={state.inner_converged} "
          f"constraint_residual={state.residual_constraint:.6g}")
    return 0 if state.converged else 2


def _cmd_study(args) -> int:
    cfg = _solver_config(args)
    b_list = [float(tok) for tok in args.b.split(",") if tok != ""]
    nx_list = [int(tok) for tok in args.nx.split(",") if tok != ""]
    if not b_list or not nx_list:
        raise ValueError("study needs at least one b and one nx")
    rows = run_study(b_list, nx_list, cfg)
    _write_csv(args.out,
               "b,nx,m,l2_error,rel_l2_error,iterations,jh,converged",
               "%.12g,%d,%d,%.12g,%.12g,%d,%.12g,%d", map(astuple, rows))
    for row in rows:
        print(f"b={row.b:g} nx={row.nx} m={row.m} l2_error={row.l2_error:.6g} "
              f"iterations={row.iterations} converged={row.converged}")
    return 0 if all(r.converged for r in rows) else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_study(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
