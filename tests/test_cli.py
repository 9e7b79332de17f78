"""Command-line entry point: flags, config files, CSV outputs, exit codes."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pxdg.cli
import pxdg.solver
import pxdg.study
from edge_loop import edges
from pxdg import (Algorithm, Domain, ExponentField, ManufacturedProblem,
                  SolverConfig, build_uniform_mesh, gauss_points, l2_error,
                  manufactured_problem, run, run_study)
from pxdg.cli import _build_parser, _solver_config, main


def test_solve_writes_solution_csv(tmp_path, capsys):
    out = tmp_path / "solution.csv"
    code = main(["solve", "--b", "0", "--nx", "4", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["element", "x", "y", "u"]
    assert len(rows) == 1 + 16
    assert [int(r[0]) for r in rows[1:]] == list(range(16))
    floats = [float(v) for r in rows[1:] for v in r[1:]]
    assert all(abs(v) < 10.0 for v in floats)
    summary = capsys.readouterr().out
    assert "l2_error=" in summary
    assert "converged=True" in summary


HEADERS = {
    "solution": "element,x,y,u",
    "trace": "iter,residual_u,residual_constraint,residual_lambda,Jh",
    "study": "b,nx,m,l2_error,rel_l2_error,iterations,jh,converged",
}


def _csv_writer_rows(table, nx=4, ny=3):
    """The table's rows as csv.writer got them: %.12g floats, plain ints."""
    if table == "study":
        return [["%.12g" % r.b, r.nx, r.m, "%.12g" % r.l2_error,
                 "%.12g" % r.rel_l2_error, r.iterations, "%.12g" % r.jh,
                 int(r.converged)]
                for r in run_study([0.0, 0.5], [4, 5],
                                   SolverConfig(max_outer=3))]
    data = manufactured_problem(0.25).discretize(nx, ny)
    mesh = data.mesh
    state = run(data, SolverConfig())
    if table == "solution":
        return [[k, "%.12g" % x, "%.12g" % y, "%.12g" % u]
                for k, ((x, y), u) in enumerate(zip(
                    edges(mesh)["barycenters"].tolist(),
                    state.u.values.tolist()))]
    return [[rec.iteration] + ["%.12g" % v for v in (
                rec.residual_u, rec.residual_constraint,
                rec.residual_lambda, rec.energy)]
            for rec in state.history]


@pytest.mark.parametrize("table", sorted(HEADERS))
def test_csv_matches_csv_writer(tmp_path, table):
    # main formats every table in one pass; csv.writer over the same fields
    # is the reference layout, CRLF line ends included. solution.csv is also
    # written on a 7 x 5 mesh, one template per grid row of 7
    path = {t: tmp_path / f"{t}.csv" for t in HEADERS}
    cases = [(4, 3)]
    if table == "solution":
        cases.append((7, 5))
    for nx, ny in cases:
        if table == "study":
            # b = 0.5 stops unconverged, so converged = 0 is written too
            assert main(["study", "--b", "0,0.5", "--nx", "4,5", "--max-iter",
                         "3", "--out", str(path["study"])]) == 2
        else:
            assert main(["solve", "--b", "0.25", "--nx", str(nx), "--ny",
                         str(ny), "--out", str(path["solution"]),
                         "--trace", str(path["trace"])]) == 0
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(HEADERS[table].split(","))
        writer.writerows(_csv_writer_rows(table, nx, ny))
        assert path[table].read_bytes() == want.getvalue().encode()


@pytest.mark.parametrize("n", [0, 1, 4, 5, 7])
def test_write_csv_formats_a_chunk_per_call(tmp_path, n):
    # the bytes are those of one formatted row per CRLF line, after the
    # header, for no row, one and several
    rows = [(k, "%.12g" % (0.1 * k), -k / 3.0) for k in range(n)]
    out = tmp_path / "table.csv"
    pxdg.cli._write_csv(out, "k,s,v", "%d,%s,%.12g", iter(rows))
    want = "k,s,v\r\n" + "".join("%d,%s,%.12g\r\n" % row for row in rows)
    assert out.read_bytes() == want.encode()


def test_solve_reports_constraint_residual(tmp_path, capsys):
    # at b = 0 the u-increment rule stops at iteration 2 with Bu far from
    # eta; the summary line makes that visible
    out = tmp_path / "solution.csv"
    assert main(["solve", "--b", "0", "--nx", "10", "--out", str(out)]) == 0
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    assert fields["converged"] == "True" and fields["iterations"] == "2"
    assert float(fields["constraint_residual"]) > 0.1


def test_solve_reports_inner_misses(tmp_path, capsys, monkeypatch):
    # ALG1's inner sweeps that end at MAX_INNER without meeting the eta test
    # are reported after converged=, which alone sets the exit code
    out = str(tmp_path / "solution.csv")
    argv = ["solve", "--b", "0.5", "--nx", "10", "--alg", "1", "--out", out]
    for max_inner, inner in ((pxdg.solver.MAX_INNER, "True"), (1, "False")):
        monkeypatch.setattr(pxdg.solver, "MAX_INNER", max_inner)
        assert main(argv) == 0
        line = capsys.readouterr().out
        fields = dict(tok.split("=") for tok in line.split())
        assert fields["converged"] == "True"
        assert fields["inner_converged"] == inner
        assert f"converged=True inner_converged={inner} " in line


def test_solve_reports_relative_error(tmp_path, capsys):
    # rel_l2_error is l2_error over the exact solution's L2 norm under the
    # same 3x3 Gauss rule
    out = tmp_path / "solution.csv"
    assert main(["solve", "--b", "0.5", "--nx", "6", "--ny", "5",
                 "--out", str(out)]) == 0
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    prob = manufactured_problem(0.5)
    state = run(prob.discretize(6, 5), SolverConfig())
    norm = np.sqrt(sum(w * (prob.exact_u(x, y) ** 2).sum()
                       for x, y, w in gauss_points(state.u.mesh)))
    want = l2_error(state.u, prob) / norm
    assert 0.0 < want < 1.0
    assert float(fields["rel_l2_error"]) == pytest.approx(want, rel=1e-5)


def test_solve_reports_linear_and_flux_work(tmp_path, capsys):
    # the run's conjugate-gradient iterations and flux Newton passes, as
    # SolverState counts them
    out = tmp_path / "solution.csv"
    assert main(["solve", "--b", "0.5", "--nx", "10", "--out", str(out)]) == 0
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    state = run(manufactured_problem(0.5).discretize(10, 10), SolverConfig())
    assert int(fields["iterations"]) == state.iteration
    assert int(fields["cg_iterations"]) == state.linear_iterations
    assert int(fields["flux_passes"]) == state.flux_passes
    assert state.iteration < state.linear_iterations < state.flux_passes


def test_solve_reports_u_solves(tmp_path, capsys):
    # u_solves= follows cg_iterations= and counts the run's u-solves: one
    # per outer iteration of algorithm 2, one per inner sweep of algorithm 1
    out = str(tmp_path / "solution.csv")
    data = manufactured_problem(0.5).discretize(10, 10)
    for alg in Algorithm:
        assert main(["solve", "--b", "0.5", "--nx", "10", "--alg",
                     str(int(alg)), "--out", out]) == 0
        line = capsys.readouterr().out
        fields = dict(tok.split("=") for tok in line.split())
        state = run(data, SolverConfig(algorithm=alg))
        assert int(fields["u_solves"]) == state.u_solves
        assert (f"cg_iterations={state.linear_iterations} "
                f"u_solves={state.u_solves} ") in line
        if alg == Algorithm.UNCOUPLED:
            assert state.u_solves == state.iteration
        else:
            assert state.u_solves > state.iteration


def test_solve_samples_every_datum_on_the_grid(tmp_path, monkeypatch):
    # p, xi, u_D and the exact u each get two arrays of one shape laid out
    # on the grid: (ny, nx) at the cell centers and Gauss points, the edge
    # grids for p, and a leading axis of 3 Gauss points on the boundary
    calls = {}

    def sampled(name, func):
        def wrapper(x, y):
            calls.setdefault(name, []).append((x, y))
            return func(x, y)
        return wrapper

    def offset_problem(b):
        prob = manufactured_problem(b)
        p = prob.exponent
        return ManufacturedProblem(
            b=b, exponent=ExponentField(sampled("p", p.func), p.p1, p.p2),
            exact_u=sampled("exact_u", prob.exact_u), grad_u=prob.grad_u,
            xi=sampled("xi", prob.xi), u_D=sampled("u_D", prob.u_D),
            domain=Domain(0.3, 1.4, -1.2, -0.1))

    monkeypatch.setattr(pxdg.cli, "manufactured_problem", offset_problem)
    assert main(["solve", "--b", "0.5", "--nx", "5", "--ny", "3",
                 "--out", str(tmp_path / "solution.csv")]) == 0
    for name, args in calls.items():
        for x, y in args:
            assert isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
            assert x.ndim >= 2 and x.shape == y.shape, (name, x.shape, y.shape)
    shapes = {name: {x.shape for x, _ in args} for name, args in calls.items()}
    assert shapes == {"p": {(3, 5), (3, 6), (4, 5)}, "xi": {(3, 5)},
                      "u_D": {(3, 3, 2), (3, 2, 5)}, "exact_u": {(3, 5)}}


def test_solve_rectangular_mesh(tmp_path):
    out = tmp_path / "solution.csv"
    code = main(["solve", "--b", "0", "--nx", "4", "--ny", "3",
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert len(rows) == 12
    mesh = build_uniform_mesh(manufactured_problem(0.0).domain, 4, 3)
    for k, row in enumerate(rows):
        # row-major: element k = j*nx + i sits in column i, row j
        j, i = divmod(k, 4)
        x, y = edges(mesh)["barycenters"][k]
        assert x == pytest.approx(-1.0 + (i + 0.5) * 0.5, rel=1e-12)
        assert y == pytest.approx(-1.0 + (j + 0.5) * 2.0 / 3.0, rel=1e-12)
        assert (float(row[1]), float(row[2])) == pytest.approx((x, y), rel=1e-11)


def test_solve_writes_trace(tmp_path):
    out = tmp_path / "solution.csv"
    trace = tmp_path / "trace.csv"
    code = main(["solve", "--b", "0.25", "--nx", "4", "--out", str(out),
                 "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,residual_u,residual_constraint,residual_lambda,Jh"
    assert len(lines) >= 2


def test_solve_coupled_algorithm(tmp_path):
    out = tmp_path / "solution.csv"
    assert main(["solve", "--b", "0.25", "--nx", "4", "--alg", "1",
                 "--out", str(out)]) == 0


def test_study_writes_table(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = main(["study", "--b", "0,0.25", "--nx", "4,8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "b,nx,m,l2_error,rel_l2_error,iterations,jh,converged"
    assert len(lines) == 1 + 4
    assert capsys.readouterr().out.count("converged=True") == 4


def test_bad_inputs_exit_one(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # negative b is rejected by the problem family
    assert main(["solve", "--b", "-1", "--nx", "4", "--out", out]) == 1
    assert "error:" in capsys.readouterr().err
    # missing required flag
    assert main(["solve", "--b", "0", "--nx", "4"]) == 1
    # unknown subcommand
    assert main(["frobnicate", "--out", out]) == 1
    # step size outside the convergence range
    from pxdg import StepSizeWarning
    with pytest.warns(StepSizeWarning):
        assert main(["solve", "--b", "0", "--nx", "4", "--rho", "5",
                     "--out", out]) == 1
    # empty study lists
    assert main(["study", "--b", "", "--nx", "4", "--out", out]) == 1
    capsys.readouterr()
    # non-finite solver settings are input errors, not solver failures
    assert main(["solve", "--b", "0.5", "--nx", "4", "--tol", "nan",
                 "--out", out]) == 1
    assert "tolerances" in capsys.readouterr().err
    assert main(["solve", "--b", "0.5", "--nx", "4", "--r", "nan",
                 "--out", out]) == 1
    assert "penalty parameter r" in capsys.readouterr().err
    # a tolerance the u-solves cannot resolve would be met trivially
    assert main(["solve", "--b", "0.5", "--nx", "3", "--tol", "1e-300",
                 "--max-iter", "50", "--out", out]) == 1
    assert "LINEAR_TOL" in capsys.readouterr().err
    # b whose manufactured solution overflows the doubles
    assert main(["solve", "--b", "400", "--nx", "4", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "b=400" in err


@pytest.mark.parametrize("b, nx", [("0.5,0.25,nan", "4,5"),
                                   ("0.5", "4,5,-1"), ("0.5,-1", "4")])
def test_study_checks_every_cell_before_its_first_solve(b, nx, tmp_path,
                                                         monkeypatch, capsys):
    # a bad b or nx anywhere in the lists is an input error before any
    # cell is solved, and no table is written
    solved = []
    monkeypatch.setattr(pxdg.study, "run", lambda *args: solved.append(args))
    out = tmp_path / "study.csv"
    assert main(["study", "--b", b, "--nx", nx, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert solved == [] and not out.exists()


def test_non_convergence_exits_two(tmp_path):
    out = str(tmp_path / "x.csv")
    code = main(["solve", "--b", "0.5", "--nx", "4", "--max-iter", "1",
                 "--out", out])
    assert code == 2
    assert main(["study", "--b", "0.5", "--nx", "4", "--max-iter", "1",
                 "--out", out]) == 2


def test_cg_breakdown_exits_two(tmp_path):
    # at r |k| / h^2 >> 1/eps rounding loses the O(1) part of A's and M's
    # spectra, so a CG inner product can come out non-positive: the
    # u-solve that breaks down is a miss, and the run stops unconverged
    out = str(tmp_path / "x.csv")
    with pytest.warns(RuntimeWarning) as record:
        assert main(["solve", "--b", "0.5", "--nx", "3", "--r", "1e17",
                     "--out", out]) == 2
    assert any("non-positive inner product" in str(w.message) for w in record)


def test_cg_stall_exits_two(tmp_path, capsys):
    # at r = 1e12 no u-solve can meet its test (see solve_linear): each one
    # stalls and ends as a miss after a few dozen iterations, so the run
    # exits unconverged after far fewer than 500 x MAX_LINEAR of them
    out = str(tmp_path / "x.csv")
    with pytest.warns(RuntimeWarning, match="no new minimum"):
        assert main(["solve", "--b", "0.5", "--nx", "3", "--r", "1e12",
                     "--out", out]) == 2
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    assert int(fields["cg_iterations"]) < 60_000


def test_cg_misses_warn_once_per_run(tmp_path):
    # every u-solve of the run above is a miss; its warning carries no
    # per-solve number, so under the default filter a fresh interpreter
    # writes it once, not once per solve (840 lines of stderr)
    path = [str(Path(pxdg.cli.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, "-W", "default", "-m", "pxdg.cli", "solve", "--b",
         "0.5", "--nx", "3", "--r", "1e12", "--out", str(tmp_path / "x.csv")],
        env=env, capture_output=True, text=True)
    assert out.returncode == 2 and "converged=False" in out.stdout
    assert "no new minimum" in out.stderr
    assert len(out.stderr.splitlines()) <= 4


def test_overflowing_b_exits_one(tmp_path, capsys):
    # the exact solution at b = 300 reaches ~5e258, so its square overflows:
    # a bad input, not a solver failure
    out = str(tmp_path / "x.csv")
    assert main(["solve", "--b", "300", "--nx", "8", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "b=300" in err


def test_norms_stay_finite_at_the_top_of_b(tmp_path, capsys):
    # at b = 179.3, the top of the accepted range, |u| reaches ~1e154 and
    # the sums of squares behind J_h and the L2 errors overflow at
    # nx = 400: the run goes on with finite norms rather than stopping at
    # iteration 1 on jh=inf and l2_error=inf
    out = str(tmp_path / "x.csv")
    assert main(["solve", "--b", "179.3", "--nx", "400", "--max-iter", "2",
                 "--out", out]) == 2
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    assert fields["iterations"] == "2"
    for name in ("l2_error", "rel_l2_error", "jh", "constraint_residual"):
        assert np.isfinite(float(fields[name])), name


def test_config_file_sets_defaults(tmp_path):
    out = str(tmp_path / "x.csv")
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("# solver settings\nmax-iter = 1\ntol = 1e-8\n")
    code = main(["solve", "--b", "0.5", "--nx", "4",
                 "--config", str(cfg), "--out", out])
    assert code == 2  # config capped the iterations


def test_flags_override_config_file(tmp_path):
    out = str(tmp_path / "x.csv")
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("max-iter = 1\n")
    code = main(["solve", "--b", "0.5", "--nx", "4", "--config", str(cfg),
                 "--max-iter", "200", "--out", out])
    assert code == 0


def test_solver_defaults_come_from_solver_config(tmp_path, capsys):
    parser = _build_parser()
    bare = parser.parse_args(["solve", "--b", "0", "--nx", "4",
                              "--out", "x.csv"])
    assert _solver_config(bare) == SolverConfig()
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("r = 2\ntol = 1e-6\nalg = 1\n")
    args = parser.parse_args(["solve", "--b", "0", "--nx", "4", "--config",
                              str(cfg), "--r", "1.5", "--out", "x.csv"])
    assert _solver_config(args) == SolverConfig(
        r=1.5, tol_outer=1e-6, algorithm=Algorithm.COUPLED)
    bad_alg = tmp_path / "alg.cfg"
    bad_alg.write_text("alg = 3\n")
    assert main(["solve", "--b", "0", "--nx", "4", "--config", str(bad_alg),
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("colour = blue\n")
    assert main(["solve", "--b", "0", "--nx", "4", "--config", str(bad_key),
                 "--out", out]) == 1
    assert "unknown config key" in capsys.readouterr().err
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just some words\n")
    assert main(["solve", "--b", "0", "--nx", "4", "--config", str(malformed),
                 "--out", out]) == 1
    missing = str(tmp_path / "absent.cfg")
    assert main(["solve", "--b", "0", "--nx", "4", "--config", missing,
                 "--out", out]) == 1


def test_help_exits_via_system_exit():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
