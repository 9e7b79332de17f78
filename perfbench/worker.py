"""One repetition of a pxdg benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds "argv" (the pxdg.cli.main arguments), "trace" (bool) and
"result" (the path of the JSON file to write). run.py starts this script
with PYTHONPATH pointing at the checkout's src/, so the package under test
is the one in the checkout. Imports finish before the clock starts:
wall_s is the duration of pxdg.cli.main(argv) alone, and peak_rss_mb is
this interpreter's ru_maxrss.

Untraced, only the names the CLI and the study look up at call time are
wrapped: manufactured_problem and build_uniform_mesh (setup_s), run
(solve_s) and l2_error. Their wrappers also record each solve's outcome
for the correctness gate in run.py.

Traced, the module-level functions each layer exposes are wrapped as
well. Every wrapper is a span; a span's self time is its duration minus
the duration of the spans nested in it, so the self times of the spans
inside run() plus run()'s own self time (solver.loop_other_s) add up to
solve_s. A name that no longer exists is listed in "absent" and its time
stays in the self time of the span that called it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict

import numpy as np
import scipy

import pxdg
import pxdg.cli
import pxdg.dg
import pxdg.energy
import pxdg.mesh
import pxdg.solver
import pxdg.study

# Bytes per stored factor nonzero: a float64 value and an int32 index.
FACTOR_BYTES_PER_NNZ = 12

# The spans the CLI and the study call directly; what main() spends outside
# them is CSV output, argument parsing and printing (cli.io_s).
TOP_SPANS = ("setup.problem", "mesh.build", "solver.run", "study.l2_error")


class Spans:
    """Aggregated span timings: call counts, inclusive and self time."""

    def __init__(self):
        self._child_time = []  # one accumulator per open span
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()

    def begin(self) -> float:
        self._child_time.append(0.0)
        return time.perf_counter()

    def end(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._child_time.pop()
        self.total[name] += dt
        self.self_time[name] += dt - child
        self.calls[name] += 1
        if self._child_time:
            self._child_time[-1] += dt

    def wrap(self, name, fn, after=None):
        """Time fn as span `name`; after(result, args) may replace the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self.begin()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(name, t0)
            return out if after is None else after(out, args)

        return wrapper


class _CountingFactor:
    """Sparse LU factor that counts triangular solves (one per rhs column)."""

    def __init__(self, lu, counts):
        self._lu, self._counts = lu, counts

    def solve(self, rhs, *args, **kwargs):
        self._counts["tri_solves"] += 1 if np.ndim(rhs) < 2 else np.shape(rhs)[1]
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _ModuleProxy:
    """Stands in for a module, with some attributes replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Probe:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans = Spans()
        self.counts = Counter()
        self.solves = []
        self.absent = []
        self.factor_nnz = []
        self._liftings = {}
        self._current_b = None

    # -- installation -------------------------------------------------------

    def _patch(self, module, attr, make):
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(orig))

    def _span(self, module, attr, name, after=None):
        self._patch(module, attr, lambda fn: self.spans.wrap(name, fn, after))

    def install(self) -> None:
        for mod in (pxdg.cli, pxdg.study):
            self._span(mod, "manufactured_problem", "setup.problem",
                       self._after_problem)
            self._span(mod, "build_uniform_mesh", "mesh.build")
            self._span(mod, "run", "solver.run", self._after_run)
            self._span(mod, "l2_error", "study.l2_error", self._after_l2)
        if not self.traced:
            return
        solver = pxdg.solver
        self._span(solver, "assemble_matrix", "solver.assemble")
        self._span(solver, "solve_linear", "solver.usolve")
        self._span(solver, "_eta_from", "solver.flux")
        self._span(solver, "eval_Jh", "energy.eval_Jh")
        for mod in (solver, pxdg.dg):
            self._span(mod, "lifting_matrices", "dg.lifting",
                       self._after_lifting)
        for mod in (solver, pxdg.energy, pxdg.mesh):
            self._patch(mod, "edge_weights", self._counted_edge_weights)
        self._patch(solver, "spla", lambda spla: _ModuleProxy(
            spla, splu=self.spans.wrap("solver.factor", spla.splu,
                                       self._after_factor)))

    # -- hooks --------------------------------------------------------------

    def _counting(self, fn, key):
        def counted(x, y):
            self.counts[key] += np.broadcast(np.asarray(x), np.asarray(y)).size
            return fn(x, y)
        return counted

    def _after_problem(self, prob, args):
        self._current_b = float(args[0])
        if not self.traced:
            return prob
        expo = dataclasses.replace(
            prob.exponent, func=self._counting(prob.exponent.func,
                                               "exponent.points"))
        return dataclasses.replace(
            prob, exponent=expo,
            xi=self._counting(prob.xi, "data.xi_points"),
            u_D=self._counting(prob.u_D, "data.uD_points"))

    def _after_run(self, state, args):
        mesh = args[0].mesh
        values = (state.u.values, state.eta.values, state.lam.values,
                  np.asarray(state.energy))
        self.solves.append({
            "b": self._current_b, "nx": mesh.nx, "ny": mesh.ny,
            "converged": bool(state.converged),
            "finite": all(bool(np.isfinite(v).all()) for v in values),
            "iterations": int(state.iteration),
            "residual_constraint": float(state.residual_constraint),
            "l2_error": None,
        })
        return state

    def _after_l2(self, err, args):
        if self.solves:
            self.solves[-1]["l2_error"] = float(err)
        return err

    def _after_lifting(self, mats, args):
        self._liftings[id(mats)] = mats  # the reference keeps the id unique
        return mats

    def _after_factor(self, lu, args):
        self.factor_nnz.append(int(lu.nnz))
        return _CountingFactor(lu, self.counts)

    def _counted_edge_weights(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts["edge_weights"] += 1
            return fn(*args, **kwargs)
        return counted

    # -- report -------------------------------------------------------------

    def layers(self, wall: float) -> dict:
        s, c, n = self.spans.self_time, self.spans.calls, self.counts
        zeros = stored = 0
        for mats in self._liftings.values():
            for mat in mats:
                zeros += int(np.count_nonzero(mat.data == 0.0))
                stored += int(mat.nnz)
        outer = sum(rec["iterations"] for rec in self.solves)
        usolves = c["solver.usolve"]
        fill = sum(self.factor_nnz)
        return {
            "mesh.build_s": s["mesh.build"],
            "mesh.edge_weights_calls": n["edge_weights"],
            "dg.lifting_s": s["dg.lifting"],
            "dg.lifting_calls": c["dg.lifting"],
            "dg.lifting_zero_frac": zeros / stored if stored else 0.0,
            "solver.assemble_s": s["solver.assemble"],
            "solver.factor_s": s["solver.factor"],
            "solver.factor_fill_nnz": fill,
            "solver.factor_bytes": FACTOR_BYTES_PER_NNZ * fill,
            "solver.usolve_calls": usolves,
            "solver.usolve_s": s["solver.usolve"],
            "solver.tri_solves": n["tri_solves"],
            "solver.refine_frac": (max(0, n["tri_solves"] - usolves) / usolves
                                   if usolves else 0.0),
            "solver.flux_calls": c["solver.flux"],
            "solver.flux_s": s["solver.flux"],
            "solver.outer_iterations": outer,
            "solver.inner_sweeps_per_outer": (c["solver.flux"] / outer
                                              if outer else 0.0),
            "solver.final_constraint_residual": max(
                (rec["residual_constraint"] for rec in self.solves),
                default=0.0),
            "solver.loop_other_s": s["solver.run"],
            "energy.eval_Jh_calls": c["energy.eval_Jh"],
            "energy.eval_Jh_s": s["energy.eval_Jh"],
            "exponent.points": n["exponent.points"],
            "data.xi_points": n["data.xi_points"],
            "data.uD_points": n["data.uD_points"],
            "study.l2_error_s": s["study.l2_error"],
            "cli.io_s": wall - sum(self.spans.total[k] for k in TOP_SPANS),
        }


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def main() -> None:
    spec = json.loads(sys.argv[1])
    probe = Probe(bool(spec["trace"]))
    probe.install()
    error = None
    t0 = time.perf_counter()
    try:
        rc = pxdg.cli.main(spec["argv"])
    except Exception:  # a crash is a failed solve, reported rather than raised
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    total = probe.spans.total
    result = {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "setup_s": total["setup.problem"] + total["mesh.build"],
        "solve_s": total["solver.run"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solves": probe.solves,
        "absent": probe.absent,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": _blas_name()},
    }
    if probe.traced:
        result["layers"] = probe.layers(wall)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
