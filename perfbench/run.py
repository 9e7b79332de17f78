"""pxdg benchmark: end-to-end and per-layer timings of the pxdg CLI.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of large_alg2, coupled_alg1, study15. Every repetition runs the
workload's fixed pxdg.cli.main argv in a fresh interpreter
(perfbench/worker.py), so peak memory belongs to that workload; the package
is imported from the checkout's src/. Repetitions continue until S seconds
have passed and at least MIN_REPS have run.

--trace 0 reports the median of each end-to-end metric over the
repetitions. --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics of the traced repetition with the median
solve time, plus the tracing overhead (median traced over median
untraced wall time).

Every reported time is scaled to a reference machine speed: a fixed
kernel (perfbench/speed.py) is timed after each repetition, and the times
are multiplied by NOMINAL_KERNEL_S over the median kernel time of the run.
Raw seconds are printed on the "#" lines.

Every solve passes through a correctness gate; a miss is counted in
"failed", never raised. Human-readable lines go first; the last line of
standard output is one JSON object. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

MIN_REPS = 2
# No repetition starts once the next one could end past this; the whole
# run must finish within 180 s.
HARD_CAP_S = 150.0
DEADLINE_S = 170.0

# Relative tolerance on each solve's L2 error against the value pinned
# below. Stopping the outer iteration at a different iterate of the same
# discrete problem moves the error by far less; a change of formulation,
# or of which iterate counts as converged, moves it by more.
L2_RTOL = 1e-4

STUDY_B = (0.0, 0.25, 0.5)
STUDY_NX = (10, 14, 22, 31, 54)

# L2 errors of the code this benchmark was defined on, keyed (b, nx, alg).
# They include the known defects: at b = 0 the run stops at iteration 2
# with constraint residual ~1.3, and criterion 1's table is missed.
PINNED_L2 = {
    (0.0, 10, 2): 0.6401815085252257, (0.0, 14, 2): 0.4918362039425054,
    (0.0, 22, 2): 0.3373010848565982, (0.0, 31, 2): 0.24970599582055802,
    (0.0, 54, 2): 0.15042594739397425,
    (0.25, 10, 2): 0.8086775432307362, (0.25, 14, 2): 0.6275518258456727,
    (0.25, 22, 2): 0.4396545868412143, (0.25, 31, 2): 0.33304142467414327,
    (0.25, 54, 2): 0.21261880979110853,
    (0.5, 10, 2): 1.0028175754546504, (0.5, 14, 2): 0.7788510949530646,
    (0.5, 22, 2): 0.5493571480208084, (0.5, 31, 2): 0.41983169208184595,
    (0.5, 54, 2): 0.2737808128915809,
    (0.5, 128, 1): 0.16234941150934282,
    (0.5, 400, 2): 0.14443048193438437,
}

# Acceptance criterion 1's reference L2 errors, keyed (b, nx).
REFERENCE_L2 = {
    (0.0, 10): 0.5921, (0.0, 14): 0.4603, (0.0, 22): 0.3185,
    (0.0, 31): 0.2366, (0.0, 54): 0.1430,
    (0.25, 10): 0.7519, (0.25, 14): 0.5932, (0.25, 22): 0.4220,
    (0.25, 31): 0.3228, (0.25, 54): 0.2101,
    (0.5, 10): 0.9214, (0.5, 14): 0.7313, (0.5, 22): 0.5271,
    (0.5, 31): 0.4087, (0.5, 54): 0.2744,
}

# A typical reference-kernel sample (speed.py) on the 2-vCPU VM the benchmark
# was defined on. Reported timings are scaled to a machine whose sample
# takes this long.
NOMINAL_KERNEL_S = 0.15
# After each repetition the kernel is sampled for this share of the
# repetition's duration, at least once, so that every run has enough samples
# for a steady median whatever its repetitions last. The cap keeps a run
# that hit DEADLINE_S within 180 s.
KERNEL_SHARE = 0.1
KERNEL_CAP_S = 3.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
             "peak_rss_mb": "MiB", "l2_error_max": "1"}

LAYER_UNITS = {
    "mesh.build_s": "s", "mesh.edge_weights_calls": "count",
    "dg.lifting_s": "s", "dg.lifting_calls": "count",
    "dg.lifting_zero_frac": "1",
    "solver.assemble_s": "s", "solver.factor_s": "s",
    "solver.factor_fill_nnz": "count", "solver.factor_bytes": "B",
    "solver.usolve_calls": "count", "solver.usolve_s": "s",
    "solver.tri_solves": "count", "solver.refine_frac": "1",
    "solver.flux_calls": "count", "solver.flux_s": "s",
    "solver.outer_iterations": "count", "solver.inner_sweeps_per_outer": "1",
    "solver.final_constraint_residual": "1", "solver.loop_other_s": "s",
    "energy.eval_Jh_calls": "count", "energy.eval_Jh_s": "s",
    "exponent.points": "count", "data.xi_points": "count",
    "data.uD_points": "count",
    "study.l2_error_s": "s", "cli.io_s": "s",
    "trace.solve_s": "s", "trace.overhead": "1",
}

# Spans inside run(); with solver.loop_other_s they add up to solve_s.
RUN_SPANS = ("dg.lifting_s", "solver.assemble_s", "solver.factor_s",
             "solver.usolve_s", "solver.flux_s", "energy.eval_Jh_s",
             "solver.loop_other_s")


@dataclass(frozen=True)
class Workload:
    alg: int
    b: tuple
    nx: tuple
    study: bool = False
    trace_csv: bool = False

    def cells(self):
        return [(b, nx) for b in self.b for nx in self.nx]

    def argv(self, tmp: Path, rng: random.Random) -> list:
        """CLI arguments; the seed only permutes the order of study cells."""
        if self.study:
            b = rng.sample(self.b, len(self.b))
            nx = rng.sample(self.nx, len(self.nx))
            return ["study", "--b", ",".join(f"{v:g}" for v in b),
                    "--nx", ",".join(str(v) for v in nx),
                    "--alg", str(self.alg), "--out", str(tmp / "study.csv")]
        argv = ["solve", "--b", f"{self.b[0]:g}", "--nx", str(self.nx[0]),
                "--alg", str(self.alg), "--out", str(tmp / "solution.csv")]
        if self.trace_csv:
            argv += ["--trace", str(tmp / "trace.csv")]
        return argv


WORKLOADS = {
    # one-time setup, the factorization and the LU memory wall dominate
    "large_alg2": Workload(alg=2, b=(0.5,), nx=(400,), trace_csv=True),
    # inner sweeps: many u-solves and flux solves per factorization
    "coupled_alg1": Workload(alg=1, b=(0.5,), nx=(128,)),
    # criterion 1's table: per-call overhead and per-iteration energy cost
    "study15": Workload(alg=2, b=STUDY_B, nx=STUDY_NX, study=True),
}


def _thread_env() -> dict:
    n = str(len(os.sched_getaffinity(0)))
    return {"OMP_NUM_THREADS": n, "OPENBLAS_NUM_THREADS": n,
            "MKL_NUM_THREADS": n}


class ReferenceKernel:
    """The reference kernel of speed.py, in a process of its own."""

    def __init__(self):
        env = dict(os.environ, **_thread_env())
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        """Seconds one pass of the kernel takes."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def sample_for(self, seconds: float, samples: list) -> None:
        """Append samples to `samples` for about `seconds`, at least one."""
        end = time.monotonic() + seconds
        samples.append(self.sample())
        while time.monotonic() < end:
            samples.append(self.sample())

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()


def run_rep(argv: list, traced: bool, tmp: Path, deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns the worker's result."""
    for stale in tmp.iterdir():  # outputs of the previous repetition
        stale.unlink()
    result_path = tmp / "result.json"
    spec = {"argv": argv, "trace": traced, "result": str(result_path)}
    env = dict(os.environ, PYTHONPATH=str(SRC), **_thread_env())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result_path.is_file():
        return {"rc": None, "error": f"worker exited with {proc.returncode}",
                "solves": []}
    with open(result_path) as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list:
    if not path.is_file():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _l2_ok(err, key) -> bool:
    want = PINNED_L2[key]
    return err is not None and abs(float(err) - want) <= L2_RTOL * want


def check_rep(w: Workload, res: dict, tmp: Path) -> list:
    """Reasons why each solve of one repetition failed; empty means passed."""
    cells = w.cells()
    if res.get("rc") != 0:
        why = res.get("error") or f"exit code {res.get('rc')}"
        return [f"{why.strip().splitlines()[-1]} (all {len(cells)} solves)"] * len(cells)
    by_cell = {(s["b"], s["nx"]): s for s in res["solves"]}
    rows = _csv_rows(tmp / ("study.csv" if w.study else "solution.csv"))
    csv_cells = {(float(r["b"]), int(r["nx"])): r for r in rows} if w.study else {}
    trace_rows = _csv_rows(tmp / "trace.csv") if w.trace_csv else None

    def reason(b, nx):
        key = (b, nx, w.alg)
        s = by_cell.get((b, nx))
        if s is None:
            return "no solve recorded"
        if not s["converged"]:
            return "converged=False"
        if not s["finite"]:
            return "non-finite values"
        if s["ny"] != nx:
            return f"ny={s['ny']}"
        if not _l2_ok(s["l2_error"], key):
            return f"l2_error {s['l2_error']!r} vs pinned {PINNED_L2[key]!r}"
        if w.study:
            row = csv_cells.get((b, nx))
            if (len(rows) != len(cells) or row is None
                    or row["converged"] != "1" or not _l2_ok(row["l2_error"], key)):
                return "study CSV row missing or wrong"
        elif len(rows) != nx * nx:
            return f"solution CSV has {len(rows)} rows, expected {nx * nx}"
        if trace_rows is not None and len(trace_rows) != s["iterations"]:
            return (f"trace CSV has {len(trace_rows)} rows, "
                    f"expected {s['iterations']}")
        return None

    reasons = [(b, nx, reason(b, nx)) for b, nx in cells]
    return [f"b={b:g} nx={nx}: {why}" for b, nx, why in reasons if why]


def repetitions(w: Workload, rng: random.Random, seconds: float,
                pattern: tuple, min_groups: int, tmp: Path) -> tuple:
    """Run groups of repetitions (one per entry of pattern) until time is up.

    Returns (traced, argv, result, failure reasons) per repetition, and the
    reference-kernel samples taken after each repetition.
    """
    kernel = ReferenceKernel()
    try:
        kernel.sample()  # the first sample waits for the kernel's set-up
        start = time.monotonic()
        deadline = start + DEADLINE_S
        reps, samples, groups = [], [], 0
        while True:
            group_start = time.monotonic()
            for traced in pattern:
                rep_start = time.monotonic()
                argv = w.argv(tmp, rng)
                res = run_rep(argv, traced, tmp, deadline)
                reps.append((traced, argv, res, check_rep(w, res, tmp)))
                kernel.sample_for(
                    min(KERNEL_SHARE * (time.monotonic() - rep_start),
                        KERNEL_CAP_S), samples)
            groups += 1
            now = time.monotonic()
            if now - start >= seconds and groups >= min_groups:
                break
            if now - start + (now - group_start) > HARD_CAP_S or now >= deadline:
                break
    finally:
        kernel.close()
    return reps, samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "pxdg" / "cli.py").is_file():
        print(f"error: no pxdg sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps its worker (run_rep's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    w = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        if args.trace:
            reps, samples = repetitions(w, rng, args.seconds, (False, True),
                                        1, tmp)
        else:
            reps, samples = repetitions(w, rng, args.seconds, (False,),
                                        MIN_REPS, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = len(w.cells()) * len(reps)
    failed = sum(len(reasons) for *_, reasons in reps)
    plain = [res for traced, _, res, _ in reps if not traced]
    traced = [res for is_traced, _, res, _ in reps if is_traced]
    first = reps[0][2]
    versions = first.get("versions", {})

    print(f"# pxdg benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} cpu=\"{_cpu_model()}\" "
          f"python={versions.get('python')} numpy={versions.get('numpy')} "
          f"scipy={versions.get('scipy')} blas={versions.get('blas')} "
          + " ".join(f"{k}={v}" for k, v in _thread_env().items()))
    print(f"# argv of the first repetition: pxdg {' '.join(reps[0][1])}")
    print(f"# repetitions: {len(plain)} untraced, {len(traced)} traced")
    kernel_s = statistics.median(samples)
    scale = NOMINAL_KERNEL_S / kernel_s
    print(f"# reference kernel: median {kernel_s:.6g} s, min {min(samples):.6g} s, "
          f"max {max(samples):.6g} s (n={len(samples)}); timings below are "
          f"raw seconds, metrics are raw x {scale:.6g}")
    for traced_rep, _, _, reasons in reps:
        for reason in reasons:
            print(f"# FAILED ({'traced' if traced_rep else 'untraced'}): "
                  f"{reason}")

    l2 = [s["l2_error"] for res in plain + traced for s in res["solves"]
          if s["l2_error"] is not None]
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} solves)")
    if w.study:
        devs = [abs(s["l2_error"] - REFERENCE_L2[(s["b"], s["nx"])])
                / REFERENCE_L2[(s["b"], s["nx"])]
                for res in plain + traced for s in res["solves"]
                if s["l2_error"] is not None and (s["b"], s["nx"]) in REFERENCE_L2]
        if devs:
            print(f"# ref_dev_max {max(devs):.6g} 1 "
                  "(criterion 1's table; known gap, not a gate)")

    ok_plain = [res for res in plain if "wall_s" in res]
    ok_traced = sorted((res for res in traced if "layers" in res),
                       key=lambda res: res["solve_s"])
    if args.trace:
        rep = ok_traced[(len(ok_traced) - 1) // 2] if ok_traced else {}
        values = dict(rep.get("layers", {}))
        values["trace.solve_s"] = rep.get("solve_s", 0.0)
        plain_wall = statistics.median(res["wall_s"] for res in ok_plain) if ok_plain else 0.0
        traced_wall = statistics.median(res["wall_s"] for res in ok_traced) if ok_traced else 0.0
        values["trace.overhead"] = traced_wall / plain_wall if plain_wall else 0.0
        span_sum = sum(values.get(k, 0.0) for k in RUN_SPANS)
        print(f"# run spans + loop_other = {span_sum:.6g} s, "
              f"traced solve_s = {values['trace.solve_s']:.6g} s")
        for name in sorted({n for res in traced for n in res.get("absent", [])}):
            print(f"# absent span: {name}")
        units = LAYER_UNITS
    else:
        values = {}
        for key in ("wall_s", "setup_s", "solve_s", "peak_rss_mb"):
            vals = [res[key] for res in ok_plain]
            values[key] = statistics.median(vals) if vals else 0.0
            if vals:
                print(f"# {key}: median {statistics.median(vals):.6g} "
                      f"min {min(vals):.6g} max {max(vals):.6g} "
                      f"{E2E_UNITS[key]} (n={len(vals)})")
        values["l2_error_max"] = max(l2, default=0.0)
        units = E2E_UNITS

    metrics = {name: {"value": values.get(name, 0.0) * (scale if unit == "s" else 1.0),
                      "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:36s} {_fmt(m['value']):>14s} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
