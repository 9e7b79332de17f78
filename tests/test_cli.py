"""Command-line entry point: flags, config files, CSV outputs, exit codes."""

import csv
import io

import pytest

from pxdg import (Algorithm, SolverConfig, build_uniform_mesh,
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
    "study": "b,nx,m,l2_error,iterations,jh,converged",
}


def _csv_writer_rows(table):
    """The table's rows as csv.writer got them: %.12g floats, plain ints."""
    if table == "study":
        return [["%.12g" % r.b, r.nx, r.m, "%.12g" % r.l2_error, r.iterations,
                 "%.12g" % r.jh, int(r.converged)]
                for r in run_study([0.0, 0.5], [4, 5],
                                   SolverConfig(max_outer=3))]
    data = manufactured_problem(0.25).discretize(4, 3)
    mesh = data.mesh
    state = run(data, SolverConfig())
    if table == "solution":
        return [[k, "%.12g" % x, "%.12g" % y, "%.12g" % u]
                for k, ((x, y), u) in enumerate(zip(
                    mesh.barycenters.tolist(), state.u.values.tolist()))]
    return [[rec.iteration] + ["%.12g" % v for v in (
                rec.residual_u, rec.residual_constraint,
                rec.residual_lambda, rec.energy)]
            for rec in state.history]


@pytest.mark.parametrize("table", sorted(HEADERS))
def test_csv_matches_csv_writer(tmp_path, table):
    # main formats every table in one pass; csv.writer over the same fields
    # is the reference layout, CRLF line ends included
    path = {t: tmp_path / f"{t}.csv" for t in HEADERS}
    if table == "study":
        # b = 0.5 stops unconverged, so converged = 0 is written too
        assert main(["study", "--b", "0,0.5", "--nx", "4,5", "--max-iter",
                     "3", "--out", str(path["study"])]) == 2
    else:
        assert main(["solve", "--b", "0.25", "--nx", "4", "--ny", "3",
                     "--out", str(path["solution"]),
                     "--trace", str(path["trace"])]) == 0
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(HEADERS[table].split(","))
    writer.writerows(_csv_writer_rows(table))
    assert path[table].read_bytes() == want.getvalue().encode()


def test_solve_reports_constraint_residual(tmp_path, capsys):
    # at b = 0 the u-increment rule stops at iteration 2 with Bu far from
    # eta; the summary line makes that visible
    out = tmp_path / "solution.csv"
    assert main(["solve", "--b", "0", "--nx", "10", "--out", str(out)]) == 0
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    assert fields["converged"] == "True" and fields["iterations"] == "2"
    assert float(fields["constraint_residual"]) > 0.1


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
        x, y = mesh.barycenters[k]
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
    assert lines[0] == "b,nx,m,l2_error,iterations,jh,converged"
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
    # b whose manufactured solution overflows the doubles
    assert main(["solve", "--b", "400", "--nx", "4", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "b=400" in err


def test_non_convergence_exits_two(tmp_path):
    out = str(tmp_path / "x.csv")
    code = main(["solve", "--b", "0.5", "--nx", "4", "--max-iter", "1",
                 "--out", out])
    assert code == 2
    assert main(["study", "--b", "0.5", "--nx", "4", "--max-iter", "1",
                 "--out", out]) == 2


def test_overflowing_b_exits_one(tmp_path, capsys):
    # the exact solution at b = 300 reaches ~5e258, so its square overflows:
    # a bad input, not a solver failure
    out = str(tmp_path / "x.csv")
    assert main(["solve", "--b", "300", "--nx", "8", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "b=300" in err


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
