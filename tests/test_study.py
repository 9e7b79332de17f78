"""Manufactured problems, error measurement, refinement studies, rate fits."""

import csv

import numpy as np
import pytest

from pxdg import (DgScalar, Domain, FLUX_CONSTANT, ManufacturedProblem,
                  SolverConfig, StudyRow, build_uniform_mesh, fit_rate,
                  l2_error, manufactured_exponent, manufactured_problem,
                  run_study, weighted_jump_norm)
from pxdg.cli import main


def test_flux_constant_value():
    assert FLUX_CONSTANT == pytest.approx(np.sqrt(2.0) * np.e / 2.0, rel=1e-15)


def test_manufactured_linear_case_values():
    prob = manufactured_problem(0.0)
    assert prob.exact_u(0.0, 0.0) == pytest.approx(0.0)
    assert prob.exact_u(1.0, 1.0) == pytest.approx(np.sqrt(2.0) * np.e)
    gx, gy = prob.grad_u(0.3, -0.7)
    assert gx == pytest.approx(FLUX_CONSTANT)
    assert gy == pytest.approx(FLUX_CONSTANT)


def test_manufactured_exponential_case_values():
    prob = manufactured_problem(0.5)
    assert prob.exact_u(0.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    amp = np.sqrt(2.0) * np.exp(1.5) / 0.5
    want = amp * (np.exp(0.5) - 1.0)
    assert prob.exact_u(1.0, 1.0) == pytest.approx(want, rel=1e-14)
    assert prob.xi is prob.exact_u
    assert prob.u_D is prob.exact_u
    assert prob.domain == Domain(-1.0, 1.0, -1.0, 1.0)


def test_manufactured_gradient_matches_finite_differences():
    rng = np.random.default_rng(30)
    for b in (0.0, 0.3, 0.7):
        prob = manufactured_problem(b)
        x = rng.uniform(-0.9, 0.9, 8)
        y = rng.uniform(-0.9, 0.9, 8)
        eps = 1e-6
        gx, gy = prob.grad_u(x, y)
        fx = (prob.exact_u(x + eps, y) - prob.exact_u(x - eps, y)) / (2 * eps)
        fy = (prob.exact_u(x, y + eps) - prob.exact_u(x, y - eps)) / (2 * eps)
        assert np.allclose(gx, fx, rtol=1e-8)
        assert np.allclose(gy, fy, rtol=1e-8)


def test_manufactured_rejects_negative_b():
    with pytest.raises(ValueError):
        manufactured_problem(-0.5)


@pytest.mark.parametrize("b", [0.0, 0.25, 0.5, 6.0, 50.0, 175.0])
def test_manufactured_flux_is_constant(b):
    # |grad u|^{p-2} grad u = FLUX_CONSTANT (1, 1) at random points and at
    # the two corners where x1 + x2, and with it |grad u|, is extreme
    prob = manufactured_problem(b)
    rng = np.random.default_rng(0)
    d = prob.domain
    x = np.append(rng.uniform(d.x_min, d.x_max, 10), [d.x_min, d.x_max])
    y = np.append(rng.uniform(d.y_min, d.y_max, 10), [d.y_min, d.y_max])
    gx, gy = prob.grad_u(x, y)
    mag = np.hypot(gx, gy)
    p = np.asarray(prob.exponent(x, y), float)
    assert np.abs(mag ** (p - 2.0) * gx - FLUX_CONSTANT).max() <= 1e-10
    assert np.abs(mag ** (p - 2.0) * gy - FLUX_CONSTANT).max() <= 1e-10


@pytest.mark.parametrize("b", [179.5, 185.0, 300.0, 400.0, 1e4])
def test_manufactured_rejects_overflowing_b(b):
    # u^2 overflows at the corner (1, 1) from b ~ 179.4 on; the range rule
    # says so with a ValueError and no floating-point warning
    with pytest.raises(ValueError, match=f"b={b:g}"):
        manufactured_problem(b)


@pytest.mark.parametrize("b", [0.0, 0.25, 0.5, 6.0, 50.0, 175.0, 179.0])
def test_manufactured_accepts_representable_b(b):
    assert manufactured_problem(b).b == b


def test_discretize_uses_the_problem_domain_and_data():
    prob = manufactured_problem(0.5)
    data = prob.discretize(5, 3)
    assert data.mesh.domain == prob.domain
    assert (data.mesh.nx, data.mesh.ny) == (5, 3)
    assert data.exponent is prob.exponent
    assert data.xi is prob.xi and data.u_D is prob.u_D


def test_l2_error_zero_for_exact_constant():
    prob = ManufacturedProblem(
        b=0.0, exponent=manufactured_exponent(0.0),
        exact_u=lambda x, y: np.full_like(np.asarray(x, float), 1.25),
        grad_u=lambda x, y: (np.zeros_like(np.asarray(x, float)),) * 2)
    mesh = build_uniform_mesh(prob.domain, 3, 3)
    u_h = DgScalar(mesh, np.full(mesh.n_elements, 1.25))
    assert l2_error(u_h, prob) == pytest.approx(0.0, abs=1e-14)


def test_l2_error_of_barycenter_interpolant_analytic():
    # for u = FLUX_CONSTANT (x + y) the cellwise error integral is exact:
    # sum_k |k| (dx^2 + dy^2) / 12 times FLUX_CONSTANT^2 = e^2 (dx^2+dy^2)/6
    prob = manufactured_problem(0.0)
    for nx in (5, 10):
        mesh = build_uniform_mesh(prob.domain, nx, nx)
        bc = mesh.barycenters
        u_h = DgScalar(mesh, prob.exact_u(bc[:, 0], bc[:, 1]))
        want = np.e * np.sqrt((mesh.dx**2 + mesh.dy**2) / 6.0)
        assert l2_error(u_h, prob) == pytest.approx(want, rel=1e-12)


def test_l2_error_against_finer_quadrature():
    prob = manufactured_problem(0.5)
    mesh = build_uniform_mesh(prob.domain, 4, 4)
    rng = np.random.default_rng(31)
    u_h = DgScalar(mesh, rng.normal(size=mesh.n_elements))
    g, w = np.polynomial.legendre.leggauss(5)
    total = 0.0
    for k in range(mesh.n_elements):
        # cell (i, j) of the 4x4 grid on [-1, 1]^2
        j, i = divmod(k, 4)
        xc, yc = -0.75 + 0.5 * i, -0.75 + 0.5 * j
        xg = xc + 0.5 * mesh.dx * g
        yg = yc + 0.5 * mesh.dy * g
        xm, ym = np.meshgrid(xg, yg)
        wm = np.outer(w, w) * (mesh.dx * mesh.dy / 4.0)
        diff = u_h.values[k] - prob.exact_u(xm, ym)
        total += float((wm * diff**2).sum())
    assert l2_error(u_h, prob) == pytest.approx(np.sqrt(total), rel=1e-8)


def test_l2_error_scales_linearly():
    prob = manufactured_problem(0.0)
    mesh = build_uniform_mesh(prob.domain, 4, 4)
    u_h = DgScalar(mesh, np.zeros(mesh.n_elements))
    base = l2_error(u_h, prob)
    doubled = ManufacturedProblem(
        b=0.0, exponent=prob.exponent,
        exact_u=lambda x, y: 2.0 * prob.exact_u(x, y),
        grad_u=prob.grad_u)
    assert l2_error(u_h, doubled) == pytest.approx(2.0 * base, rel=1e-12)


def test_run_study_empty():
    assert run_study([], [4], SolverConfig()) == []


def test_run_study_single_cell():
    rows = run_study([0.0], [4], SolverConfig())
    assert len(rows) == 1
    row = rows[0]
    assert (row.b, row.nx, row.m) == (0.0, 4, 16)
    assert row.converged
    assert row.iterations <= 5
    assert row.l2_error > 0.0
    assert np.isfinite(row.jh)


def test_run_study_records_non_convergence():
    rows = run_study([0.5], [4], SolverConfig(max_outer=1))
    assert len(rows) == 1
    assert not rows[0].converged
    assert rows[0].iterations == 1


def test_run_study_monotonicity_small_grid():
    rows = run_study([0.0, 0.25], [4, 8], SolverConfig())
    by_cell = {(r.b, r.nx): r for r in rows}
    assert all(r.converged for r in rows)
    for b in (0.0, 0.25):
        assert by_cell[(b, 8)].l2_error < by_cell[(b, 4)].l2_error
    for nx in (4, 8):
        assert by_cell[(0.25, nx)].l2_error > by_cell[(0.0, nx)].l2_error
        assert by_cell[(0.25, nx)].iterations >= by_cell[(0.0, nx)].iterations


def synthetic_rows(nx_list, errs, b=0.0):
    return [StudyRow(b=b, nx=nx, m=nx * nx, l2_error=err, iterations=1,
                     jh=0.0, converged=True)
            for nx, err in zip(nx_list, errs)]


def test_fit_rate_exact_power_laws():
    nx = [4, 8, 16, 32]
    h = [2.0 / n for n in nx]
    assert fit_rate(synthetic_rows(nx, h)) == pytest.approx(1.0, abs=1e-12)
    assert fit_rate(synthetic_rows(nx, [hi**2 for hi in h])) == \
        pytest.approx(2.0, abs=1e-12)


def test_fit_rate_matches_least_squares_formula():
    rng = np.random.default_rng(32)
    nx = [4, 7, 12, 20, 33]
    errs = [np.exp(rng.normal()) for _ in nx]
    rows = synthetic_rows(nx, errs)
    x = np.log([2.0 / n for n in nx])
    y = np.log(errs)
    slope = float(((x - x.mean()) * (y - y.mean())).sum()
                  / ((x - x.mean()) ** 2).sum())
    assert fit_rate(rows) == pytest.approx(slope, rel=1e-12)


def test_fit_rate_input_validation():
    with pytest.raises(ValueError):
        fit_rate(synthetic_rows([4], [0.1]))
    with pytest.raises(ValueError):
        fit_rate(synthetic_rows([4, 4], [0.1, 0.2]))
    mixed = synthetic_rows([4], [0.1], b=0.0) + synthetic_rows([8], [0.05], b=0.5)
    with pytest.raises(ValueError):
        fit_rate(mixed)


def test_solution_jump_seminorm_is_finite():
    rows = run_study([0.25], [4], SolverConfig())
    assert rows[0].converged
    # recompute the solve to inspect the field itself
    from pxdg import run
    prob = manufactured_problem(0.25)
    state = run(prob.discretize(4, 4), SolverConfig())
    norm = weighted_jump_norm(state.u, prob.exponent)
    assert np.isfinite(norm)
    assert norm > 0.0


def test_write_study_csv(tmp_path):
    # the CLI owns the study format: one row per StudyRow
    rows = run_study([0.0], [4, 8], SolverConfig())
    path = tmp_path / "study.csv"
    assert main(["study", "--b", "0", "--nx", "4,8", "--out", str(path)]) == 0
    text = path.read_text().strip().splitlines()
    assert text[0] == "b,nx,m,l2_error,iterations,jh,converged"
    parsed = list(csv.DictReader(path.read_text().splitlines()))
    assert len(parsed) == 2
    for row, rec in zip(rows, parsed):
        assert float(rec["b"]) == row.b
        assert int(rec["nx"]) == row.nx
        assert int(rec["m"]) == row.m
        assert float(rec["l2_error"]) == pytest.approx(row.l2_error, rel=1e-10)
        assert int(rec["iterations"]) == row.iterations
        assert float(rec["jh"]) == pytest.approx(row.jh, rel=1e-10)
        assert rec["converged"] == "1"
