"""System assembly, the per-element flux resolvent, and both iteration loops."""

import copy
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import pxdg.energy
import pxdg.solver
from pxdg import (Algorithm, DgScalar, DgVector, Domain, ProblemData,
                  SolverConfig, SolverState, StepSizeWarning, assemble_matrix,
                  assemble_rhs, build_uniform_mesh, eta_update,
                  eval_lagrangian, l2_error, l2_norm, lambda_update,
                  lifting, lifting_matrices, manufactured_exponent,
                  manufactured_problem, run, scalar_root, solve_linear,
                  stopping_check)
from pxdg.cli import main

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


def zero_state(mesh):
    m = mesh.n_elements
    return SolverState(u=DgScalar(mesh, np.zeros(m)),
                       eta=DgVector(mesh, np.zeros((m, 2))),
                       lam=DgVector(mesh, np.zeros((m, 2))))


def zero(x, y):
    return np.zeros_like(np.asarray(x, float))


def problem_data(nx, b=0.0, xi=zero, u_D=zero):
    mesh = build_uniform_mesh(SQUARE, nx, nx)
    return ProblemData(mesh=mesh, exponent=manufactured_exponent(b),
                       xi=xi, u_D=u_D)


def manufactured_data(b, nx):
    prob = manufactured_problem(b)
    return prob, prob.discretize(nx, nx)


def bu_of(u_values, mesh):
    lx, ly = lifting_matrices(mesh)
    return np.column_stack([lx @ u_values, ly @ u_values])


def gap_of(state):
    return DgVector(state.u.mesh, lifting(state.u).values - state.eta.values)


def test_matrix_single_element():
    data = problem_data(1)
    sm = assemble_matrix(data, SolverConfig(r=1.0))
    # mass 4 plus four boundary edges at weight(2) * |e| = 1 each
    assert sm.matrix.shape == (1, 1)
    assert np.allclose(sm.matrix.toarray(), [[8.0]], rtol=1e-14)


def test_matrix_two_elements_r_zero():
    mesh = build_uniform_mesh(SQUARE, 2, 1)
    data = ProblemData(mesh=mesh, exponent=manufactured_exponent(0.0),
                       xi=zero, u_D=zero)
    dense = assemble_matrix(data, SolverConfig(r=0.0)).matrix.toarray()
    # mass 2 + interior jump 1 + three boundary contributions of 1
    assert np.allclose(dense, [[6.0, -1.0], [-1.0, 6.0]], rtol=1e-14)


def test_matrix_symmetric_positive_definite():
    data = problem_data(10, b=0.25)
    dense = assemble_matrix(data, SolverConfig(r=1.0)).matrix.toarray()
    assert np.abs(dense - dense.T).max() <= 1e-12
    assert np.linalg.eigvalsh(dense).min() > 0.0


def test_matrix_couples_second_neighbors_only():
    mesh = build_uniform_mesh(SQUARE, 5, 4)
    data = ProblemData(mesh=mesh, exponent=manufactured_exponent(0.25),
                       xi=zero, u_D=zero)
    dense = assemble_matrix(data, SolverConfig(r=1.0)).matrix.toarray()
    # graph distance on the element adjacency (shared edge) graph
    m = mesh.n_elements
    adj = np.zeros((m, m), int)
    adj[mesh.int_plus, mesh.int_minus] = 1
    adj[mesh.int_minus, mesh.int_plus] = 1
    within_two = (adj + adj @ adj + np.eye(m, dtype=int)) > 0
    assert not np.any((np.abs(dense) > 1e-14) & ~within_two)


def test_rhs_zero_problem():
    data = problem_data(3, b=0.25)
    rhs = assemble_rhs(zero_state(data.mesh), data, SolverConfig(r=1.0))
    assert np.allclose(rhs, 0.0)


def test_rhs_constant_load_single_element():
    data = problem_data(1, xi=lambda x, y: np.ones_like(np.asarray(x, float)))
    rhs = assemble_rhs(zero_state(data.mesh), data, SolverConfig(r=1.0))
    assert rhs == pytest.approx([4.0])


def test_rhs_flux_coupling_term():
    data = problem_data(4, b=0.25, xi=lambda x, y: x * y)
    cfg = SolverConfig(r=1.5)
    mesh = data.mesh
    rng = np.random.default_rng(23)
    state = zero_state(mesh)
    state.eta = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    state.lam = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    got = assemble_rhs(state, data, cfg) - assemble_rhs(zero_state(mesh), data, cfg)
    lx, ly = lifting_matrices(mesh)
    s = cfg.r * state.eta.values - state.lam.values
    want = lx.T @ (mesh.areas * s[:, 0]) + ly.T @ (mesh.areas * s[:, 1])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_solve_linear_single_element():
    data = problem_data(1, xi=lambda x, y: np.ones_like(np.asarray(x, float)))
    cfg = SolverConfig(r=1.0)
    sm = assemble_matrix(data, cfg)
    rhs = assemble_rhs(zero_state(data.mesh), data, cfg)
    assert solve_linear(sm, rhs) == pytest.approx([0.5])
    assert solve_linear(sm, np.zeros(1)) == pytest.approx([0.0])


def test_solve_linear_round_trip():
    data = problem_data(5, b=0.25)
    sm = assemble_matrix(data, SolverConfig(r=1.0))
    rng = np.random.default_rng(24)
    rhs = rng.normal(size=data.mesh.n_elements)
    u = solve_linear(sm, rhs)
    assert np.abs(sm.matrix @ u - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


@pytest.mark.parametrize("r", [0.0, 1.0, 1e4])
def test_factor_is_symmetric_and_fills_less_than_default_lu(r):
    _, data = manufactured_data(0.5, 48)
    sm = assemble_matrix(data, SolverConfig(r=r))
    assert np.array_equal(sm.factor.perm_r, sm.factor.perm_c)
    default = spla.splu(sm.matrix)
    assert sm.factor.L.nnz + sm.factor.U.nnz < default.L.nnz + default.U.nnz


def test_scalar_root_hand_values():
    # x + x = 3 and sqrt(x) + x = 2
    assert scalar_root(2.0, 1.0, 3.0) == pytest.approx(1.5, abs=1e-12)
    assert scalar_root(1.5, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert scalar_root(1.7, 3.0, 0.0) == 0.0


def test_scalar_root_domain_errors():
    for p_bar, r, c in [(1.0, 1.0, 1.0), (2.5, 1.0, 1.0),
                        (1.5, 0.0, 1.0), (1.5, -1.0, 1.0), (1.5, 1.0, -0.5)]:
        with pytest.raises(ValueError):
            scalar_root(p_bar, r, c)


def test_scalar_root_monotone_in_c():
    cs = np.linspace(0.0, 20.0, 50)
    xs = [scalar_root(1.3, 0.7, c) for c in cs]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_scalar_root_against_bisection_oracle():
    rng = np.random.default_rng(25)
    for _ in range(200):
        p_bar = rng.uniform(1.01, 2.0)
        r = rng.uniform(0.05, 10.0)
        c = rng.uniform(0.0, 50.0)
        lo, hi = 0.0, max(c, c / r) + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid ** (p_bar - 1.0) + r * mid - c > 0.0:
                hi = mid
            else:
                lo = mid
        want = 0.5 * (lo + hi)
        got = scalar_root(p_bar, r, c)
        assert got == pytest.approx(want, abs=1e-10 * max(1.0, c))
        assert abs(got ** (p_bar - 1.0) + r * got - c) <= 1e-10 * max(1.0, c)


def _scaled_residual(p_bar, r, c, x):
    return np.abs(x ** (p_bar - 1.0) + r * x - c) / np.maximum(1.0, c)


@pytest.mark.parametrize("r", [1e-4, 1e-2, 1.0, 1e2, 1e4])
def test_root_many_converges_for_small_exponents(r):
    # p_bar near 1 makes the Newton derivative stiff near 0; every root must
    # still meet the residual test, silently
    rng = np.random.default_rng(61)
    p_bar = rng.uniform(1.05, 2.0, 20_000)
    c = 10.0 ** rng.uniform(-8.0, 3.0, 20_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = pxdg.solver._root_many(p_bar, r, c)
    assert np.all(_scaled_residual(p_bar, r, c, x) <= 1e-12)


@pytest.mark.parametrize("p_bar, r, c", [
    (1.2, 1.0, 1e-100),  # left point underflows to 0
    (1.01, 1.0, 1e-3),  # left point underflows; the root ~1e-300 does not
    (1.01, 1.0, 1.4e-3),  # left point subnormal: x^{p_bar - 2} = inf
    (1.05, 1e4, 1e-8),
    (1.5, 1.0, 0.0),
])
def test_root_many_is_finite_or_warns(p_bar, r, c):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x = pxdg.solver._root_many(np.array([p_bar]), r, np.array([c]))
    assert np.isfinite(x[0]) and x[0] >= 0.0
    met = _scaled_residual(p_bar, r, c, x[0]) <= 1e-12
    assert met or any(issubclass(w.category, RuntimeWarning)
                      for w in caught)


@pytest.mark.parametrize("p_bar, r, c", [
    (1.01, 1.0, 1e-3),  # left point ~1e-330, root ~1e-300
    (1.01, 1.0, 1.4e-3),  # left point subnormal, root ~4e-286
    (1.01, 1e4, 5.0),  # left point ~1e-330 and c^{1/(p_bar - 1)} = inf
])
def test_root_many_recovers_normal_root_below_underflowing_left_point(
        p_bar, r, c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = pxdg.solver._root_many(np.array([p_bar]), r, np.array([c]))
    assert x[0] > 0.0
    assert _scaled_residual(p_bar, r, c, x[0]) <= 1e-12


def test_eta_update_zero():
    data = problem_data(3, b=0.25)
    m = data.mesh.n_elements
    eta = eta_update(lifting(DgScalar(data.mesh, np.zeros(m))),
                     DgVector(data.mesh, np.zeros((m, 2))),
                     data, SolverConfig(r=1.0))
    assert np.allclose(eta.values, 0.0)


def test_eta_update_hand_value():
    # single element: Bu = 0, p = 2, r = 1: 2 eta = lam
    data = problem_data(1)
    u = DgScalar(data.mesh, [0.0])
    lam = DgVector(data.mesh, [[3.0, 4.0]])
    eta = eta_update(lifting(u), lam, data, SolverConfig(r=1.0))
    assert np.allclose(eta.values[0], [1.5, 2.0], rtol=1e-12)
    assert np.hypot(*eta.values[0]) == pytest.approx(
        scalar_root(2.0, 1.0, 5.0), rel=1e-12)


def test_eta_update_parallel_with_resolvent_magnitude():
    data = problem_data(4, b=0.5)
    cfg = SolverConfig(r=1.0)
    mesh = data.mesh
    rng = np.random.default_rng(26)
    u = DgScalar(mesh, rng.normal(size=mesh.n_elements))
    lam = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    eta = eta_update(lifting(u), lam, data, cfg).values
    s = lam.values + cfg.r * bu_of(u.values, mesh)
    p_bar = data.exponent.barycenter_values(mesh)
    for k in range(mesh.n_elements):
        c = float(np.hypot(*s[k]))
        cross = s[k, 0] * eta[k, 1] - s[k, 1] * eta[k, 0]
        assert abs(cross) <= 1e-12 * max(1.0, c)
        assert np.hypot(*eta[k]) == pytest.approx(
            scalar_root(float(p_bar[k]), cfg.r, c), abs=1e-10 * max(1.0, c))


def test_eta_update_satisfies_flux_equation():
    # |eta|^{p-2} eta + r (eta - Bu) = lam, elementwise, including r != 1
    data = problem_data(5, b=0.5)
    cfg = SolverConfig(r=2.0)
    mesh = data.mesh
    rng = np.random.default_rng(27)
    u = DgScalar(mesh, rng.normal(size=mesh.n_elements))
    lam = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    eta = eta_update(lifting(u), lam, data, cfg).values
    bu = bu_of(u.values, mesh)
    p_bar = data.exponent.barycenter_values(mesh)
    mag = np.hypot(eta[:, 0], eta[:, 1])
    with np.errstate(all="ignore"):
        factor = np.where(mag > 0.0, mag ** (p_bar - 2.0), 0.0)
    resid = factor[:, None] * eta + cfg.r * (eta - bu) - lam.values
    scale = np.maximum(1.0, np.hypot.reduce(lam.values, axis=1))
    assert np.all(np.abs(resid).max(axis=1) <= 1e-10 * scale)


def test_lambda_update_hand_values():
    data = problem_data(1)
    state = zero_state(data.mesh)
    cfg = SolverConfig(r=1.0)
    assert np.allclose(lambda_update(state.lam, gap_of(state), cfg).values,
                       0.0)
    state.eta = DgVector(data.mesh, [[-1.0, 0.0]])
    assert np.allclose(lambda_update(state.lam, gap_of(state), cfg).values[0],
                       [1.0, 0.0])
    state.lam = DgVector(data.mesh, [[2.0, 3.0]])
    assert np.allclose(lambda_update(state.lam, gap_of(state), cfg).values[0],
                       [3.0, 3.0])


def test_lambda_update_scales_with_rho():
    data = problem_data(3, b=0.25)
    mesh = data.mesh
    rng = np.random.default_rng(28)
    state = zero_state(mesh)
    state.u = DgScalar(mesh, rng.normal(size=mesh.n_elements))
    state.eta = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    one = lambda_update(state.lam, gap_of(state),
                        SolverConfig(r=1.0, rho=1.0)).values
    two = lambda_update(state.lam, gap_of(state),
                        SolverConfig(r=1.0, rho=2.0)).values
    gap = bu_of(state.u.values, mesh) - state.eta.values
    assert np.allclose(two - one, gap, rtol=1e-12, atol=1e-14)


def test_stopping_check_rules():
    mesh = build_uniform_mesh(SQUARE, 2, 2)
    cfg = SolverConfig(tol_outer=1e-8)
    state = zero_state(mesh)
    state.residual_u = 0.0
    state.residual_constraint = 0.0
    assert not stopping_check(state, cfg)  # before the first iteration
    state.iteration = 1
    assert stopping_check(state, cfg)
    state.residual_u = 1e-8  # boundary value counts as converged
    assert stopping_check(state, cfg)
    state.residual_u = 1.0001e-8
    assert not stopping_check(state, cfg)


def test_stopping_check_constraint_opt_in():
    mesh = build_uniform_mesh(SQUARE, 2, 2)
    state = zero_state(mesh)
    state.iteration = 3
    state.residual_u = 0.0
    state.residual_constraint = 1.0
    assert stopping_check(state, SolverConfig())
    assert not stopping_check(state, SolverConfig(require_constraint=True))
    state.residual_constraint = 0.0
    assert stopping_check(state, SolverConfig(require_constraint=True))


def test_stopping_check_rejects_non_finite_iterate():
    # inf <= tol * max(1, inf) holds, so a blown-up u must be caught apart
    mesh = build_uniform_mesh(SQUARE, 2, 2)
    state = zero_state(mesh)
    state.u = DgScalar(mesh, np.array([np.inf, 0.0, 0.0, 0.0]))
    state.residual_u = np.inf
    state.iteration = 1
    assert not stopping_check(state, SolverConfig())
    state.residual_u = 0.0
    assert not stopping_check(state, SolverConfig())
    state.u = DgScalar(mesh, np.array([np.nan, 0.0, 0.0, 0.0]))
    assert not stopping_check(state, SolverConfig())


# a load of 1e200 gives a u whose square overflows
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_stops_at_non_finite_u_increment():
    # the run ends unconverged at the first non-finite u-increment
    # instead of spinning to max_outer
    big = lambda x, y: np.full_like(np.asarray(x, float), 1e200)
    state = run(problem_data(4, xi=big), SolverConfig())
    assert state.iteration == 1
    assert state.converged is False
    assert state.residual_u == np.inf


def test_run_rejects_nonpositive_r():
    _, data = manufactured_data(0.0, 4)
    with pytest.raises(ValueError):
        run(data, SolverConfig(r=0.0, force_step_size=True))


def test_run_linear_case_fast_and_accurate():
    prob, data = manufactured_data(0.0, 10)
    state = run(data, SolverConfig())
    assert state.converged
    assert state.iteration <= 5
    assert l2_error(state.u, prob) == pytest.approx(0.6401815085252257, abs=1e-9)


def test_run_zero_data_gives_zero_solution():
    data = problem_data(4, b=0.25)
    state = run(data, SolverConfig())
    assert state.converged
    assert state.iteration == 1
    assert np.allclose(state.u.values, 0.0)


def test_run_records_history():
    _, data = manufactured_data(0.25, 4)
    state = run(data, SolverConfig())
    assert len(state.history) == state.iteration
    assert [rec.iteration for rec in state.history] == \
        list(range(1, state.iteration + 1))
    assert state.history[-1].residual_u == state.residual_u
    # the energy trace settles to the discrete minimum from above
    assert state.history[0].energy >= state.history[-1].energy - 1e-12


def test_fixed_point_satisfies_all_three_equations():
    _, data = manufactured_data(0.25, 6)
    cfg = SolverConfig(tol_outer=1e-10, require_constraint=True)
    state = run(data, cfg)
    assert state.converged
    mesh = data.mesh
    # linear stationarity
    sm = assemble_matrix(data, cfg)
    rhs = assemble_rhs(state, data, cfg)
    lin = np.abs(sm.matrix @ state.u.values - rhs).max()
    assert lin <= 1e-7 * max(1.0, np.abs(rhs).max())
    # flux resolvent consistency
    eta = eta_update(lifting(state.u), state.lam, data, cfg)
    assert l2_norm(DgVector(mesh, eta.values - state.eta.values)) <= 1e-7
    # constraint
    gap = bu_of(state.u.values, mesh) - state.eta.values
    assert float(np.sqrt((mesh.areas[:, None] * gap**2).sum())) <= \
        1e-7 * max(1.0, l2_norm(state.eta))


def test_solution_is_saddle_point_of_lagrangian():
    # p = 2 so the continuous and solver quadratures coincide exactly
    _, data = manufactured_data(0.0, 6)
    cfg = SolverConfig(tol_outer=1e-10, require_constraint=True)
    state = run(data, cfg)
    assert state.converged
    mesh = data.mesh
    rng = np.random.default_rng(29)
    base = eval_lagrangian(state.u, state.eta, state.lam, data, cfg.r)
    eps = 1e-4
    for _ in range(5):
        dv = rng.normal(size=mesh.n_elements)
        dv /= l2_norm(DgScalar(mesh, dv))
        up = DgScalar(mesh, state.u.values + eps * dv)
        dn = DgScalar(mesh, state.u.values - eps * dv)
        deriv = (eval_lagrangian(up, state.eta, state.lam, data, cfg.r)
                 - eval_lagrangian(dn, state.eta, state.lam, data, cfg.r)) / (2 * eps)
        assert abs(deriv) <= 1e-6 * max(1.0, abs(base))
    for _ in range(5):
        dq = rng.normal(size=(mesh.n_elements, 2))
        dq /= l2_norm(DgVector(mesh, dq))
        up = DgVector(mesh, state.eta.values + eps * dq)
        dn = DgVector(mesh, state.eta.values - eps * dq)
        deriv = (eval_lagrangian(state.u, up, state.lam, data, cfg.r)
                 - eval_lagrangian(state.u, dn, state.lam, data, cfg.r)) / (2 * eps)
        assert abs(deriv) <= 1e-6 * max(1.0, abs(base))


def test_coupled_inner_loop_converges():
    _, data = manufactured_data(0.25, 4)
    state = run(data, SolverConfig(algorithm=Algorithm.COUPLED))
    assert state.converged
    assert state.inner_converged


def test_algorithms_agree():
    for r in (1.0, 1.5):
        _, data = manufactured_data(0.25, 6)
        a = run(data, SolverConfig(r=r, algorithm=Algorithm.COUPLED))
        b = run(data, SolverConfig(r=r))
        assert a.converged and b.converged
        diff = l2_norm(DgScalar(data.mesh, a.u.values - b.u.values))
        assert diff <= 1e-6


def test_run_dispatches_on_algorithm(monkeypatch):
    # both algorithms run through the public step functions; only the
    # coupled one repeats the u-solve and flux recovery per multiplier step
    calls = {}
    for name in ("solve_linear", "eta_update", "lambda_update"):
        def counted(*args, _fn=getattr(pxdg.solver, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(pxdg.solver, name, counted)
    _, data = manufactured_data(0.25, 4)
    for algorithm in Algorithm:
        calls.clear()
        state = run(data, SolverConfig(algorithm=algorithm))
        assert state.converged
        assert calls["lambda_update"] == state.iteration
        assert calls["eta_update"] == calls["solve_linear"]
        if algorithm == Algorithm.COUPLED:
            assert calls["solve_linear"] > state.iteration
        else:
            assert calls["solve_linear"] == state.iteration


@pytest.mark.parametrize("b, nx, algorithm, iterations, l2, jh", [
    (0.5, 10, Algorithm.UNCOUPLED, 21, 1.0028175754546504, 50.19652471765393),
    (0.25, 8, Algorithm.COUPLED, 19, 0.9506124470672922, 32.98441972606155),
    (0.0, 6, Algorithm.UNCOUPLED, 2, 0.9241147661433949, 20.983263168451302),
])
def test_run_pinned_outputs(b, nx, algorithm, iterations, l2, jh):
    prob, data = manufactured_data(b, nx)
    state = run(data, SolverConfig(algorithm=algorithm))
    assert state.converged
    assert state.iteration == iterations
    assert l2_error(state.u, prob) == pytest.approx(l2, rel=1e-12)
    assert state.energy == pytest.approx(jh, rel=1e-12)


@pytest.mark.parametrize("b, nx, algorithm, residual", [
    (0.5, 10, Algorithm.UNCOUPLED, 1.5136070488348886e-07),
    (0.25, 8, Algorithm.COUPLED, 2.807480730834502e-07),
    (0.0, 6, Algorithm.UNCOUPLED, 0.8926130402601007),
])
def test_run_pinned_residuals(b, nx, algorithm, residual):
    # at rho = r = 1 the multiplier moves by exactly the gap Bu - eta, so
    # both residuals take one value
    _, data = manufactured_data(b, nx)
    state = run(data, SolverConfig(algorithm=algorithm))
    assert state.residual_constraint == pytest.approx(residual, rel=1e-12)
    assert state.residual_lambda == pytest.approx(residual, rel=1e-12)


def test_run_lifts_u_once_per_sweep(monkeypatch):
    # each u-solve is lifted once for the flux step, the multiplier step and
    # the constraint residual; the energy lifts the final u once more
    calls = {"lifting": 0, "solve_linear": 0}

    def counted(module, name):
        def wrapper(*args, _fn=getattr(module, name)):
            calls[name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(pxdg.solver, "lifting")
    counted(pxdg.energy, "lifting")
    counted(pxdg.solver, "solve_linear")
    _, data = manufactured_data(0.25, 4)
    for algorithm in Algorithm:
        calls.update(lifting=0, solve_linear=0)
        state = run(data, SolverConfig(algorithm=algorithm))
        assert state.converged
        assert calls["lifting"] == calls["solve_linear"] + state.iteration
        if algorithm == Algorithm.UNCOUPLED:
            assert calls["lifting"] == 2 * state.iteration


def test_quadratic_case_matches_direct_solve_for_any_r():
    # at p = 2 the objective is quadratic; its normal equations are the
    # r = 1 system, so the iteration must land there from any penalty r
    prob, data = manufactured_data(0.0, 6)
    state = run(data, SolverConfig(
        r=2.0, tol_outer=1e-10, require_constraint=True))
    assert state.converged
    cfg_ref = SolverConfig(r=1.0)
    direct = solve_linear(assemble_matrix(data, cfg_ref),
                          assemble_rhs(zero_state(data.mesh), data, cfg_ref))
    diff = l2_norm(DgScalar(data.mesh, state.u.values - direct))
    assert diff <= 1e-7


def test_step_size_guard_uncoupled():
    _, data = manufactured_data(0.0, 3)
    cfg = SolverConfig(r=1.0, rho=2.0)  # above r (1 + sqrt 5) / 2
    with pytest.warns(StepSizeWarning):
        with pytest.raises(ValueError):
            run(data, cfg)
    forced = SolverConfig(r=1.0, rho=2.0, force_step_size=True, max_outer=3)
    with pytest.warns(StepSizeWarning):
        state = run(data, forced)
    assert state.iteration >= 1


def test_step_size_guard_coupled():
    _, data = manufactured_data(0.0, 3)
    bad = SolverConfig(r=1.0, rho=2.5, algorithm=Algorithm.COUPLED)
    with pytest.warns(StepSizeWarning):
        with pytest.raises(ValueError):
            run(data, bad)
    # 1.9 r is inside the coupled bound (0, 2r) but outside the uncoupled one
    ok = SolverConfig(r=1.0, rho=1.9, algorithm=Algorithm.COUPLED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = run(data, ok)
    assert state.converged
    with pytest.warns(StepSizeWarning):
        with pytest.raises(ValueError):
            run(data, SolverConfig(r=1.0, rho=1.9))


def test_default_step_size_is_silent():
    _, data = manufactured_data(0.25, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(data, SolverConfig()).converged
        assert run(data, SolverConfig(algorithm=Algorithm.COUPLED)).converged


def test_nonpositive_rho_rejected():
    _, data = manufactured_data(0.0, 3)
    with pytest.warns(StepSizeWarning):
        with pytest.raises(ValueError):
            run(data, SolverConfig(r=1.0, rho=-1.0))


def test_non_convergence_is_flagged():
    _, data = manufactured_data(0.5, 10)
    state = run(data, SolverConfig(max_outer=2))
    assert not state.converged
    assert state.iteration == 2


def test_warm_start_from_previous_state():
    _, data = manufactured_data(0.25, 4)
    cold = run(data, SolverConfig())
    fields = [f.values.copy() for f in (cold.u, cold.eta, cold.lam)]
    iteration, history = cold.iteration, copy.deepcopy(cold.history)
    warm = run(data, SolverConfig(), init=cold)
    # the warm run starts from init's fields and leaves init as it was
    for f, before in zip((cold.u, cold.eta, cold.lam), fields):
        assert np.array_equal(f.values, before)
    assert cold.iteration == iteration and cold.history == history
    assert warm.converged
    assert warm.iteration <= cold.iteration
    diff = l2_norm(DgScalar(data.mesh, warm.u.values - cold.u.values))
    assert diff <= 1e-6


def test_write_trace_csv(tmp_path):
    # the CLI owns the trace format: one row per record of state.history
    _, data = manufactured_data(0.25, 4)
    state = run(data, SolverConfig())
    path = tmp_path / "trace.csv"
    assert main(["solve", "--b", "0.25", "--nx", "4", "--out",
                 str(tmp_path / "solution.csv"), "--trace", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,residual_u,residual_constraint,residual_lambda,Jh"
    assert len(lines) == 1 + state.iteration
    assert lines[1].startswith("1,")


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(r=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tol_outer=0.0)
    for key in ("r", "rho", "tol_outer"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                SolverConfig(**{key: value})
    with pytest.raises(ValueError):
        SolverConfig(max_outer=0)
    cfg = SolverConfig(r=2.0)
    assert cfg.effective_rho == 2.0
    assert SolverConfig(r=2.0, rho=0.5).effective_rho == 0.5
