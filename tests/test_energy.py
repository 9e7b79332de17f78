"""Energy functionals: flux term F, data term G, total objective, Lagrangian."""

import tracemalloc

import numpy as np
import pytest

from edge_loop import edges, penalty
from pxdg import (DgScalar, DgVector, Domain, ExponentField, ProblemData,
                  build_uniform_mesh, eval_F, eval_G, eval_Jh, eval_lagrangian,
                  gauss_points, grad_F, lifting, manufactured_exponent,
                  manufactured_problem)

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


def zero(x, y):
    return np.zeros_like(np.asarray(x, float))


def make_data(mesh, b=0.0, xi=zero, u_D=zero):
    return ProblemData(mesh=mesh, exponent=manufactured_exponent(b),
                       xi=xi, u_D=u_D)


def constant_exponent(value):
    return ExponentField(
        lambda x, y: np.full_like(np.asarray(x, float), value),
        p1=value, p2=value)


def test_eval_F_zero_field():
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    data = make_data(mesh, b=0.25)
    q = DgVector(mesh, np.zeros((mesh.n_elements, 2)))
    assert eval_F(q, data) == 0.0


def test_eval_F_constant_unit_flux():
    mesh = build_uniform_mesh(SQUARE, 2, 2)
    data = make_data(mesh, b=0.0)
    q = DgVector(mesh, np.tile([1.0, 0.0], (mesh.n_elements, 1)))
    # |q| = 1, p = 2: integrand 1/2 over area 4
    assert eval_F(q, data) == pytest.approx(2.0, rel=1e-13)
    # one element at b = 0.5: p varies over it, and F takes the barycenter
    # value p(0, 0) = 1 + 1/1.5 = 5/3, so F = 4 * 5^(5/3) / (5/3) for |q| = 5
    one = build_uniform_mesh(SQUARE, 1, 1)
    q = DgVector(one, [[3.0, 4.0]])
    want = 4.0 * 0.6 * 5.0 ** (5.0 / 3.0)
    assert eval_F(q, make_data(one, b=0.5)) == pytest.approx(want, rel=1e-13)


def test_eval_F_takes_hypot_where_the_square_leaves_the_normal_range():
    # |q|^2 overflows at |q| ~ 1e200 and is subnormal at ~1e-200: there F
    # reads np.hypot's |q|, and gives the finite sum computed with it
    mesh = build_uniform_mesh(SQUARE, 2, 1)
    data = ProblemData(mesh=mesh, exponent=constant_exponent(1.5), xi=zero,
                       u_D=zero)
    q = DgVector(mesh, [[1e200, 1e200], [1e-200, 2e-200]])
    mag = np.hypot(q.values[:, 0], q.values[:, 1])
    assert eval_F(q, data) == float(
        (mesh.dx * mesh.dy * (mag ** 1.5 / 1.5)).sum())


def test_grad_F_identity_at_p_two():
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    data = make_data(mesh, b=0.0)
    rng = np.random.default_rng(10)
    q = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    assert np.allclose(grad_F(q, data).values, q.values, rtol=1e-14)


def test_grad_F_hand_value():
    mesh = build_uniform_mesh(SQUARE, 1, 1)
    data = ProblemData(mesh=mesh, exponent=constant_exponent(1.5),
                       xi=zero, u_D=zero)
    q = DgVector(mesh, [[3.0, 4.0]])
    want = 5.0 ** (-0.5) * np.array([3.0, 4.0])
    assert np.allclose(grad_F(q, data).values[0], want, rtol=1e-14)
    z = DgVector(mesh, [[0.0, 0.0]])
    assert np.allclose(grad_F(z, data).values, 0.0)


def test_grad_F_matches_central_difference():
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    data = make_data(mesh, b=0.5)
    rng = np.random.default_rng(14)
    # keep magnitudes away from the origin where F is not smooth
    angles = rng.uniform(0.0, 2.0 * np.pi, size=mesh.n_elements)
    radii = rng.uniform(0.5, 2.0, size=mesh.n_elements)
    qv = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    delta = rng.normal(size=qv.shape)
    grad = grad_F(DgVector(mesh, qv), data).values
    want = float((mesh.dx * mesh.dy * grad * delta).sum())
    eps = 1e-4
    plus = eval_F(DgVector(mesh, qv + eps * delta), data)
    minus = eval_F(DgVector(mesh, qv - eps * delta), data)
    got = (plus - minus) / (2.0 * eps)
    assert got == pytest.approx(want, rel=1e-6)


def test_eval_G_zero():
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    data = make_data(mesh, b=0.25)
    v = DgScalar(mesh, np.zeros(mesh.n_elements))
    assert eval_G(v, data) == 0.0


def test_eval_G_constant_one_single_element():
    mesh = build_uniform_mesh(SQUARE, 1, 1)
    data = make_data(mesh, b=0.0)
    v = DgScalar(mesh, [1.0])
    # data term 4; four boundary edges each contribute weight(2)*|e| = 1
    assert eval_G(v, data) == pytest.approx(4.0, rel=1e-13)


def test_eval_G_jump_isolation():
    mesh = build_uniform_mesh(SQUARE, 2, 1)
    step = lambda x, y: np.where(np.asarray(x, float) < 0.0, 0.0, 1.0)
    data = make_data(mesh, b=0.0, xi=step, u_D=step)
    v = DgScalar(mesh, [0.0, 1.0])
    # only the jump term survives: 0.5 * w(2) * |e| * 1 = 0.5 * 0.5 * 2
    assert eval_G(v, data) == pytest.approx(0.5, rel=1e-13)


def test_eval_G_quadratic_second_difference():
    # G is quadratic in v, so second differences do not depend on the base
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    data = make_data(mesh, b=0.25, xi=lambda x, y: x + y,
                     u_D=lambda x, y: x * y)
    rng = np.random.default_rng(15)
    d = rng.normal(size=mesh.n_elements)
    base1 = rng.normal(size=mesh.n_elements)
    base2 = rng.normal(size=mesh.n_elements)

    def second_diff(v):
        g0 = eval_G(DgScalar(mesh, v), data)
        g1 = eval_G(DgScalar(mesh, v + d), data)
        g2 = eval_G(DgScalar(mesh, v + 2.0 * d), data)
        return g2 - 2.0 * g1 + g0

    assert second_diff(base1) == pytest.approx(second_diff(base2), rel=1e-10)


def pointwise_G(v, data):
    """Reference G: every misfit evaluated at the 3x3 element and 3-point
    boundary Gauss points, edge by edge over the oracle's edges."""
    mesh = data.mesh
    grid = v.reshape(mesh.ny, mesh.nx)
    data_term = sum(w * ((grid - data.xi(x, y)) ** 2).sum()
                    for x, y, w in gauss_points(mesh))
    e = edges(mesh)
    w_int = penalty(data.exponent, e["int_length"], e["int_mid"])
    du = v[e["int_plus"]] - v[e["int_minus"]]
    jump_term = (w_int * e["int_length"] * du ** 2).sum()
    p0, p1 = e["bnd_p0"], e["bnd_p1"]
    w_bnd = penalty(data.exponent, e["bnd_length"], 0.5 * (p0 + p1))
    g, w = np.polynomial.legendre.leggauss(3)
    pts = 0.5 * ((p0 + p1)[:, None] + g[:, None] * (p1 - p0)[:, None])
    diff = v[e["bnd_element"]][:, None] - data.u_D(pts[..., 0], pts[..., 1])
    bw = 0.5 * e["bnd_length"][:, None] * w
    bnd_term = (w_bnd[:, None] * bw * diff ** 2).sum()
    return 0.5 * (data_term + jump_term + bnd_term), data_term


def test_eval_G_matches_pointwise_quadrature():
    mesh = build_uniform_mesh(SQUARE, 9, 7)
    data = make_data(mesh, b=0.5, xi=lambda x, y: np.sin(3 * x) + x * y,
                     u_D=lambda x, y: x - y)
    _, xbar, spread, _ = data.xi_moments
    rng = np.random.default_rng(25)
    for v in (rng.normal(size=mesh.n_elements), xbar):
        want, data_term = pointwise_G(v, data)
        assert eval_G(DgScalar(mesh, v), data) == pytest.approx(want, rel=1e-12)
    # at v = xbar the data misfit is the within-element spread C alone
    assert spread == pytest.approx(data_term, rel=1e-12)


def _plain_G(v, data):
    # G as one sum of unscaled squares, the operations of eval_G's plain
    # path in their order: W misfit . misfit + C, and the edge weights
    # times the squared jumps on the edge grids, with ubar beyond the
    # boundary, + C
    mesh = data.mesh
    total, xbar, spread, _ = data.xi_moments
    ux, uy, bnd_spread = data.boundary_moments
    misfit = v - xbar
    grid = v.reshape(mesh.ny, mesh.nx)
    jx = np.hstack([grid[:, :1] - ux[:, :1], grid[:, 1:] - grid[:, :-1],
                    ux[:, 1:] - grid[:, -1:]])
    jy = np.vstack([grid[:1] - uy[:1], grid[1:] - grid[:-1],
                    uy[1:] - grid[-1:]])
    cx, cy = data.penalty_weights
    edge = float((jx * jx * cx).sum() + (jy * jy * cy).sum())
    return 0.5 * ((total * float(misfit @ misfit) + spread)
                  + (edge + bnd_spread))


def test_eval_G_plain_path_is_one_sum_of_squares():
    # where no square overflows, G is the plain sum, bit for bit
    mesh = build_uniform_mesh(SQUARE, 9, 7)
    data = make_data(mesh, b=0.5, xi=lambda x, y: np.sin(3 * x) + x * y,
                     u_D=lambda x, y: x - y)
    rng = np.random.default_rng(26)
    for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
        v = scale * rng.normal(size=mesh.n_elements)
        assert eval_G(DgScalar(mesh, v), data) == _plain_G(v, data)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_eval_G_scales_an_overflowing_sum(b):
    # G is quadratic in (v, xi, u_D) together. At 3e153 times each, the
    # misfit's sum of squares overflows on 16 x 16 while W times it, and so
    # G, stay finite: G scales by the square, silently. Beyond the largest
    # double it is inf, and a NaN value gives NaN
    mesh = build_uniform_mesh(SQUARE, 16, 16)
    rng = np.random.default_rng(27)
    v = 1.0 + 0.01 * rng.normal(size=mesh.n_elements)
    one = lambda x, y: np.ones_like(np.asarray(x, float))
    scale = 3e153
    big = make_data(mesh, b=b, xi=lambda x, y: scale * np.sin(x + y),
                    u_D=lambda x, y: scale * one(x, y))
    misfit = scale * v - big.xi_moments[1]
    with np.errstate(over="ignore"):
        assert misfit @ misfit == np.inf
    want = eval_G(DgScalar(mesh, v), make_data(
        mesh, b=b, xi=lambda x, y: np.sin(x + y), u_D=one)) * scale * scale
    got = eval_G(DgScalar(mesh, scale * v), big)
    assert np.isfinite(got) and got == pytest.approx(want, rel=1e-12)
    assert eval_G(DgScalar(mesh, 1e200 * v), big) == np.inf
    assert np.isnan(eval_G(DgScalar(mesh, np.where(v > 1.0, np.nan, v)), big))


@pytest.mark.parametrize("nx, ny", [(64, 64), (128, 96)])
def test_xi_moments_memory(nx, ny):
    # xi is sampled one Gauss point at a time into one (m, 9) array: the
    # traced peak stays under 24 m-vectors, where (m, 9) arrays of the
    # points' coordinates and values take ~40
    data = manufactured_problem(0.5).discretize(nx, ny)
    tracemalloc.start()
    try:
        data.xi_moments
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 8 * data.mesh.n_elements


def test_eval_Jh_report():
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    data = make_data(mesh, b=0.25, xi=lambda x, y: x)
    v = DgScalar(mesh, np.full(mesh.n_elements, 0.3))
    # constant fields have zero discrete gradient, so J reduces to G
    assert eval_F(lifting(v), data) == 0.0
    assert eval_Jh(v, data) == pytest.approx(eval_G(v, data))
    rng = np.random.default_rng(16)
    v2 = DgScalar(mesh, rng.normal(size=mesh.n_elements))
    j2 = eval_Jh(v2, data)
    assert type(j2) is float
    assert j2 == pytest.approx(eval_F(lifting(v2), data) + eval_G(v2, data),
                               rel=1e-14)
    # a given lifting of v is used as it is, in place of lifting v again
    assert eval_Jh(v2, data, lifting(v2)) == j2
    zero_flux = DgVector(mesh, np.zeros((mesh.n_elements, 2)))
    assert eval_Jh(v2, data, zero_flux) == eval_G(v2, data)


def test_lagrangian_at_feasible_point_equals_objective():
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    data = make_data(mesh, b=0.25, xi=lambda x, y: x + 0.5 * y)
    rng = np.random.default_rng(18)
    v = DgScalar(mesh, rng.normal(size=mesh.n_elements))
    lam = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    got = eval_lagrangian(v, lifting(v), lam, data, 1.0)
    assert got == pytest.approx(eval_Jh(v, data), rel=1e-12)


def test_lagrangian_all_zero():
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    data = make_data(mesh, b=0.25, xi=lambda x, y: np.cos(x) * y)
    z = DgScalar(mesh, np.zeros(mesh.n_elements))
    zq = DgVector(mesh, np.zeros((mesh.n_elements, 2)))
    assert eval_lagrangian(z, zq, zq, data, 1.0) == \
        pytest.approx(eval_G(z, data), rel=1e-14)


def test_lagrangian_r_scaling():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    rng = np.random.default_rng(19)
    v = DgScalar(mesh, rng.normal(size=mesh.n_elements))
    q = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    lam = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    data = make_data(mesh, b=0.5)
    r0 = 0.8
    low = eval_lagrangian(v, q, lam, data, r0)
    high = eval_lagrangian(v, q, lam, data, 2.0 * r0)
    gap = lifting(v).values - q.values
    penalty = float((mesh.dx * mesh.dy * gap**2).sum())
    assert high - low == pytest.approx(0.5 * r0 * penalty, rel=1e-10)


def test_objective_midpoint_convexity():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    data = make_data(mesh, b=0.5, xi=lambda x, y: x - y)
    rng = np.random.default_rng(20)
    for _ in range(20):
        v1 = rng.normal(size=mesh.n_elements)
        v2 = rng.normal(size=mesh.n_elements)
        jm = eval_Jh(DgScalar(mesh, 0.5 * (v1 + v2)), data)
        j1 = eval_Jh(DgScalar(mesh, v1), data)
        j2 = eval_Jh(DgScalar(mesh, v2), data)
        assert jm <= 0.5 * (j1 + j2) + 1e-12 * max(1.0, abs(j1) + abs(j2))


def test_flux_energy_midpoint_convexity():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    data = make_data(mesh, b=0.5)
    rng = np.random.default_rng(21)
    for _ in range(20):
        q1 = rng.normal(size=(mesh.n_elements, 2))
        q2 = rng.normal(size=(mesh.n_elements, 2))
        fm = eval_F(DgVector(mesh, 0.5 * (q1 + q2)), data)
        f1 = eval_F(DgVector(mesh, q1), data)
        f2 = eval_F(DgVector(mesh, q2), data)
        assert fm <= 0.5 * (f1 + f2) + 1e-12 * max(1.0, f1 + f2)


def test_problem_data_evaluates_inputs_once():
    # the energies read the values ProblemData owns instead of evaluating
    # the exponent and the data again; calls counts evaluation points
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    calls = {"p": 0, "xi": 0, "u_D": 0}

    def counted(name, fn):
        def wrapper(x, y):
            calls[name] += np.size(x)
            return fn(x, y)
        return wrapper

    field = manufactured_exponent(0.5)
    data = ProblemData(
        mesh=mesh, exponent=ExponentField(counted("p", field.func),
                                          field.p1, field.p2),
        xi=counted("xi", lambda x, y: x + y), u_D=counted("u_D", zero))
    rng = np.random.default_rng(22)
    v = DgScalar(mesh, rng.normal(size=mesh.n_elements))
    q = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    first = (eval_Jh(v, data), eval_F(q, data),
             grad_F(q, data).values, data.load)
    seen = dict(calls)
    # p at the barycenters and the interior and boundary edge midpoints,
    # xi at the 3x3 element and u_D at the 3-point boundary Gauss points
    e = edges(mesh)
    n_bnd = len(e["bnd_element"])
    assert seen == {"p": mesh.n_elements + len(e["int_plus"]) + n_bnd,
                    "xi": 9 * mesh.n_elements, "u_D": 3 * n_bnd}
    second = (eval_Jh(v, data), eval_F(q, data),
              grad_F(q, data).values, data.load)
    assert calls == seen
    assert first[:2] == second[:2]
    assert np.array_equal(first[2], second[2]) and second[3] is first[3]
    with pytest.raises(AttributeError):
        data.xi = zero
