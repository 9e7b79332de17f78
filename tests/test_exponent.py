"""Exponent fields, modulars, and the Luxemburg norm."""

import re

import numpy as np
import pytest

import pxdg.exponent
from edge_loop import edges
from pxdg import (Domain, ExponentField, build_uniform_mesh, edge_weights,
                  gauss_points, luxemburg_norm, manufactured_exponent, modular)

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


def dense_modular(values, exponent, mesh, n=200):
    """Composite midpoint oracle, n*n points per element."""
    mag = np.hypot(values[:, 0], values[:, 1]) if values.ndim == 2 \
        else np.abs(values)
    total = 0.0
    dom = mesh.domain
    dx = (dom.x_max - dom.x_min) / mesh.nx
    dy = (dom.y_max - dom.y_min) / mesh.ny
    for k in range(mesh.n_elements):
        j, i = divmod(k, mesh.nx)
        x0, y0 = dom.x_min + i * dx, dom.y_min + j * dy
        xs = x0 + (np.arange(n) + 0.5) * dx / n
        ys = y0 + (np.arange(n) + 0.5) * dy / n
        xg, yg = np.meshgrid(xs, ys)
        p = exponent(xg, yg)
        m = mag[k]
        cell = dx * dy / n**2
        if m > 0.0:
            total += (m**p).sum() * cell
    return total


def test_exponent_field_validation():
    f = lambda x, y: np.full_like(np.asarray(x, float), 1.5)
    with pytest.raises(ValueError):
        ExponentField(f, p1=1.0, p2=2.0)
    with pytest.raises(ValueError):
        ExponentField(f, p1=1.5, p2=2.5)
    with pytest.raises(ValueError):
        ExponentField(f, p1=1.8, p2=1.5)


def test_manufactured_constant_case():
    field = manufactured_exponent(0.0)
    assert field.p1 == field.p2 == 2.0
    x = np.linspace(-1, 1, 7)
    assert np.all(field(x, x) == 2.0)


def test_manufactured_variable_case():
    field = manufactured_exponent(0.5)
    assert field.p1 == pytest.approx(1.5)
    assert field.p2 == pytest.approx(2.0)
    assert field(0.0, 0.0) == pytest.approx(5.0 / 3.0)
    assert field(1.0, 1.0) == pytest.approx(1.5)   # min at (1, 1)
    assert field(-1.0, -1.0) == pytest.approx(2.0)  # max at (-1, -1)
    # NaN is not below 0 and inf gives p1 = NaN: each is an error naming
    # b, not a complaint about the exponent bounds
    for b in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="b must be"):
            manufactured_exponent(b)


def test_manufactured_bounds_attained_on_domain():
    for b in (0.25, 0.5, 1.0):
        field = manufactured_exponent(b)
        x = np.linspace(-1, 1, 101)
        xg, yg = np.meshgrid(x, x)
        vals = field(xg, yg)
        assert vals.min() == pytest.approx(field.p1, rel=1e-12)
        assert vals.max() == pytest.approx(field.p2, rel=1e-12)


def test_modular_constant_one_is_area():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    field = manufactured_exponent(0.0)
    u = np.ones(mesh.n_elements)
    assert modular(u, field, mesh) == pytest.approx(4.0, rel=1e-12)


def test_modular_constant_two_unit_square():
    mesh = build_uniform_mesh(Domain(0.0, 1.0, 0.0, 1.0), 3, 3)
    field = manufactured_exponent(0.0)
    u = np.full(mesh.n_elements, 2.0)
    assert modular(u, field, mesh) == pytest.approx(4.0, rel=1e-12)


def test_modular_vector_field():
    mesh = build_uniform_mesh(SQUARE, 2, 2)
    field = manufactured_exponent(0.0)
    q = np.ones((mesh.n_elements, 2))
    # |(1,1)|^2 = 2 on a domain of area 4
    assert modular(q, field, mesh) == pytest.approx(8.0, rel=1e-12)


def test_modular_against_dense_oracle():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    field = manufactured_exponent(0.25)
    rng = np.random.default_rng(11)
    u = rng.uniform(-2.0, 2.0, size=mesh.n_elements)
    got = modular(u, field, mesh)
    want = dense_modular(u, field, mesh)
    assert got == pytest.approx(want, rel=1e-6)
    q = rng.uniform(-1.5, 1.5, size=(mesh.n_elements, 2))
    assert modular(q, field, mesh) == pytest.approx(
        dense_modular(q, field, mesh), rel=1e-6)


def test_modular_accepts_values_attribute():
    from pxdg import DgScalar
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    field = manufactured_exponent(0.25)
    u = np.linspace(0.0, 1.0, mesh.n_elements)
    assert modular(DgScalar(mesh, u), field, mesh) == \
        pytest.approx(modular(u, field, mesh), rel=1e-14)


def test_luxemburg_zero_field():
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    field = manufactured_exponent(0.25)
    assert luxemburg_norm(np.zeros(mesh.n_elements), field, mesh) == 0.0
    # NaN is not a zero magnitude: one NaN entry or all of them give NaN
    one_nan = np.zeros(mesh.n_elements)
    one_nan[4] = np.nan
    for u in (one_nan, np.full(mesh.n_elements, np.nan)):
        assert np.isnan(luxemburg_norm(u, field, mesh))


@pytest.mark.parametrize("bad, want", [(np.nan, np.nan), (np.inf, np.inf)])
def test_luxemburg_non_finite_field_skips_the_bisection(bad, want,
                                                        monkeypatch):
    # no k brackets a NaN or infinite modular: the norm returns without
    # evaluating it, where bisection used to spend all 200 steps
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    field = manufactured_exponent(0.5)
    calls = []
    scaled = pxdg.exponent._scaled_modular

    def counted(*args):
        rho = scaled(*args)
        return lambda k: calls.append(k) or rho(k)
    monkeypatch.setattr(pxdg.exponent, "_scaled_modular", counted)
    assert np.isfinite(luxemburg_norm(np.ones(mesh.n_elements), field, mesh))
    assert 0 < len(calls) < 100
    u = np.ones(mesh.n_elements)
    u[5] = bad
    calls.clear()
    assert np.array_equal(luxemburg_norm(u, field, mesh), want,
                          equal_nan=True)
    assert calls == []


def test_luxemburg_constant_one():
    mesh = build_uniform_mesh(SQUARE, 5, 5)
    field = manufactured_exponent(0.0)
    u = np.ones(mesh.n_elements)
    # modular(1/k) = 4/k^2 = 1 at k = 2
    assert luxemburg_norm(u, field, mesh) == pytest.approx(2.0, rel=1e-10)


def test_luxemburg_matches_classical_lp_for_constant_exponent():
    mesh = build_uniform_mesh(SQUARE, 6, 4)
    field = manufactured_exponent(0.0)
    rng = np.random.default_rng(4)
    u = rng.normal(size=mesh.n_elements)
    want = modular(u, field, mesh) ** 0.5
    assert luxemburg_norm(u, field, mesh) == pytest.approx(want, rel=1e-10)


def test_luxemburg_homogeneity():
    mesh = build_uniform_mesh(SQUARE, 5, 4)
    field = manufactured_exponent(0.5)
    rng = np.random.default_rng(9)
    u = rng.normal(size=mesh.n_elements)
    base = luxemburg_norm(u, field, mesh)
    assert luxemburg_norm(3.7 * u, field, mesh) == \
        pytest.approx(3.7 * base, rel=1e-9)
    assert luxemburg_norm(-u, field, mesh) == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e-100, 1e-50, 1.0, 1e50,
                                   1e100, 1e170, 1e200])
def test_luxemburg_norm_at_any_scale(scale):
    # at b = 0, p = 2 and the Luxemburg norm is the L2 norm; at b = 0.5 a
    # constant field's norm is its value times the norm of 1. Both hold
    # also where the modular of the field itself underflows or overflows
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    u = np.random.default_rng(5).normal(size=mesh.n_elements)
    want = np.sqrt(np.sum(u * u) * mesh.dx * mesh.dy)
    assert luxemburg_norm(scale * u, manufactured_exponent(0.0), mesh) \
        == pytest.approx(scale * want, rel=1e-10, abs=0.0)
    field, ones = manufactured_exponent(0.5), np.ones(mesh.n_elements)
    assert luxemburg_norm(scale * ones, field, mesh) == \
        pytest.approx(scale * luxemburg_norm(ones, field, mesh), rel=1e-10,
                      abs=0.0)


def test_luxemburg_unit_modular_at_norm():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    field = manufactured_exponent(0.25)
    rng = np.random.default_rng(17)
    for scale in (1e-3, 1.0, 1e3):
        u = scale * rng.uniform(-1.0, 1.0, size=mesh.n_elements)
        k = luxemburg_norm(u, field, mesh)
        # the modular is continuous in the scaling, so it hits 1 at the norm
        assert modular(u / k, field, mesh) == pytest.approx(1.0, abs=1e-9)


def test_norm_modular_trichotomy_and_bounds():
    mesh = build_uniform_mesh(SQUARE, 6, 5)
    field = manufactured_exponent(0.25)
    p1, p2 = field.p1, field.p2
    rng = np.random.default_rng(0)
    slack = 1.0 + 1e-9
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.uniform() < 0.5:
            u = scale * rng.normal(size=mesh.n_elements)
        else:
            u = scale * rng.normal(size=(mesh.n_elements, 2))
        norm = luxemburg_norm(u, field, mesh)
        rho = modular(u, field, mesh)
        # norm and modular sit on the same side of 1
        if norm > slack:
            assert rho > 1.0
        if norm < 1.0 / slack:
            assert rho < 1.0
        # two-sided power bounds, orientation flips at norm = 1
        if norm >= 1.0:
            assert norm ** p1 <= rho * slack
            assert rho <= slack * norm ** p2
        else:
            assert norm ** p2 <= rho * slack
            assert rho <= slack * norm ** p1


def test_call_returns_checked_float_array():
    field = ExponentField(lambda x, y: np.where(x > y, 1.2, 1.6), p1=1.5,
                          p2=2.0)
    got = field(np.array([[0.0, 0.25]]), 0.5)
    assert got.dtype == float and got.shape == (1, 2)
    assert np.all(got == 1.6)
    # the scalar y is broadcast to name the point of the first bad value
    with pytest.raises(ValueError, match=r"exponent 1\.2 at \(0\.75, 0\.5\),"):
        field(np.array([[0.0, 0.75, 1.0]]), 0.5)


@pytest.mark.parametrize("bad", [np.nan, 1.01, 2.5, np.inf])
@pytest.mark.parametrize("measure", [modular, luxemburg_norm])
def test_gauss_point_samples_are_checked(measure, bad):
    # p leaves [1.5, 2] only at one corner Gauss point of element 0, which
    # no barycenter or edge midpoint sees
    mesh = build_uniform_mesh(SQUARE, 2, 2)
    x, y, _ = next(gauss_points(mesh))
    xg, yg = x[0, 0], y[0, 0]
    field = ExponentField(
        lambda x, y: np.where(np.hypot(x - xg, y - yg) < 1e-9, bad, 1.5),
        p1=1.5, p2=2.0)
    field(*edges(mesh)["barycenters"].T)
    edge_weights(mesh, field)
    with pytest.raises(ValueError, match=re.escape(
            f"exponent {bad:g} at ({xg:g}, {yg:g}),")):
        measure(np.ones(mesh.n_elements), field, mesh)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("measure", [modular, luxemburg_norm])
def test_measures_sample_p_once_per_gauss_point(measure, scale):
    # p is sampled on the (ny, nx) grid at each of the 9 Gauss points, once,
    # however many bisection steps the norm takes
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    base = manufactured_exponent(0.5)
    shapes = []

    def recorded(x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return base(x, y)

    field = ExponentField(recorded, p1=base.p1, p2=base.p2)
    u = scale * np.random.default_rng(5).normal(size=(mesh.n_elements, 2))
    assert np.isfinite(measure(u, field, mesh))
    assert shapes == [((mesh.ny, mesh.nx), (mesh.ny, mesh.nx))] * 9
