"""Exponent fields, conjugates, modulars, and the Luxemburg norm."""

import numpy as np
import pytest

from pxdg import (Domain, ExponentField, build_uniform_mesh, conjugate,
                  luxemburg_norm, manufactured_exponent, modular)

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


def test_conjugate_values():
    assert conjugate(2.0) == pytest.approx(2.0)
    assert conjugate(1.5) == pytest.approx(3.0)
    assert conjugate(5.0 / 3.0) == pytest.approx(2.5)
    arr = conjugate(np.array([2.0, 1.5]))
    assert np.allclose(arr, [2.0, 3.0])
    with pytest.raises(ValueError):
        conjugate(1.0)
    with pytest.raises(ValueError):
        conjugate(np.array([2.0, 0.5]))


def test_conjugate_involution():
    rng = np.random.default_rng(3)
    p = rng.uniform(1.1, 2.0, size=20)
    assert np.allclose(conjugate(conjugate(p)), p, rtol=1e-13)


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
    with pytest.raises(ValueError):
        manufactured_exponent(-0.1)


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
