"""Jumps, averages, the jump lifting, and the discrete gradient operator."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from edge_loop import average, axis_lifting, edges, jump, weighted_jump_norm
from pxdg import (DgScalar, DgVector, Domain, build_uniform_mesh, l2_norm,
                  lifting, lifting_adjoint, luxemburg_norm,
                  manufactured_exponent, modular)
from pxdg.dg import _magnitude

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


def jump_l2_norm(u):
    """L2 norm of the jump field over all interior edges."""
    e = edges(u.mesh)
    du = u.values[e["int_plus"]] - u.values[e["int_minus"]]
    return float(np.sqrt((e["int_length"] * du ** 2).sum()))


def two_elements():
    return build_uniform_mesh(SQUARE, 2, 1)


def test_jump_hand_values():
    mesh = two_elements()
    assert np.allclose(jump(DgScalar(mesh, [3.0, 1.0])), [[2.0, 0.0]])
    assert np.allclose(jump(DgScalar(mesh, [1.0, 3.0])), [[-2.0, 0.0]])
    assert np.allclose(jump(DgScalar(mesh, [5.0, 5.0])), [[0.0, 0.0]])
    # 2x2: vertical edges (0|1), (2|3), then horizontal (0|2), (1|3)
    square = build_uniform_mesh(SQUARE, 2, 2)
    assert np.allclose(jump(DgScalar(square, [1.0, 2.0, 4.0, 8.0])),
                       [[-1.0, 0.0], [-4.0, 0.0], [0.0, -3.0], [0.0, -6.0]])


def test_jump_orientation_invariant():
    # every edge described from the other side gives the same jumps
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    e = edges(mesh)
    flipped = dict(e, int_plus=e["int_minus"], int_minus=e["int_plus"],
                   int_normal=-e["int_normal"])
    u = DgScalar(mesh, np.random.default_rng(5).normal(size=mesh.n_elements))
    assert np.array_equal(jump(u), jump(u, flipped))


def test_average_hand_values():
    mesh = two_elements()
    phi = DgVector(mesh, [[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(average(phi), [[2.0, 3.0]])
    const = DgVector(mesh, [[7.0, -1.0], [7.0, -1.0]])
    assert np.allclose(average(const), [[7.0, -1.0]])
    single = build_uniform_mesh(SQUARE, 1, 1)
    assert average(DgVector(single, [[1.0, 2.0]])).shape == (0, 2)
    assert jump(DgScalar(single, [1.0])).shape == (0, 2)


def test_field_shape_validation():
    mesh = two_elements()
    with pytest.raises(ValueError):
        DgScalar(mesh, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        DgVector(mesh, [[1.0], [2.0]])


def test_lifting_hand_values():
    # [-1,1]^2 split into two 1x2 cells: |e| = 2, |k| = 2
    mesh = two_elements()
    r = lifting(DgScalar(mesh, [1.0, 0.0]))
    assert np.allclose(r.values, [[-0.5, 0.0], [-0.5, 0.0]])
    r = lifting(DgScalar(mesh, [0.0, 1.0]))
    assert np.allclose(r.values, [[0.5, 0.0], [0.5, 0.0]])


def test_lifting_of_constants_is_zero():
    mesh = build_uniform_mesh(SQUARE, 5, 3)
    r = lifting(DgScalar(mesh, np.full(mesh.n_elements, 2.75)))
    assert np.allclose(r.values, 0.0, atol=1e-14)


def test_lifting_linearity():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    rng = np.random.default_rng(2)
    u = rng.normal(size=mesh.n_elements)
    v = rng.normal(size=mesh.n_elements)
    combo = lifting(DgScalar(mesh, 2.0 * u - 3.0 * v)).values
    parts = 2.0 * lifting(DgScalar(mesh, u)).values \
        - 3.0 * lifting(DgScalar(mesh, v)).values
    assert np.allclose(combo, parts, rtol=1e-12, atol=1e-14)


# a non-square, off-origin domain, so dx != dy and no cell center is 0
OFFSET = Domain(0.5, 2.0, -0.3, 0.9)
SHAPES = [(1, 1), (2, 1), (1, 3), (3, 2), (4, 3), (7, 5)]


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nx, ny", SHAPES)
def test_lifting_matches_csr_oracle_bit_for_bit(nx, ny):
    # D along x on the transposed grid, D along y on the grid: each row of
    # D sums two products, so the stencil gives the CSR product's bits
    mesh = build_uniform_mesh(OFFSET, nx, ny)
    grid = np.random.default_rng(4).normal(size=(ny, nx))
    want = np.stack([(axis_lifting(nx, mesh.dx) @ grid.T).T,
                     axis_lifting(ny, mesh.dy) @ grid], axis=-1)
    got = lifting(DgScalar(mesh, grid.ravel())).values
    assert _same_bits(got, want.reshape(-1, 2))


@pytest.mark.parametrize("nx, ny", [(1, 4), (2, 3), (3, 5)] + SHAPES)
def test_lifting_adjoint_matches_transposed_view_bit_for_bit(nx, ny):
    # each row of D^T sums two products, as the stencil's end rows do
    mesh = build_uniform_mesh(OFFSET, nx, ny)
    q = np.random.default_rng(9).normal(size=(mesh.n_elements, 2))
    area = mesh.dx * mesh.dy
    wx = (area * q[:, 0]).reshape(ny, nx)
    wy = (area * q[:, 1]).reshape(ny, nx)
    want = ((axis_lifting(nx, mesh.dx).T @ wx.T).T
            + axis_lifting(ny, mesh.dy).T @ wy).ravel()
    assert _same_bits(lifting_adjoint(DgVector(mesh, q)), want)


def test_lifting_matches_kronecker_oracle():
    # the m x m matrices I_y (x) D_x and D_y (x) I_x apply the same lifting
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    lx = sp.kron(sp.identity(mesh.ny), axis_lifting(mesh.nx, mesh.dx))
    ly = sp.kron(axis_lifting(mesh.ny, mesh.dy), sp.identity(mesh.nx))
    rng = np.random.default_rng(8)
    u = rng.normal(size=mesh.n_elements)
    r = lifting(DgScalar(mesh, u)).values
    assert _same_bits(r[:, 0], lx @ u)
    assert _same_bits(r[:, 1], ly @ u)


# the identity is the edge definition of R: it ties the lifting along the
# grid axes, and its adjoint, to the mesh's edge arrays
@pytest.mark.parametrize("domain, nx, ny", [
    (SQUARE, 5, 4),
    (Domain(0.5, 2.0, -0.3, 0.9), 7, 4),
    (SQUARE, 1, 1),
    (SQUARE, 2, 1),
    (SQUARE, 1, 3),
], ids=["5x4", "7x4-offset", "1x1", "2x1", "1x3"])
def test_lifting_adjoint_identity(domain, nx, ny):
    # sum_k |k| <R(u), phi>_k = -sum_e |e| <[u]_e, {phi}_e> for all u, phi,
    # and lifting_adjoint(phi) . u is its left side
    mesh = build_uniform_mesh(domain, nx, ny)
    rng = np.random.default_rng(1)
    fields = [np.eye(mesh.n_elements)[i] for i in range(mesh.n_elements)]
    fields += [rng.normal(size=mesh.n_elements) for _ in range(3)]
    tests = [rng.normal(size=(mesh.n_elements, 2)) for _ in range(3)]
    for uv in fields:
        u = DgScalar(mesh, uv)
        r = lifting(u).values
        for pv in tests:
            phi = DgVector(mesh, pv)
            lhs = float((mesh.dx * mesh.dy * r * pv).sum())
            rhs = -float(edges(mesh)["int_length"]
                         @ (jump(u) * average(phi)).sum(axis=1))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            adj = float(lifting_adjoint(phi) @ uv)
            assert abs(adj - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_lifting_bounded_by_jump_seminorm_under_refinement():
    # Luxemburg norm of R(u) stays comparable to the weighted jump seminorm
    field = manufactured_exponent(0.5)
    ratios = []
    for nx in (4, 8, 16, 32):
        mesh = build_uniform_mesh(SQUARE, nx, nx)
        rng = np.random.default_rng(7)
        u = DgScalar(mesh, rng.normal(size=mesh.n_elements))
        num = luxemburg_norm(lifting(u).values, field, mesh)
        den = weighted_jump_norm(u, field)
        ratios.append(num / den)
    assert max(ratios) <= 2.0
    assert max(ratios) / min(ratios) <= 2.0


def test_l2_norm_values():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    assert l2_norm(DgScalar(mesh, np.ones(16))) == pytest.approx(2.0)
    unit = build_uniform_mesh(Domain(0.0, 1.0, 0.0, 1.0), 2, 2)
    q = DgVector(unit, np.tile([3.0, 4.0], (4, 1)))
    assert l2_norm(q) == pytest.approx(5.0)


@pytest.mark.parametrize("shape", [(15,), (15, 2)])
def test_l2_norm_is_one_dot_product(shape):
    # sqrt(area v . v), bit for bit, agrees with the area-weighted sum of
    # squares, and a non-finite value makes it inf or NaN
    mesh = build_uniform_mesh(Domain(0.5, 2.0, -1.0, 0.2), 5, 3)
    field = DgScalar if len(shape) == 1 else DgVector
    rng = np.random.default_rng(14)
    for size in (1e-150, 1.0, 1e150):
        v = size * rng.normal(size=shape)
        got = l2_norm(field(mesh, v))
        flat = v.ravel()
        assert got == float(np.sqrt(mesh.dx * mesh.dy * (flat @ flat)))
        want = np.sqrt((mesh.dx * mesh.dy * v ** 2).sum())
        assert got == pytest.approx(want, rel=1e-14)
    for bad in (np.inf, -np.inf, np.nan):
        v = rng.normal(size=shape)
        v.flat[4] = bad
        got = l2_norm(field(mesh, v))
        assert np.isnan(got) if np.isnan(bad) else got == np.inf


@pytest.mark.parametrize("shape", [(9,), (9, 2)])
def test_l2_norm_scales_an_overflowing_square(shape):
    # finite values whose squares overflow give the norm, silently: a
    # field of 1e200s on the square of area 4 has norm 2e200 per component
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    field = DgScalar if len(shape) == 1 else DgVector
    huge = np.full(shape, 1e200)
    want = 2e200 * np.sqrt(huge.size // 9)
    assert l2_norm(field(mesh, huge)) == pytest.approx(want, rel=1e-15)
    assert l2_norm(field(mesh, -huge)) == pytest.approx(want, rel=1e-15)
    # one such value amid O(1) ones, of cell area 4/9, dominates the norm
    v = np.random.default_rng(15).normal(size=shape)
    v.flat[4] = 1e200
    assert l2_norm(field(mesh, v)) == pytest.approx(1e200 * 2.0 / 3.0,
                                                    rel=1e-15)
    # a norm beyond the doubles is inf
    assert l2_norm(field(mesh, np.full(shape, 1e308))) == np.inf


def test_l2_norm_matches_quadratic_modular():
    mesh = build_uniform_mesh(SQUARE, 5, 5)
    field = manufactured_exponent(0.0)
    rng = np.random.default_rng(12)
    u = rng.normal(size=mesh.n_elements)
    assert l2_norm(DgScalar(mesh, u)) == \
        pytest.approx(modular(u, field, mesh) ** 0.5, rel=1e-12)


def test_jump_norms_on_step_function():
    mesh = two_elements()
    u = DgScalar(mesh, [0.0, 1.0])
    assert jump_l2_norm(u) == pytest.approx(np.sqrt(2.0))
    # p = 2 weight on the diameter-2 edge is 1/2
    p2 = manufactured_exponent(0.0)
    assert weighted_jump_norm(u, p2) == pytest.approx(1.0)
    const = DgScalar(mesh, [4.0, 4.0])
    assert jump_l2_norm(const) == 0.0
    assert weighted_jump_norm(const, p2) == 0.0


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_magnitude_is_hypot_to_two_ulp():
    # rows read as complex numbers: np.abs gives |v| as np.hypot does,
    # over the whole range, where v . v would overflow or underflow
    rng = np.random.default_rng(7)
    v = 10.0 ** rng.uniform(-320.0, 300.0, size=(100_000, 2))
    v *= rng.choice([-1.0, 1.0], size=v.shape)
    want = np.hypot(v[:, 0], v[:, 1])
    assert _ulps(_magnitude(v), want).max() <= 2.0
    # a column slice is not contiguous; its rows are read all the same
    wide = np.column_stack([v, v])
    assert np.array_equal(_magnitude(wide[:, 1:3]),
                          _magnitude(wide[:, 1:3].copy()))


def test_magnitude_is_hypot_on_special_values():
    # inf, NaN, signed zeros and subnormals, with each other and with
    # normal values, in either column
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 3e-310]
    pairs = list(itertools.product(special, special + [1.0, -1e308, 2.5]))
    v = np.array(pairs + [pair[::-1] for pair in pairs])
    want = np.hypot(v[:, 0], v[:, 1])
    assert np.array_equal(_magnitude(v), want, equal_nan=True)
