"""Jumps, averages, the jump lifting, and the discrete gradient operator."""

import dataclasses

import numpy as np
import pytest

from pxdg import (DgScalar, DgVector, Domain, average,
                  build_uniform_mesh, jump, jump_l2_norm, l2_norm, lifting,
                  lifting_matrices, luxemburg_norm, manufactured_exponent,
                  modular, weighted_jump_norm)

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


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
    flipped = dataclasses.replace(mesh, int_plus=mesh.int_minus,
                                  int_minus=mesh.int_plus,
                                  int_normal=-mesh.int_normal)
    u = np.random.default_rng(5).normal(size=mesh.n_elements)
    assert np.array_equal(jump(DgScalar(mesh, u)),
                          jump(DgScalar(flipped, u)))


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


def test_lifting_matrices_store_no_zeros():
    for dom, nx, ny in [(SQUARE, 1, 1), (SQUARE, 2, 1), (SQUARE, 1, 3),
                        (SQUARE, 6, 6), (Domain(0.5, 2.0, -0.3, 0.9), 7, 4)]:
        mesh = build_uniform_mesh(dom, nx, ny)
        for mat in lifting_matrices(mesh):
            assert mat.has_canonical_format
            assert np.count_nonzero(mat.data == 0.0) == 0


def test_lifting_matrices_cached_and_consistent():
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    lx, ly = lifting_matrices(mesh)
    assert lifting_matrices(mesh) == (lx, ly)
    rng = np.random.default_rng(8)
    u = rng.normal(size=mesh.n_elements)
    r = lifting(DgScalar(mesh, u)).values
    assert np.allclose(r[:, 0], lx @ u, rtol=1e-14)
    assert np.allclose(r[:, 1], ly @ u, rtol=1e-14)


def test_lifting_adjoint_identity():
    # sum_k |k| <R(u), phi>_k = -sum_e |e| <[u]_e, {phi}_e> for all u, phi
    mesh = build_uniform_mesh(SQUARE, 5, 4)
    rng = np.random.default_rng(1)
    fields = [np.eye(mesh.n_elements)[i] for i in range(mesh.n_elements)]
    fields += [rng.normal(size=mesh.n_elements) for _ in range(3)]
    tests = [rng.normal(size=(mesh.n_elements, 2)) for _ in range(3)]
    for uv in fields:
        u = DgScalar(mesh, uv)
        r = lifting(u).values
        for pv in tests:
            phi = DgVector(mesh, pv)
            lhs = float((mesh.areas[:, None] * r * pv).sum())
            rhs = -float(mesh.int_length
                         @ (jump(u) * average(phi)).sum(axis=1))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


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
