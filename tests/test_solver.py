"""System assembly, the per-element flux resolvent, and both iteration loops."""

import itertools
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import pxdg.energy
import pxdg.solver
from edge_loop import (axis_lifting, dense_lifting, edges, penalty,
                       sparse_system)
from pxdg import (Algorithm, DgScalar, DgVector, Domain, ExponentField,
                  ProblemData, SolverConfig, SolverState, StepSizeWarning,
                  assemble_matrix, assemble_rhs, build_uniform_mesh,
                  eval_Jh, eval_lagrangian, l2_error, l2_norm, lambda_update,
                  lifting, manufactured_exponent, manufactured_problem, run,
                  solve_linear, stopping_check)
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


def exponent_on(domain, b):
    # manufactured_exponent(b) declares its bounds for the square; p falls
    # as x + y grows, so on another domain its least value is at the top
    # right corner
    func = manufactured_exponent(b).func
    return ExponentField(func, p1=float(func(domain.x_max, domain.y_max)),
                         p2=2.0)


def manufactured_data(b, nx):
    prob = manufactured_problem(b)
    return prob, prob.discretize(nx, nx)


def bu_of(u_values, mesh):
    return lifting(DgScalar(mesh, u_values)).values


def gap_of(state):
    return DgVector(state.u.mesh, lifting(state.u).values - state.eta.values)


def test_matrix_single_element():
    data = problem_data(1)
    sm = assemble_matrix(data, SolverConfig(r=1.0))
    # mass 4 plus four boundary edges at weight(2) * |e| = 1 each
    assert sparse_system(sm.matrix).shape == (1, 1)
    assert np.allclose(sparse_system(sm.matrix).toarray(), [[8.0]],
                       rtol=1e-14)


def test_matrix_two_elements_r_zero():
    mesh = build_uniform_mesh(SQUARE, 2, 1)
    data = ProblemData(mesh=mesh, exponent=manufactured_exponent(0.0),
                       xi=zero, u_D=zero)
    dense = sparse_system(
        assemble_matrix(data, SolverConfig(r=0.0)).matrix).toarray()
    # mass 2 + interior jump 1 + three boundary contributions of 1
    assert np.allclose(dense, [[6.0, -1.0], [-1.0, 6.0]], rtol=1e-14)


def test_matrix_symmetric_positive_definite():
    data = problem_data(10, b=0.25)
    dense = sparse_system(
        assemble_matrix(data, SolverConfig(r=1.0)).matrix).toarray()
    assert np.abs(dense - dense.T).max() <= 1e-12
    assert np.linalg.eigvalsh(dense).min() > 0.0


def test_matrix_couples_second_neighbors_only():
    mesh = build_uniform_mesh(SQUARE, 5, 4)
    data = ProblemData(mesh=mesh, exponent=manufactured_exponent(0.25),
                       xi=zero, u_D=zero)
    dense = sparse_system(
        assemble_matrix(data, SolverConfig(r=1.0)).matrix).toarray()
    # graph distance on the element adjacency (shared edge) graph
    m = mesh.n_elements
    e = edges(mesh)
    adj = np.zeros((m, m), int)
    adj[e["int_plus"], e["int_minus"]] = 1
    adj[e["int_minus"], e["int_plus"]] = 1
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
    # B^T from the m x m lifting matrices I_y (x) D_x and D_y (x) I_x
    lx = sp.kron(sp.identity(mesh.ny), axis_lifting(mesh.nx, mesh.dx))
    ly = sp.kron(axis_lifting(mesh.ny, mesh.dy), sp.identity(mesh.nx))
    s = cfg.r * state.eta.values - state.lam.values
    area = mesh.dx * mesh.dy
    want = lx.T @ (area * s[:, 0]) + ly.T @ (area * s[:, 1])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_solve_linear_single_element():
    data = problem_data(1, xi=lambda x, y: np.ones_like(np.asarray(x, float)))
    cfg = SolverConfig(r=1.0)
    sm = assemble_matrix(data, cfg)
    rhs = assemble_rhs(zero_state(data.mesh), data, cfg)
    assert solve_linear(sm, rhs)[0] == pytest.approx([0.5])
    assert solve_linear(sm, np.zeros(1))[0] == pytest.approx([0.0])


def test_solve_linear_round_trip():
    data = problem_data(5, b=0.25)
    sm = assemble_matrix(data, SolverConfig(r=1.0))
    rng = np.random.default_rng(24)
    rhs = rng.normal(size=data.mesh.n_elements)
    u, _, _, _ = solve_linear(sm, rhs)
    assert np.abs(sm.matrix @ u - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


def _axis_operator(n, h, area, r, mass=0.0, jump=1.0):
    # written out row by row: mass + r |k| D^T D + jump tridiag(-1, 2, -1),
    # with D the central difference over 2h and its half stencils at the ends
    d = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            d[i, i - 1] -= 1.0
            d[i, i] += 1.0
        if i < n - 1:
            d[i, i + 1] += 1.0
            d[i, i] -= 1.0
    d /= 2.0 * h
    t = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return mass * np.eye(n) + r * area * d.T @ d + jump * t


def _kronecker_sum(mesh, r, jump):
    cell = mesh.dx * mesh.dy
    kx = _axis_operator(mesh.nx, mesh.dx, cell, r, mass=cell, jump=jump)
    ky = _axis_operator(mesh.ny, mesh.dy, cell, r, jump=jump)
    return np.kron(np.eye(mesh.ny), kx) + np.kron(ky, np.eye(mesh.nx))


def float64_transforms(data, r):
    # (qx, qy, eigsum) of K in float64 from pxdg.solver._axis_operator,
    # whose eigenpairs are checked against the sparse oracle below: the
    # eigenpairs of r |k| D^T D + gamma T per axis, and |k| as a shift of
    # the eigenvalue sums
    mesh = data.mesh
    cx, cy = data.penalty_weights
    gamma = float((cx.sum() + cy.sum()) / (cx.size + cy.size))
    cell = mesh.dx * mesh.dy
    axis = pxdg.solver._axis_operator
    _, lam_x, qx = axis(mesh.nx, mesh.dx, cell, r, gamma)
    _, lam_y, qy = axis(mesh.ny, mesh.dy, cell, r, gamma)
    return qx, qy, lam_y[:, None] + (lam_x + cell)


def edge_pieces(mesh, exponent):
    """Per edge from the oracle: (i, j, w |e|) for the interior edges and
    (k, w |e|) for the boundary ones."""
    e = edges(mesh)
    c_int = penalty(exponent, e["int_length"], e["int_mid"]) * e["int_length"]
    c_bnd = penalty(exponent, e["bnd_length"],
                    0.5 * (e["bnd_p0"] + e["bnd_p1"])) * e["bnd_length"]
    return (zip(e["int_plus"], e["int_minus"], c_int),
            zip(e["bnd_element"], c_bnd))


# at nx = 2 the band at offset 2 is the one at offset nx, and at nx = 1
# offsets +-1 and +-2 are +-nx and +-2nx: A stores each such pair merged
MESHES = [(Domain(0.5, 2.0, -1.0, 0.2), 5, 3, "5x3-offset"),
          (SQUARE, 1, 1, "1x1"),
          (SQUARE, 2, 1, "2x1"),
          (SQUARE, 1, 3, "1x3"),
          (SQUARE, 3, 1, "3x1"),
          (SQUARE, 2, 2, "2x2"),
          (SQUARE, 2, 3, "2x3"),
          (SQUARE, 3, 2, "3x2"),
          (SQUARE, 1, 4, "1x4")]


@pytest.mark.parametrize("r", [0.0, 1.0])
@pytest.mark.parametrize("b", [0.0, 0.5])
@pytest.mark.parametrize("domain, nx, ny", [
    pytest.param(domain, nx, ny, id=name) for domain, nx, ny, name in MESHES])
def test_matrix_matches_dense_edge_loop(domain, nx, ny, b, r):
    # A = mass + r B^T |k| B + sum_e w |e| (jump of e)^2, assembled densely
    # edge by edge from the oracle's edges and the dense lifting
    mesh = build_uniform_mesh(domain, nx, ny)
    exponent = exponent_on(domain, b)
    data = ProblemData(mesh=mesh, exponent=exponent, xi=zero, u_D=zero)
    bx, by = dense_lifting(mesh)
    a = np.full(mesh.n_elements, mesh.dx * mesh.dy)
    want = np.diag(a) + r * (bx.T @ (a[:, None] * bx) + by.T @ (a[:, None] * by))
    interior, boundary = edge_pieces(mesh, exponent)
    for i, j, c in interior:
        want[[i, j], [i, j]] += c
        want[[i, j], [j, i]] -= c
    for k, c in boundary:
        want[k, k] += c
    got = sparse_system(
        assemble_matrix(data, SolverConfig(r=r)).matrix).toarray()
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# the b = 0 cases keep the mesh's name as their id
@pytest.mark.parametrize("r", [0.0, 1.0, 1e4])
@pytest.mark.parametrize("domain, nx, ny, b", [
    pytest.param(domain, nx, ny, b, id=name if b == 0.0 else f"{name}-b{b:g}")
    for domain, nx, ny, name in MESHES + [(SQUARE, 40, 25, "40x25")]
    for b in (0.0, 0.5)])
def test_matrix_is_kronecker_sum_at_p2(domain, nx, ny, b, r):
    # at p = 2 the system is I_y (x) K_x + K_y (x) I_x with unit jump
    # penalties; for b > 0 each edge adds its departure w |e| - 1 from them.
    # The float64 eigenpairs rebuild the Kronecker sum at the mean w |e|,
    # and the stored transforms are theirs in the precision applied
    mesh = build_uniform_mesh(domain, nx, ny)
    exponent = exponent_on(domain, b)
    data = ProblemData(mesh=mesh, exponent=exponent, xi=zero, u_D=zero)
    sm = assemble_matrix(data, SolverConfig(r=r))
    want = _kronecker_sum(mesh, r, 1.0)
    interior, boundary = edge_pieces(mesh, exponent)
    prices = []
    for i, j, c in interior:
        want[[i, j], [i, j]] += c - 1.0
        want[[i, j], [j, i]] -= c - 1.0
        prices.append(c)
    for k, c in boundary:
        want[k, k] += c - 1.0
        prices.append(c)
    scale = np.abs(want).max()
    assert np.abs(sparse_system(sm.matrix).toarray() - want).max() \
        <= 1e-14 * scale
    qx, qy, eigsum = float64_transforms(data, r)
    q = np.kron(qy, qx)
    spectral = q @ (eigsum.ravel()[:, None] * q.T)
    assert np.abs(spectral - _kronecker_sum(mesh, r, np.mean(prices))).max() \
        <= 1e-12 * scale
    for stored, want in zip((sm.qx, sm.qy, sm.eigsum), (qx, qy, eigsum)):
        assert _same_bits(stored, want.astype(stored.dtype))


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_matrix_product_matches_csr_bit_for_bit(b):
    # the bands ascend by offset, so A @ x adds each row's products in the
    # column order of a CSR product
    domain = Domain(0.5, 2.0, -1.0, 0.2)
    mesh = build_uniform_mesh(domain, 7, 5)
    data = ProblemData(mesh=mesh, exponent=exponent_on(domain, b),
                       xi=zero, u_D=zero)
    sm = assemble_matrix(data, SolverConfig())
    x = np.random.default_rng(31).normal(size=mesh.n_elements)
    assert np.array_equal(sm.matrix @ x, sparse_system(sm.matrix).tocsr() @ x)


def _product_vector(m):
    # a random x with an exact +0.0 and a -0.0 (only -0.0 where m = 1): a
    # row whose products are all zeros sums to +0.0 from DIA's zero start
    x = np.random.default_rng(32).normal(size=m)
    x[m // 2] = 0.0
    x[-1] = -0.0
    return x


# one element, one row, one column, the least grids with two and three rows,
# and two grids with all nine bands
@pytest.mark.parametrize("r", [0.0, 1.0, 1e4])
@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 2),
                                    (40, 25), (54, 54)])
def test_matrix_product_matches_dia_bit_for_bit(nx, ny, r):
    # A @ x adds the nine bands' products, each lower band read off its
    # upper one, in ascending offset order into a zero vector, as scipy's
    # DIA product of the same nine bands does: the same bits
    mesh = build_uniform_mesh(SQUARE, nx, ny)
    data = ProblemData(mesh=mesh, exponent=exponent_on(SQUARE, 0.5),
                       xi=zero, u_D=zero)
    sm = assemble_matrix(data, SolverConfig(r=r))
    x = _product_vector(mesh.n_elements)
    assert _same_bits(sm.matrix @ x, sparse_system(sm.matrix) @ x)
    zeros = np.zeros(mesh.n_elements)
    assert _same_bits(sm.matrix @ zeros, zeros)


# m = 49 rows on 7 x 7: 7 blocks of 7, 6 of 8 and one row more, 5 of 10
# and one row less; blocks narrower than the band at offset 2nx = 14
@pytest.mark.parametrize("block", [7, 8, 10])
def test_matrix_product_in_blocks_matches_dia(block, monkeypatch):
    monkeypatch.setattr(pxdg.solver, "FLUX_BLOCK", block)
    mesh = build_uniform_mesh(SQUARE, 7, 7)
    data = ProblemData(mesh=mesh, exponent=exponent_on(SQUARE, 0.5),
                       xi=zero, u_D=zero)
    sm = assemble_matrix(data, SolverConfig())
    x = _product_vector(mesh.n_elements)
    assert _same_bits(sm.matrix @ x, sparse_system(sm.matrix) @ x)


def test_matrix_product_rejects_a_vector_of_another_length():
    sm = assemble_matrix(problem_data(3), SolverConfig())
    for x in (np.ones(8), np.ones(10), np.ones((9, 1))):
        with pytest.raises(ValueError, match="A is 9 x 9"):
            sm.matrix @ x


def _sparse_dtd(n, h, area, r):
    # r |k| D^T D as scipy.sparse forms it, (sqrt(r |k|) D)^T (sqrt(r |k|) D):
    # the oracle of the bands; a product stores no zero, so its zeros are +0.0
    lift = np.sqrt(r * area) * axis_lifting(n, h)
    return lift.T @ lift


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h", [0.3, 1e-160])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 54])
def test_axis_operator_matches_sparse_product_bit_for_bit(n, h):
    # every entry of D^T D sums at most two products +-x * x, so the bands
    # round as the sparse product does, whatever jump the eigenpairs are
    # built with; r = 0 gives +0.0 everywhere. The eigenpairs decompose
    # r |k| D^T D + jump T, and its eigenvalues are the banded
    # eigensolver's to roundoff of its max
    kd = min(2, n - 1)
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    for r, jump in itertools.product((0.0, 0.37, 1.0, 1e4), (1.0, 0.731)):
        args = (n, h, h * h, r)
        bands, lam, q = pxdg.solver._axis_operator(*args, jump)
        dtd = _sparse_dtd(*args)
        assert sorted(bands) == list(range(kd + 1))
        for d, got in bands.items():
            assert _same_bits(got, dtd.diagonal(d)), (args, jump, d)
            if r == 0.0:
                assert not np.signbit(got).any() and not got.any()
        k = (dtd + jump * t).toarray()
        band = [np.pad(np.diagonal(k, d), (d, 0)) for d in range(kd, -1, -1)]
        size = np.abs(k).max()
        assert lam.shape == (n,) and q.shape == (n, n)
        assert np.abs(k @ q - q * lam).max() <= 1e-13 * size, args
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-13, args
        assert np.abs(lam - sla.eig_banded(band, eigvals_only=True)).max() \
            <= 1e-13 * size, args


def _edge_jumps(n):
    # the (n + 1) x n jump of a P0 field across the n + 1 edges of one axis,
    # boundary edges first and last
    return sp.diags([1.0, -1.0], [0, -1], shape=(n + 1, n), format="csr")


@pytest.mark.parametrize("r", [0.0, 1.0, 1e4])
@pytest.mark.parametrize("b", [0.0, 0.5])
@pytest.mark.parametrize("domain, nx, ny", [
    pytest.param(domain, nx, ny, id=name) for domain, nx, ny, name in
    MESHES + [(SQUARE, 40, 25, "40x25"), (SQUARE, 12, 12, "12x12")]])
def test_matrix_bands_match_sparse_oracle(domain, nx, ny, b, r):
    # A = |k| I + B_x^T B_x + B_y^T B_y + J_x^T C_x J_x + J_y^T C_y J_y, with
    # B_x = I (x) sqrt(r |k|) D_x and B_y = sqrt(r |k|) D_y (x) I from the
    # CSR of D, and C_x, C_y the edge weights on the jumps J_x, J_y across
    # the vertical and the horizontal edges. Every entry of A is the
    # oracle's to an ulp of max|A|
    mesh = build_uniform_mesh(domain, nx, ny)
    data = ProblemData(mesh=mesh, exponent=exponent_on(domain, b), xi=zero,
                       u_D=zero)
    cell = mesh.dx * mesh.dy
    ix, iy = sp.identity(nx), sp.identity(ny)
    bx = sp.kron(iy, np.sqrt(r * cell) * axis_lifting(nx, mesh.dx))
    by = sp.kron(np.sqrt(r * cell) * axis_lifting(ny, mesh.dy), ix)
    jx = sp.kron(iy, _edge_jumps(nx))
    jy = sp.kron(_edge_jumps(ny), ix)
    cx, cy = data.penalty_weights
    want = (cell * sp.identity(nx * ny) + bx.T @ bx + by.T @ by
            + jx.T @ sp.diags(cx.ravel()) @ jx
            + jy.T @ sp.diags(cy.ravel()) @ jy)
    got = sparse_system(assemble_matrix(data, SolverConfig(r=r)).matrix)
    assert np.abs(got.toarray() - want.toarray()).max() \
        <= np.spacing(abs(want).max())


@pytest.mark.parametrize("nx, ny", [(5, 3), (1, 1), (2, 1), (1, 4)])
def test_assembly_builds_only_the_dia_matrix(nx, ny):
    # A is stored as the upper half of its DIA bands alone: the diagonal
    # and the offsets 1, 2, nx and 2nx that the grid has, ascending and
    # merged where they coincide, each band indexed by column with its
    # first d entries unused and zero
    domain = Domain(0.5, 2.0, -1.0, 0.2)
    data = ProblemData(mesh=build_uniform_mesh(domain, nx, ny),
                       exponent=exponent_on(domain, 0.5), xi=zero, u_D=zero)
    a = assemble_matrix(data, SolverConfig()).matrix
    want = sorted({*range(min(2, nx - 1) + 1)}
                  | {d * nx for d in range(min(2, ny - 1) + 1)})
    assert list(a.offsets) == want
    assert a.bands.shape == (len(want), nx * ny) and a.bands.dtype == float
    for d, band in zip(a.offsets, a.bands):
        assert not band[:d].any()


@pytest.mark.parametrize("nx, ny", [(64, 64), (128, 96)])
def test_assemble_matrix_memory(nx, ny):
    # A is stored as its diagonal and upper bands and no other m x m
    # matrix is formed: assembly's traced peak stays under 24 m-vectors (a
    # Kronecker sum built in CSR takes ~57), and what assembly keeps beside
    # the preconditioner's arrays is A's five m-vectors and the plan of
    # its products (nine bands held as DIA took nine m-vectors, and CSR
    # adds an index to every value)
    data = manufactured_problem(0.5).discretize(nx, ny)
    data.penalty_weights  # cached on data; not assembly's own memory
    m = data.mesh.n_elements
    tracemalloc.start()
    try:
        sm = assemble_matrix(data, SolverConfig())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 8 * m
    assert sm.matrix.bands.shape == (5, m)
    kept -= sum(a.nbytes for a in {id(a): a for a in (
        sm.scale, sm.qx, sm.qy, sm.eigsum)}.values())
    assert kept <= 8 * 5 * m + 16384


@pytest.mark.parametrize("r", [0.0, 1.0, 1e4])
@pytest.mark.parametrize("b", [0.0, 0.5])
def test_preconditioner_matches_the_diagonal(b, r):
    # the preconditioner is the inverse of M = S^-1 K S^-1, K the Kronecker
    # sum at the mean edge weight and S = sqrt(diag K / diag A)
    domain = Domain(0.5, 2.0, -1.0, 0.2)
    mesh = build_uniform_mesh(domain, 7, 5)
    data = ProblemData(mesh=mesh, exponent=exponent_on(domain, b),
                       xi=zero, u_D=zero)
    sm = assemble_matrix(data, SolverConfig(r=r))
    qx, qy, eigsum = float64_transforms(data, r)
    q = np.kron(qy, qx) / sm.scale[:, None]
    m = q @ (eigsum.ravel()[:, None] * q.T)
    a = sparse_system(sm.matrix).toarray()
    assert np.abs(m - m.T).max() <= 1e-14 * np.abs(m).max()
    assert np.linalg.eigvalsh(m).min() > 0.0
    assert np.abs(np.diag(m) / np.diag(a) - 1.0).max() <= 1e-13
    if b == 0.0:
        assert np.abs(m - a).max() <= 1e-12 * np.abs(a).max()


OFFSET = Domain(0.5, 2.0, -1.0, 0.2)


@pytest.mark.parametrize("domain, nx, ny, sizes", [
    (SQUARE, 12, 12, [12]), (SQUARE, 1, 1, [1]),
    (OFFSET, 7, 5, [7, 5]), (SQUARE, 12, 6, [12, 6])])
@pytest.mark.parametrize("b", [0.0, 0.5])
def test_one_eigensolve_per_distinct_axis(domain, nx, ny, sizes, b,
                                          monkeypatch):
    # on a square grid the two axes are one, so one eigh serves both and
    # qx is qy, in float32 and in float64 alike
    sizes_seen = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes_seen.append(len(a))
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    data = ProblemData(mesh=build_uniform_mesh(domain, nx, ny),
                       exponent=exponent_on(domain, b), xi=zero, u_D=zero)
    sm = assemble_matrix(data, SolverConfig())
    assert sizes_seen == sizes
    square = len(sizes) == 1
    assert (sm.qx is sm.qy) == square


@pytest.mark.parametrize("domain, nx, ny", [
    (SQUARE, 1, 1), (SQUARE, 6, 6), (SQUARE, 31, 31), (SQUARE, 49, 49),
    (OFFSET, 7, 5)])
def test_preconditioner_applies_float64_where_m_is_a(domain, nx, ny):
    # at b = 0 every w |e| is 1 on any mesh: M = A, and the transforms are
    # the float64 eigenpairs themselves. At nx = 49 each w |e| rounds to
    # 1 - 2^-53 and their mean gamma to 1 - 2^-52, and float32 there would
    # break the one-iteration solves
    data = ProblemData(mesh=build_uniform_mesh(domain, nx, ny),
                       exponent=exponent_on(domain, 0.0), xi=zero, u_D=zero)
    sm = assemble_matrix(data, SolverConfig())
    for stored, want in zip((sm.qx, sm.qy, sm.eigsum),
                            float64_transforms(data, 1.0)):
        assert stored.dtype == np.float64 and _same_bits(stored, want)


@pytest.mark.parametrize("domain, nx, ny, b", [
    (SQUARE, 12, 12, 0.5), (OFFSET, 7, 5, 0.5), (SQUARE, 20, 20, 1e-6)])
def test_preconditioner_applies_float32_where_m_is_not_a(domain, nx, ny, b):
    # at b > 0 the edges depart from gamma, by ~1e-6 at b = 1e-6: the
    # transforms are stored as float32 roundings of the float64 eigenpairs,
    # and no float64 copy of them is kept
    data = ProblemData(mesh=build_uniform_mesh(domain, nx, ny),
                       exponent=exponent_on(domain, b), xi=zero, u_D=zero)
    sm = assemble_matrix(data, SolverConfig())
    for name, want in zip(("qx", "qy", "eigsum"),
                          float64_transforms(data, 1.0)):
        stored = getattr(sm, name)
        assert stored.dtype == np.float32, name
        assert np.array_equal(stored, want.astype(np.float32)), name
    res = np.random.default_rng(64).normal(size=data.mesh.n_elements)
    assert pxdg.solver._precondition(sm, res).dtype == np.float64


# counts over float32 transforms against float64 ones, at r far from 1, at
# b = 2 and near b = 0, and with the coupled algorithm
@pytest.mark.parametrize("b, nx, r, algorithm", [
    (0.5, 31, 0.1, 2), (0.5, 31, 10.0, 2), (2.0, 31, 1.0, 2),
    (1e-6, 20, 1.0, 2), (0.25, 31, 1.0, 1)])
def test_float32_transforms_keep_the_counts(b, nx, r, algorithm, monkeypatch):
    _, data = manufactured_data(b, nx)
    cfg = SolverConfig(r=r, algorithm=algorithm)
    assemble = pxdg.solver.assemble_matrix
    assert assemble(data, cfg).eigsum.dtype == np.float32
    got = run(data, cfg)

    def float64_applied(*args):
        qx, qy, eigsum = float64_transforms(data, cfg.r)
        return replace(assemble(*args), qx=qx, qy=qy, eigsum=eigsum)
    monkeypatch.setattr(pxdg.solver, "assemble_matrix", float64_applied)
    want = run(data, cfg)
    assert got.converged and want.converged
    assert got.iteration == want.iteration
    assert got.linear_iterations == want.linear_iterations
    size = np.abs(want.u.values).max()
    assert np.abs(got.u.values - want.u.values).max() <= 1e-10 * size


def _count_preconditioner_calls(monkeypatch):
    calls = []
    apply = pxdg.solver._precondition

    def counted(*args):
        calls.append(1)
        return apply(*args)
    monkeypatch.setattr(pxdg.solver, "_precondition", counted)
    return calls


@pytest.mark.parametrize("r", [0.0, 1.0, 1e4])
def test_solve_linear_meets_residual_test(r, monkeypatch):
    _, data = manufactured_data(0.5, 48)
    sm = assemble_matrix(data, SolverConfig(r=r))
    rhs = np.random.default_rng(62).normal(size=data.mesh.n_elements)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, _, _, _ = solve_linear(sm, rhs)
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(sm.matrix @ u - rhs).max() <= pxdg.solver.LINEAR_TOL * scale
    # a warm start at the solution returns it without an iteration
    calls = _count_preconditioner_calls(monkeypatch)
    assert np.array_equal(solve_linear(sm, rhs, u)[0], u)
    assert not calls


# at p = 2 the preconditioner is the inverse; at r = 1e4 the system's
# condition number (~1e6) puts the roundoff of that one exact step above
# LINEAR_TOL, and a second step refines it. On a rectangle each axis has
# its own eigenpairs, and |k| shifts their sums; at 40 x 25 the one step
# meets LINEAR_TOL at r = 1e4 as well
@pytest.mark.parametrize("r, iterations, domain, nx, ny", [
    pytest.param(r, iterations, domain, nx, ny, id=f"{r}-{iterations}{name}")
    for domain, nx, ny, name, big_r in [(SQUARE, 48, 48, "", 2),
                                        (OFFSET, 7, 5, "-7x5-offset", 2),
                                        (SQUARE, 40, 25, "-40x25", 1)]
    for r, iterations in [(0.0, 1), (1.0, 1), (1e4, big_r)]])
def test_solve_linear_is_exact_at_p2(r, iterations, domain, nx, ny,
                                     monkeypatch):
    data = ProblemData(mesh=build_uniform_mesh(domain, nx, ny),
                       exponent=exponent_on(domain, 0.0), xi=zero, u_D=zero)
    sm = assemble_matrix(data, SolverConfig(r=r))
    rhs = np.random.default_rng(63).normal(size=data.mesh.n_elements)
    calls = _count_preconditioner_calls(monkeypatch)
    u, _, _, _ = solve_linear(sm, rhs)
    assert len(calls) == iterations
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(sm.matrix @ u - rhs).max() <= pxdg.solver.LINEAR_TOL * scale


# at b = 0.5, nx = 54 the run needs 37 iterations over its 16 u-solves,
# which stop early while ||Bu - eta|| is large (the first at LINEAR_RATIO)
# and start from u extrapolated along its last increment. With a tight first
# solve it needed 44, and unrelaxed 43 over 27 (63 from the bare previous u,
# 157 if each went to LINEAR_TOL). At b = 2, nx = 31 it needs 66 over 39
# (75 with a tight first solve, unrelaxed 142 over 57, and 237 from the bare
# u). At b = 0 the preconditioner is the inverse: one iteration per u-solve
@pytest.mark.parametrize("b", [0.5, 0.0, 2.0])
def test_run_conjugate_gradient_iterations(b, monkeypatch):
    nx, bound = {0.5: (54, 50), 0.0: (54, None), 2.0: (31, 170)}[b]
    _, data = manufactured_data(b, nx)
    calls = _count_preconditioner_calls(monkeypatch)
    state = run(data, SolverConfig())
    assert state.converged
    assert state.linear_iterations == len(calls)
    assert len(calls) <= (bound if b > 0 else state.iteration)


def test_extrapolated_start():
    # theta = min(0.9, ||du_n|| / ||du_{n-1}||), and 0 where that ratio is
    # undefined: fewer than two records, or a zero earlier increment. The
    # products A u and A u_older extrapolate alike
    mesh = build_uniform_mesh(SQUARE, 2, 1)
    u, u_older = DgScalar(mesh, [1.0, 2.0]), DgScalar(mesh, [0.0, 4.0])
    au, au_older = np.array([3.0, -1.0]), np.array([1.0, 1.0])
    older = (u_older, au_older)

    def records(*increments):
        return [pxdg.solver.IterationRecord(n, du, 0.0, 0.0, 0.0)
                for n, du in enumerate(increments, 1)]
    start = pxdg.solver._extrapolated_start
    x0, ax0 = start(u, au, older, records(1.0, 0.5))
    assert np.array_equal(x0, [1.5, 1.0]) and np.array_equal(ax0, [4.0, -2.0])
    x0, ax0 = start(u, au, older, records(1.0, 2.0))
    assert np.allclose(x0, [1.9, 0.2], rtol=0.0, atol=1e-15)
    assert np.allclose(ax0, [4.8, -2.8], rtol=0.0, atol=1e-15)
    for history in (records(), records(0.5), records(0.0, 0.5)):
        x0, ax0 = start(u, au, None, history)
        assert x0 is u.values and ax0 is au


def _pcg_reference(matrix, rhs, u0=None):
    # the PCG loop with LINEAR_TOL fixed, which solve_linear at its default
    # rtol must reproduce bit for bit: the same operations in the same order
    a = matrix.matrix
    scale = float(np.abs(rhs).max(initial=0.0))
    x = np.zeros(len(rhs)) if u0 is None else np.array(u0, float)
    tol = pxdg.solver.LINEAR_TOL * max(1.0, scale) / scale
    res = (rhs - a @ x) / scale
    rz_old, direction = 1.0, np.zeros_like(x)
    while True:
        if np.abs(res).max() <= tol:
            res = (rhs - a @ x) / scale
            if np.abs(res).max() <= tol:
                return x
        z = pxdg.solver._precondition(matrix, res)
        rz = float(res @ z)
        direction = z + (rz / rz_old) * direction
        a_dir = a @ direction
        step = rz / float(direction @ a_dir)
        x += (scale * step) * direction
        res -= step * a_dir
        rz_old = rz


class _ProductSpy:
    # the u-system matrix, recording every vector it multiplies
    def __init__(self, matrix):
        self.matrix, self.seen = matrix, []

    def __matmul__(self, vector):
        self.seen.append(np.array(vector))
        return self.matrix @ vector


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_solve_linear_at_linear_tol_is_unchanged(b):
    _, data = manufactured_data(b, 32)
    sm = assemble_matrix(data, SolverConfig())
    rng = np.random.default_rng(66)
    rhs = rng.normal(size=data.mesh.n_elements)
    u0 = rng.normal(size=data.mesh.n_elements)
    for start in (None, u0):
        u, tight, iterations, au = solve_linear(sm, rhs, start)
        assert tight and iterations >= 1
        assert np.array_equal(u, _pcg_reference(sm, rhs, start))
        assert np.array_equal(
            solve_linear(sm, rhs, start, rtol=pxdg.solver.LINEAR_TOL)[0], u)


@pytest.mark.parametrize("rtol", [1e-3, 1e-6, 1e-9])
def test_solve_linear_loose_tolerance(rtol):
    # a looser rtol stops sooner, still on the true residual of the x it
    # returns, and says that this residual misses LINEAR_TOL
    _, data = manufactured_data(0.5, 48)
    sm = assemble_matrix(data, SolverConfig())
    rhs = 1e3 * np.random.default_rng(67).normal(size=data.mesh.n_elements)
    scale = np.abs(rhs).max()
    exact, tight, exact_iterations, _ = solve_linear(sm, rhs)
    assert tight
    spy = replace(sm, matrix=_ProductSpy(sm.matrix))
    u, tight, iterations, au = solve_linear(spy, rhs, rtol=rtol)
    assert np.array_equal(spy.matrix.seen[-1], u)
    err = np.abs(rhs - sm.matrix @ u).max()
    assert err <= rtol * scale
    assert not tight and err > pxdg.solver.LINEAR_TOL * scale
    assert 1 <= iterations < exact_iterations
    # a warm start that meets rtol comes back unchanged, with no iteration,
    # accepted on the one product formed at acceptance; without its own
    # product the start's is formed first
    for au0, products in ((au, 1), (None, 2)):
        spy.matrix.seen.clear()
        again, tight, iterations, ax = solve_linear(spy, rhs, u, rtol, au0)
        assert np.array_equal(again, u) and iterations == 0 and not tight
        assert len(spy.matrix.seen) == products
        assert _same_bits(ax, sm.matrix @ u)
    # a warm start that meets LINEAR_TOL is tight at any rtol
    assert solve_linear(sm, rhs, exact, rtol=rtol)[1:3] == (True, 0)


def test_run_stops_only_after_a_tight_solve(monkeypatch):
    # at LINEAR_RATIO = 0.2 the warm start can meet the loose tolerance,
    # and a u-solve returns it unchanged: the u-increment is 0 and the
    # stopping test passes after a loose solve (at iteration 17). The run
    # must go on with a tight solve.
    _, data = manufactured_data(0.5, 54)
    monkeypatch.setattr(pxdg.solver, "LINEAR_RATIO", 0.0)  # every solve tight
    exact = run(data, SolverConfig(tol_outer=1e-12))
    monkeypatch.setattr(pxdg.solver, "LINEAR_RATIO", 0.2)
    tight, passed = [], []
    solve, check = pxdg.solver.solve_linear, pxdg.solver.stopping_check

    def spied_solve(*args):
        out = solve(*args)
        tight.append(out[1])
        return out

    def spied_check(*args):
        passed.append(check(*args))
        return passed[-1]
    monkeypatch.setattr(pxdg.solver, "solve_linear", spied_solve)
    monkeypatch.setattr(pxdg.solver, "stopping_check", spied_check)
    state = run(data, SolverConfig())
    assert state.converged and tight[-1]
    assert len(tight) == len(passed) == state.iteration
    assert any(p and not t for p, t in zip(passed, tight))  # the trap
    # after every passed test on a loose solve, the next solve is tight
    for n in range(state.iteration - 1):
        if passed[n] and not tight[n]:
            assert tight[n + 1]
    dist = np.abs(state.u.values - exact.u.values).max()
    assert dist <= 1e-7 * np.abs(exact.u.values).max()


def test_solve_linear_scales_huge_data():
    # r.z of the unscaled rhs would overflow; the solve is scale-invariant
    _, data = manufactured_data(0.5, 12)
    sm = assemble_matrix(data, SolverConfig())
    rhs = np.random.default_rng(64).normal(size=data.mesh.n_elements)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge, _, _, _ = solve_linear(sm, 1e300 * rhs)
    assert np.allclose(huge / 1e300, solve_linear(sm, rhs)[0], rtol=0,
                       atol=1e-10)


def test_solve_linear_warns_on_a_miss(monkeypatch):
    _, data = manufactured_data(0.5, 12)
    sm = assemble_matrix(data, SolverConfig())
    rhs = np.random.default_rng(65).normal(size=data.mesh.n_elements)
    rhs[3] = np.nan
    with pytest.warns(RuntimeWarning, match="non-finite"):
        assert np.isnan(solve_linear(sm, rhs)[0]).all()
    monkeypatch.setattr(pxdg.solver, "MAX_LINEAR", 2)
    with pytest.warns(RuntimeWarning, match="after 2 iterations"):
        assert np.isfinite(solve_linear(sm, np.nan_to_num(rhs))[0]).all()


@pytest.mark.parametrize("part", ["eigsum", "matrix"])
def test_solve_linear_misses_on_a_non_positive_inner_product(part):
    # a non-positive entry of the eigenvalue sums that _precondition
    # applies makes M indefinite, so r.z can be negative; a negated A makes
    # d.Ad negative. Either is a miss, not a ZeroDivisionError or a step
    # along a direction of negative curvature
    _, data = manufactured_data(0.5, 6)
    sm = assemble_matrix(data, SolverConfig())
    if part == "eigsum":
        eigsum = sm.eigsum.copy()
        eigsum[0, 0] = -1e-8 * eigsum.min()
        sm = replace(sm, eigsum=eigsum)
    else:
        sm = replace(sm, matrix=-sparse_system(sm.matrix))
    rhs = np.random.default_rng(66).normal(size=data.mesh.n_elements)
    with pytest.warns(RuntimeWarning, match="non-positive inner product"):
        x, tight, iterations, ax = solve_linear(sm, rhs)
    assert np.isnan(x).all() and not tight and iterations == 1


def test_solve_linear_misses_on_a_stall():
    # at r = 1e12 on 3 x 3 the recursive residual falls to roundoff within
    # a few iterations while the true one stays near 1e-6: no new minimum
    # of max|res| follows, and the tight solve ends STALL iterations later
    # as a miss, not at MAX_LINEAR
    _, data = manufactured_data(0.5, 3)
    sm = assemble_matrix(data, SolverConfig(r=1e12))
    with pytest.warns(RuntimeWarning, match="no new minimum"):
        x, tight, iterations, ax = solve_linear(sm, data.load)
    assert np.isfinite(x).all() and not tight
    assert iterations < pxdg.solver.MAX_LINEAR


def test_solve_linear_from_a_given_start_product():
    # given A u0 as formed from u0, the solve is the one that forms it: x,
    # tight and iterations bit for bit, and the product it returns is A x
    _, data = manufactured_data(0.5, 32)
    sm = assemble_matrix(data, SolverConfig())
    rng = np.random.default_rng(72)
    rhs, u0 = rng.normal(size=(2, data.mesh.n_elements))
    for rtol in (pxdg.solver.LINEAR_TOL, 1e-3):
        want = solve_linear(sm, rhs, u0, rtol)
        got = solve_linear(sm, rhs, u0, rtol, sm.matrix @ u0)
        assert _same_bits(got[0], want[0]) and got[1:3] == want[1:3]
        assert want[2] >= 1
        for x, _, _, ax in (want, got):
            assert _same_bits(ax, sm.matrix @ x)
    # a start that meets the test costs the one product of its acceptance
    # given A u0, and one more without it: the start's, formed here
    exact = want[0]
    spy = replace(sm, matrix=_ProductSpy(sm.matrix))
    for au0, products in ((sm.matrix @ exact, 1), (None, 2)):
        spy.matrix.seen.clear()
        x, tight, iterations, ax = solve_linear(spy, rhs, exact, 1e-3, au0)
        assert _same_bits(x, exact) and iterations == 0
        assert len(spy.matrix.seen) == products
        assert _same_bits(ax, sm.matrix @ x)


def test_solve_linear_accepts_only_on_a_product_it_forms():
    # a wrong start product, one that says u0 solves or one off by noise,
    # cannot make a wrong x tight: acceptance forms A x afresh. A NaN one
    # is a miss, which returns a NaN product beside its NaN x
    _, data = manufactured_data(0.5, 32)
    sm = assemble_matrix(data, SolverConfig())
    rng = np.random.default_rng(73)
    m = data.mesh.n_elements
    rhs, u0 = rng.normal(size=(2, m))
    scale = max(1.0, np.abs(rhs).max())
    for au0 in (rhs.copy(), sm.matrix @ u0 + 1e-6 * rng.normal(size=m),
                sm.matrix @ u0 * (1.0 + 1e-9)):
        x, tight, iterations, ax = solve_linear(sm, rhs, u0, 1e-3, au0)
        assert iterations >= 1 and not _same_bits(x, u0)
        err = np.abs(rhs - sm.matrix @ x).max()
        assert err <= 1e-3 * scale
        assert tight == (err <= pxdg.solver.LINEAR_TOL * scale)
        assert _same_bits(ax, sm.matrix @ x)
    with pytest.warns(RuntimeWarning, match="non-finite"):
        x, tight, iterations, ax = solve_linear(
            sm, rhs, u0, 1e-3, np.full(m, np.nan))
    assert np.isnan(x).all() and np.isnan(ax).all() and not tight


def test_solve_linear_returns_the_product_of_x_on_every_exit(monkeypatch):
    # every exit returns the pair (x, A x), A x bit for bit as A @ x forms
    # it, or a NaN product beside a NaN x: never a missing one
    _, data = manufactured_data(0.5, 32)
    sm = assemble_matrix(data, SolverConfig())
    rhs = np.random.default_rng(74).normal(size=data.mesh.n_elements)
    exits = {"iterated": (sm, solve_linear(sm, rhs))}
    x, _, _, ax = exits["iterated"][1]
    exits["at n = 0"] = sm, solve_linear(sm, rhs, x, 1e-3, ax)
    exits["zero rhs"] = sm, solve_linear(sm, np.zeros_like(rhs))
    _, stiff = manufactured_data(0.5, 3)
    sm_stiff = assemble_matrix(stiff, SolverConfig(r=1e12))
    with pytest.warns(RuntimeWarning, match="no new minimum"):
        exits["stall"] = sm_stiff, solve_linear(sm_stiff, stiff.load)
    eigsum = sm.eigsum.copy()
    eigsum[0, 0] = -1e-8 * eigsum.min()
    with pytest.warns(RuntimeWarning, match="non-positive inner product"):
        x, tight, _, ax = solve_linear(replace(sm, eigsum=eigsum), rhs)
    assert np.isnan(x).all() and np.isnan(ax).all() and not tight
    monkeypatch.setattr(pxdg.solver, "MAX_LINEAR", 1)
    with pytest.warns(RuntimeWarning, match="after 1 iterations"):
        exits["MAX_LINEAR"] = sm, solve_linear(sm, rhs)
    for name, (a, (x, tight, iterations, ax)) in exits.items():
        assert np.isfinite(x).all() and _same_bits(ax, a.matrix @ x), name
        assert tight == (name in ("iterated", "at n = 0", "zero rhs")), name
    iterations = {name: out[2] for name, (_, out) in exits.items()}
    assert iterations["iterated"] >= 1 and iterations["at n = 0"] == 0
    assert iterations["MAX_LINEAR"] == 1 and iterations["stall"] >= 1


# A x products of a run: one per CG iteration and one per acceptance, and
# none for a start: the first u-solve starts from the zero pair, and every
# later one from the last accepted product, extrapolated as u is
@pytest.mark.parametrize("b, nx, algorithm, products", [
    (0.5, 54, Algorithm.UNCOUPLED, 53), (0.25, 31, Algorithm.COUPLED, 125)])
def test_run_matrix_products(b, nx, algorithm, products, monkeypatch):
    spies, starts = [], []
    assemble, solve = pxdg.solver.assemble_matrix, pxdg.solver.solve_linear

    def spied_assemble(*args):
        sm = assemble(*args)
        spies.append(_ProductSpy(sm.matrix))
        return replace(sm, matrix=spies[-1])

    def spied_solve(matrix, rhs, u0, rtol, au0):
        a = matrix.matrix.matrix  # the bare matrix, uncounted
        starts.append((np.array(u0), np.array(au0)))
        fresh = a @ u0
        assert np.abs(au0 - fresh).max() <= 1e-13 * np.abs(fresh).max()
        x, tight, iterations, ax = solve(matrix, rhs, u0, rtol, au0)
        assert _same_bits(ax, a @ x)
        return x, tight, iterations, ax
    monkeypatch.setattr(pxdg.solver, "assemble_matrix", spied_assemble)
    monkeypatch.setattr(pxdg.solver, "solve_linear", spied_solve)
    _, data = manufactured_data(b, nx)
    state = run(data, SolverConfig(algorithm=algorithm))
    assert state.converged
    # the first solve receives the zero pair, +0.0 in every entry
    zeros = np.zeros(data.mesh.n_elements)
    assert all(_same_bits(v, zeros) for v in starts[0])
    assert len(spies[-1].seen) == products


def scalar_root(p_bar, r, c):
    # the flux root x^{p_bar - 1} + r x = c of one entry
    return float(pxdg.solver._root_many(np.array([p_bar]), r,
                                        np.array([c]))[0][0])


def test_scalar_root_hand_values():
    # x + x = 3 and sqrt(x) + x = 2
    assert scalar_root(2.0, 1.0, 3.0) == pytest.approx(1.5, abs=1e-12)
    assert scalar_root(1.5, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert scalar_root(1.7, 3.0, 0.0) == 0.0


def test_scalar_root_domain_errors():
    for r in (0.0, -1.0):
        with pytest.raises(ValueError, match="requires r > 0"):
            scalar_root(1.5, r, 1.0)


def test_scalar_root_monotone_in_c():
    cs = np.linspace(0.0, 20.0, 50)
    xs, _, _ = pxdg.solver._root_many(np.full(cs.shape, 1.3), 0.7, cs)
    assert np.all(np.diff(xs) > 0.0)


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
    # still meet the residual test, silently and with no miss counted
    rng = np.random.default_rng(61)
    p_bar = rng.uniform(1.05, 2.0, 20_000)
    c = 10.0 ** rng.uniform(-8.0, 3.0, 20_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _, missed = pxdg.solver._root_many(p_bar, r, c)
    assert missed == 0
    assert np.all(_scaled_residual(p_bar, r, c, x) <= 1e-12)


@pytest.mark.parametrize("p_bar, r, c", [
    (1.2, 1.0, 1e-100),  # left point underflows to 0
    (1.01, 1.0, 1e-3),  # left point underflows; the root ~1e-300 does not
    (1.01, 1.0, 1.4e-3),  # left point subnormal: x^{p_bar - 2} = inf
    (1.05, 1e4, 1e-8),
    (1.5, 1.0, 0.0),
])
def test_root_many_is_finite_or_warns(p_bar, r, c):
    # a root that misses the test is counted, and the flux step warns of it
    x, _, missed = pxdg.solver._root_many(np.array([p_bar]), r, np.array([c]))
    assert np.isfinite(x[0]) and x[0] >= 0.0
    met = _scaled_residual(p_bar, r, c, x[0]) <= 1e-12
    assert met or missed == 1


@pytest.mark.parametrize("p_bar, r, c", [
    (1.01, 1.0, 1e-3),  # left point ~1e-330, root ~1e-300
    (1.01, 1.0, 1.4e-3),  # left point subnormal, root ~4e-286
    (1.01, 1e4, 5.0),  # left point ~1e-330 and c^{1/(p_bar - 1)} = inf
])
def test_root_many_recovers_normal_root_below_underflowing_left_point(
        p_bar, r, c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _, missed = pxdg.solver._root_many(np.array([p_bar]), r,
                                              np.array([c]))
    assert x[0] > 0.0 and missed == 0
    assert _scaled_residual(p_bar, r, c, x[0]) <= 1e-12


def _root_and_misses(p_bar, r, c):
    # the roots, and the misses the flux root solve counts, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _, missed = pxdg.solver._root_many(p_bar, r, c)
    return x, missed


@pytest.mark.parametrize("r", [1e-2, 1.0, 1e2])
def test_root_many_misses_only_the_underflowing_root(r):
    # the last entries are the start's edge cases (c = 0, a left point that
    # underflows or is subnormal) and p_bar = 1.001, c = 0.4, whose root
    # ~1e-398 underflows, so that it is the one miss counted
    rng = np.random.default_rng(68)
    p_bar = np.concatenate([rng.uniform(1.05, 2.0, 2000),
                            [2.0, 1.5, 1.2, 1.01, 1.01, 1.05, 1.001]])
    c = np.concatenate([10.0 ** rng.uniform(-8.0, 3.0, 2000),
                        [0.0, 0.0, 1e-100, 1e-3, 1.4e-3, 1e-8, 0.4]])
    x, missed = _root_and_misses(p_bar, r, c)
    assert missed == 1
    assert np.all(x >= 0.0)
    met = _scaled_residual(p_bar, r, c, x) <= 1e-12
    assert np.flatnonzero(~met).tolist() == [c.size - 1]


def _flux_step(bu, lam, p_bar):
    # eta, the Newton passes and the warnings of one flux step
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eta, passes = pxdg.solver._eta_from(bu, lam, p_bar, 1.0)
    return eta, passes, [str(w.message) for w in caught]


def test_flux_step_in_blocks_matches_one_block(monkeypatch):
    # m spans three blocks and a ragged tail; s = lam + r bu is zero in
    # block 1 and in the tail, and its root underflows (p_bar = 1.001,
    # |s| = 0.4) in blocks 0 and 2. Against the step over all rows in one
    # block: eta to 1e-15 of each |eta_k|, the same Newton passes and one
    # warning with the misses of all blocks
    block = pxdg.solver.FLUX_BLOCK
    m = 3 * block + 123
    rng = np.random.default_rng(74)
    bu, lam = rng.normal(size=(2, m, 2))
    p_bar = rng.uniform(1.05, 2.0, m)
    bu[[block + 7, m - 1]] = lam[[block + 7, m - 1]] = 0.0
    for k in (17, 2 * block + 3):
        bu[k], lam[k], p_bar[k] = 0.0, (0.4, 0.0), 1.001
    eta, passes, caught = _flux_step(bu, lam, p_bar)
    monkeypatch.setattr(pxdg.solver, "FLUX_BLOCK", m)
    want, want_passes, want_caught = _flux_step(bu, lam, p_bar)
    size = np.hypot(*want.T)[:, None]
    assert np.all(np.abs(eta - want) <= 1e-15 * size)
    assert not eta[[block + 7, m - 1, 17, 2 * block + 3]].any()
    assert passes == want_passes > 1
    assert caught == want_caught == [
        f"flux root solve: 2 of {m} entries missed the residual test"]


def test_flux_step_memory():
    # the root's work arrays are a block's: at m = 160,000 (nx = 400) the
    # traced peak above eta's own m x 2 array stays under 10 block-length
    # vectors; one block over all rows takes ~9 m-vectors
    m = 160_000
    rng = np.random.default_rng(75)
    bu, lam = rng.normal(size=(2, m, 2))
    p_bar = rng.uniform(1.05, 2.0, m)
    tracemalloc.start()
    try:
        eta, _ = pxdg.solver._eta_from(bu, lam, p_bar, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - eta.nbytes <= 10 * 8 * pxdg.solver.FLUX_BLOCK


def test_run_counts_flux_passes():
    # every root starts cold: 4 Newton passes per flux step at b = 0.5, and
    # at b = 0, where p = 2 makes the start the root, 1
    for b, passes in ((0.5, 4), (0.0, 1)):
        _, data = manufactured_data(b, 54)
        state = run(data, SolverConfig())
        assert state.converged
        assert state.flux_passes == passes * state.iteration


def test_eta_update_zero():
    data = problem_data(3, b=0.25)
    m = data.mesh.n_elements
    eta, _ = pxdg.solver._eta_from(np.zeros((m, 2)), np.zeros((m, 2)),
                                   data.p_bar, 1.0)
    assert np.allclose(eta, 0.0)


def test_eta_update_hand_value():
    # single element: Bu = 0, p = 2, r = 1: 2 eta = lam
    data = problem_data(1)
    u = DgScalar(data.mesh, [0.0])
    lam = DgVector(data.mesh, [[3.0, 4.0]])
    eta, _ = pxdg.solver._eta_from(lifting(u).values, lam.values,
                                   data.p_bar, 1.0)
    assert np.allclose(eta[0], [1.5, 2.0], rtol=1e-12)
    assert np.hypot(*eta[0]) == pytest.approx(
        scalar_root(2.0, 1.0, 5.0), rel=1e-12)


def test_eta_update_parallel_with_resolvent_magnitude():
    data = problem_data(4, b=0.5)
    cfg = SolverConfig(r=1.0)
    mesh = data.mesh
    rng = np.random.default_rng(26)
    u = DgScalar(mesh, rng.normal(size=mesh.n_elements))
    lam = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    eta, _ = pxdg.solver._eta_from(lifting(u).values, lam.values,
                                   data.p_bar, cfg.r)
    s = lam.values + cfg.r * bu_of(u.values, mesh)
    p_bar = data.p_bar
    for k in range(mesh.n_elements):
        c = float(np.hypot(*s[k]))
        cross = s[k, 0] * eta[k, 1] - s[k, 1] * eta[k, 0]
        assert abs(cross) <= 1e-12 * max(1.0, c)
        assert np.hypot(*eta[k]) == pytest.approx(
            scalar_root(float(p_bar[k]), cfg.r, c), abs=1e-10 * max(1.0, c))


def test_eta_update_takes_hypot_where_the_square_leaves_the_normal_range():
    # |s|^2 overflows at |s| ~ 1e200 and is subnormal at ~1e-200, where
    # sqrt(s . s) would be inf or inexact: those entries take np.hypot's |s|,
    # and their flux is bit for bit the one computed with it
    data = problem_data(2, b=0.5)
    cfg = SolverConfig(r=1.0)
    mesh = data.mesh
    lam = DgVector(mesh, [[1e200, 1e200], [3e200, -4e200], [3.0, 4.0],
                          [1e-200, 2e-200]])
    eta, _ = pxdg.solver._eta_from(np.zeros((4, 2)), lam.values,
                                   data.p_bar, cfg.r)
    c = np.hypot(lam.values[:, 0], lam.values[:, 1])
    want = lam.values * (
        pxdg.solver._root_many(data.p_bar, cfg.r, c)[0] / c)[:, None]
    assert np.isfinite(eta).all()
    assert _same_bits(eta[[0, 1, 3]], want[[0, 1, 3]])
    assert np.allclose(eta[2], want[2], rtol=1e-15, atol=0)


def test_eta_update_satisfies_flux_equation():
    # |eta|^{p-2} eta + r (eta - Bu) = lam, elementwise, including r != 1
    data = problem_data(5, b=0.5)
    cfg = SolverConfig(r=2.0)
    mesh = data.mesh
    rng = np.random.default_rng(27)
    u = DgScalar(mesh, rng.normal(size=mesh.n_elements))
    lam = DgVector(mesh, rng.normal(size=(mesh.n_elements, 2)))
    eta, _ = pxdg.solver._eta_from(lifting(u).values, lam.values,
                                   data.p_bar, cfg.r)
    bu = bu_of(u.values, mesh)
    p_bar = data.p_bar
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_stops_at_non_finite_u_increment(monkeypatch):
    # the run ends unconverged at the first non-finite u-increment
    # instead of spinning to max_outer: here a u-solve returns an infinite
    # entry (l2_norm scales out the overflow of a finite u's square, so
    # huge data alone cannot make the increment inf)
    solve = pxdg.solver.solve_linear

    def blown_up(*args):
        x, tight, iterations, ax = solve(*args)
        x[0] = np.inf
        return x, tight, iterations, ax
    monkeypatch.setattr(pxdg.solver, "solve_linear", blown_up)
    _, data = manufactured_data(0.5, 4)
    state = run(data, SolverConfig())
    assert state.iteration == 1
    assert state.converged is False
    assert state.residual_u == np.inf


@pytest.mark.parametrize("algorithm", list(Algorithm))
@pytest.mark.parametrize("name", ["_eta_from", "eval_Jh"])
def test_run_stops_at_non_finite_flux_or_energy(name, algorithm, monkeypatch):
    # a NaN flux makes ||Bu - eta|| NaN, and a NaN energy is J_h's: either
    # ends the run unconverged before the next u-solve, so u stays finite
    # and solve_linear never sees a NaN right-hand side
    nan = {"_eta_from": lambda bu, *args: (np.full_like(bu, np.nan), 0),
           "eval_Jh": lambda *args: np.nan}
    monkeypatch.setattr(pxdg.solver, name, nan[name])
    _, data = manufactured_data(0.5, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = run(data, SolverConfig(algorithm=algorithm))
    assert state.iteration == 1 and state.converged is False
    assert np.isfinite(state.u.values).all() and np.any(state.u.values)


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_run_stops_at_non_finite_multiplier(algorithm, monkeypatch):
    # an infinite multiplier with u and eta finite makes ||lam - lam_prev||
    # inf: the run ends unconverged at that iteration, before the next
    # u-solve reads r eta - lam
    step, calls = pxdg.solver.lambda_update, []

    def inf_at_third(lam, gap, cfg):
        calls.append(1)
        out = step(lam, gap, cfg)
        return out if len(calls) < 3 else replace(
            out, values=np.full_like(out.values, np.inf))
    monkeypatch.setattr(pxdg.solver, "lambda_update", inf_at_third)
    _, data = manufactured_data(0.5, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = run(data, SolverConfig(algorithm=algorithm))
    assert state.iteration == 3 and state.converged is False
    assert state.residual_lambda == np.inf
    assert np.isfinite(state.residual_u) and np.isfinite(state.energy)
    assert np.isfinite(state.u.values).all()
    assert np.isfinite(state.eta.values).all()


@pytest.mark.parametrize("p, point", [
    (lambda x, y: np.full_like(x, 1.0), "exponent 1 at (-1, -0.75),"),
    (lambda x, y: np.full_like(x, 3.0), "exponent 3 at (-1, -0.75),"),
    (lambda x, y: np.where(np.hypot(x - 0.25, y - 0.25) < 0.1, np.nan, 1.8),
     "exponent nan at (0.25, 0.25),"),
    (lambda x, y: np.where((x > 0) & (y > 0), np.nan, 1.8),
     "exponent nan at (0.5, 0.25),"),
    (lambda x, y: np.where(x == 0.0, 1.01, 1.8),
     "exponent 1.01 at (0, -0.75),"),
], ids=["p=1", "p=3", "nan", "nan-quarter", "x=0"])
def test_run_rejects_exponent_outside_its_bounds(p, point):
    # the declared 1.5 <= p <= 2 is checked, not trusted: at p = 1 the flux
    # root divides by zero, and for p > 2 its monotone Newton is invalid.
    # Every sample is checked: a constant p fails first at the midpoint of
    # the bottom row's left boundary edge, the first entry of the vertical
    # edge grid and the system matrix's first read. The NaN sits at the
    # barycenter (0.25, 0.25) of element 10 alone, away from every edge
    # midpoint; p = 1.01 on the grid line x = 0 meets edge midpoints only.
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    data = ProblemData(mesh=mesh, exponent=ExponentField(p, p1=1.5, p2=2.0),
                       xi=lambda x, y: np.asarray(x, float) + y, u_D=zero)
    with pytest.raises(ValueError, match=re.escape(point)):
        run(data, SolverConfig())


def test_run_rejects_nonpositive_r():
    _, data = manufactured_data(0.0, 4)
    with pytest.raises(ValueError, match="requires r > 0"):
        run(data, SolverConfig(r=0.0))


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
    eta, _ = pxdg.solver._eta_from(lifting(state.u).values,
                                   state.lam.values, data.p_bar, cfg.r)
    assert l2_norm(DgVector(mesh, eta - state.eta.values)) <= 1e-7
    # constraint
    gap = bu_of(state.u.values, mesh) - state.eta.values
    assert float(np.sqrt((mesh.dx * mesh.dy * gap**2).sum())) <= \
        1e-7 * max(1.0, l2_norm(state.eta))


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_solution_is_saddle_point_of_lagrangian(b):
    _, data = manufactured_data(b, 6)
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
        # the reported objective is the one run minimizes: stationary at u
        deriv = (eval_Jh(up, data) - eval_Jh(dn, data)) / (2 * eps)
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


def test_coupled_inner_sweeps_follow_the_constraint_residual(monkeypatch):
    # the first outer iteration makes one sweep (the residual starts at
    # inf); later ones stop at INNER_RATIO times the previous ||Bu - eta||
    sweeps = []
    solve, update = pxdg.solver.solve_linear, pxdg.solver.lambda_update

    def counted_solve(*args):
        sweeps[-1] += 1
        return solve(*args)

    def counted_update(*args):
        sweeps.append(0)
        return update(*args)
    monkeypatch.setattr(pxdg.solver, "solve_linear", counted_solve)
    monkeypatch.setattr(pxdg.solver, "lambda_update", counted_update)
    _, data = manufactured_data(0.5, 16)
    sweeps.append(0)
    state = run(data, SolverConfig(algorithm=Algorithm.COUPLED))
    assert state.converged and state.inner_converged
    per_outer = sweeps[:-1]
    assert len(per_outer) == state.iteration
    assert per_outer[0] == 1
    assert max(per_outer) <= 4  # exact inner sweeps take up to 25 here


def _spy_sweeps(monkeypatch, zero_rhs_once=False):
    # events of a run in order: ("solve", iterations, rhs nonzero,
    # returned its start), ("flux",) and ("lambda",); with zero_rhs_once,
    # the first later sweep of an outer iteration gets a zero rhs
    events, zeroed = [], []
    solve, flux, update, rhs_of = (
        pxdg.solver.solve_linear, pxdg.solver._eta_from,
        pxdg.solver.lambda_update, pxdg.solver.assemble_rhs)

    def spied_rhs(*args):
        rhs = rhs_of(*args)
        if zero_rhs_once and events[-1:] == [("flux",)] and not zeroed:
            zeroed.append(rhs)
            rhs = np.zeros_like(rhs)
        return rhs

    def spied_solve(matrix, rhs, u0, rtol, au0):
        x, tight, iterations, ax = solve(matrix, rhs, u0, rtol, au0)
        events.append(("solve", iterations, bool(rhs.any()),
                       _same_bits(x, u0)))
        return x, tight, iterations, ax

    def spied(name, fn):
        def call(*args):
            events.append((name,))
            return fn(*args)
        return call
    monkeypatch.setattr(pxdg.solver, "assemble_rhs", spied_rhs)
    monkeypatch.setattr(pxdg.solver, "solve_linear", spied_solve)
    monkeypatch.setattr(pxdg.solver, "_eta_from", spied("flux", flux))
    monkeypatch.setattr(pxdg.solver, "lambda_update", spied("lambda", update))
    return events


def _later_sweeps(events):
    # (solve event, next event) for the second and later sweeps of each
    # outer iteration
    return [(e, after) for before, e, after in zip(events, events[1:],
                                                   events[2:])
            if e[0] == "solve" and before == ("flux",)]


def test_coupled_sweeps_end_on_a_solve_that_returns_its_start(monkeypatch):
    # a later sweep's u-solve that returns its start unchanged, 0
    # iterations from a nonzero rhs, ends the sweeps before a flux step,
    # which would rebuild eta bit for bit; every other sweep has its step
    events = _spy_sweeps(monkeypatch)
    _, data = manufactured_data(0.25, 31)
    state = run(data, SolverConfig(algorithm=Algorithm.COUPLED))
    assert state.converged and state.inner_converged
    no_op = 0
    for (_, iterations, nonzero, same), after in _later_sweeps(events):
        assert same == (iterations == 0 and nonzero)
        assert after == (("lambda",) if same else ("flux",))
        no_op += same
    assert no_op > 0
    assert events.count(("lambda",)) == state.iteration

    # the run is the one whose no-op sweeps keep their flux step: u, eta,
    # lam and the history bit for bit
    def counted_once(matrix, rhs, u0, rtol, au0):
        x, tight, iterations, ax = solve_linear(matrix, rhs, u0, rtol, au0)
        return x, tight, max(iterations, 1), ax
    monkeypatch.setattr(pxdg.solver, "solve_linear", counted_once)
    want = run(data, SolverConfig(algorithm=Algorithm.COUPLED))
    for name in ("u", "eta", "lam"):
        assert _same_bits(getattr(state, name).values,
                          getattr(want, name).values), name
    assert state.history == want.history
    assert state.flux_passes < want.flux_passes


def test_coupled_sweep_with_a_zero_rhs_keeps_its_flux_step(monkeypatch):
    # a zero rhs returns zeros after 0 iterations, not the start: u moves,
    # and the flux step follows
    events = _spy_sweeps(monkeypatch, zero_rhs_once=True)
    _, data = manufactured_data(0.25, 31)
    run(data, SolverConfig(algorithm=Algorithm.COUPLED, max_outer=4))
    zero = [(e, after) for e, after in _later_sweeps(events) if not e[2]]
    assert len(zero) == 1
    (_, iterations, _, same), after = zero[0]
    assert iterations == 0 and not same and after == ("flux",)


def test_run_dispatches_on_algorithm(monkeypatch):
    # both algorithms run through the same step functions; only the
    # coupled one repeats the u-solve and flux recovery per multiplier step
    calls = {}
    for name in ("solve_linear", "_eta_from", "lambda_update"):
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
        assert calls["_eta_from"] == calls["solve_linear"]
        if algorithm == Algorithm.COUPLED:
            assert calls["solve_linear"] > state.iteration
        else:
            assert calls["solve_linear"] == state.iteration


# the paper's steps: RELAX = 1.0 makes the uncoupled algorithm at rho = r
# the unrelaxed iteration, so these pins predate the relaxed step
@pytest.mark.parametrize("b, nx, algorithm, iterations, l2, jh", [
    (0.5, 10, Algorithm.UNCOUPLED, 22, 1.0028175693037031, 50.19428811669475),
    (0.25, 8, Algorithm.COUPLED, 20, 0.9506124493466878, 32.98384732928439),
    (0.0, 6, Algorithm.UNCOUPLED, 2, 0.9241147661433949, 20.983263168451302),
])
def test_run_pinned_outputs(b, nx, algorithm, iterations, l2, jh, monkeypatch):
    monkeypatch.setattr(pxdg.solver, "RELAX", 1.0)
    prob, data = manufactured_data(b, nx)
    state = run(data, SolverConfig(algorithm=algorithm))
    assert state.converged
    assert state.iteration == iterations
    assert l2_error(state.u, prob) == pytest.approx(l2, rel=1e-12)
    assert state.energy == pytest.approx(jh, rel=1e-12)


# the two small residuals are a cancellation: Bu - eta of two fluxes of norm
# ~5 keeps only the ~1e-13 absolute accuracy of u-solves at LINEAR_TOL, so
# their pins hold them to ~5e-13 absolute rather than 1e-12 relative
@pytest.mark.parametrize("b, nx, algorithm, residual, rel", [
    (0.5, 10, Algorithm.UNCOUPLED, 7.446461202241775e-08, 6e-6),
    (0.25, 8, Algorithm.COUPLED, 1.2847988978913485e-07, 3e-6),
    (0.0, 6, Algorithm.UNCOUPLED, 0.8926130402601007, 1e-12),
])
def test_run_pinned_residuals(b, nx, algorithm, residual, rel, monkeypatch):
    # unrelaxed, the multiplier moves by rho (Bu - eta), and at rho = r = 1
    # both residuals take one value
    monkeypatch.setattr(pxdg.solver, "RELAX", 1.0)
    _, data = manufactured_data(b, nx)
    state = run(data, SolverConfig(algorithm=algorithm))
    assert state.residual_constraint == pytest.approx(residual, rel=rel, abs=0)
    assert state.residual_lambda == pytest.approx(residual, rel=rel, abs=0)


# the default uncoupled run at rho = r, over-relaxed by RELAX = 1.5: b = 0.5
# takes 13 iterations where the unrelaxed one takes 22, and b = 0 still
# stops at iteration 2. The multiplier moves by rho (h - eta), with
# h = RELAX Bu + (1 - RELAX) eta_prev, so residual_lambda = rho ||h - eta||
# is pinned apart from ||Bu - eta||. The b = 0.5 residuals are cancellations
# held to ~5e-13 absolute, as above
@pytest.mark.parametrize(
    "b, nx, iterations, l2, jh, constraint, rel_c, lam, rel_l", [
        (0.5, 10, 13, 1.0028175642460724, 50.19428811669475,
         2.7369532929481244e-09, 2e-4, 1.3623397852103101e-08, 4e-5),
        (0.0, 6, 2, 0.9241147661433953, 20.98326316845131,
         0.22315326006502512, 1e-12, 0.6694597801950755, 1e-12),
    ])
def test_run_pinned_relaxed(b, nx, iterations, l2, jh, constraint, rel_c,
                            lam, rel_l):
    assert pxdg.solver.RELAX == 1.5
    prob, data = manufactured_data(b, nx)
    state = run(data, SolverConfig())
    assert state.converged
    assert state.iteration == iterations
    assert l2_error(state.u, prob) == pytest.approx(l2, rel=1e-12)
    assert state.energy == pytest.approx(jh, rel=1e-12)
    assert state.residual_constraint == pytest.approx(constraint, rel=rel_c,
                                                      abs=0)
    assert state.residual_lambda == pytest.approx(lam, rel=rel_l, abs=0)


def _run_at_relax(data, cfg, relax, monkeypatch):
    monkeypatch.setattr(pxdg.solver, "RELAX", relax)
    return run(data, cfg)


def _same_run(a, b):
    return (a.iteration == b.iteration and a.history == b.history
            and all(np.array_equal(x.values, y.values) for x, y in
                    ((a.u, b.u), (a.eta, b.eta), (a.lam, b.lam))))


@pytest.mark.parametrize("algorithm, rho", [
    (Algorithm.COUPLED, None), (Algorithm.COUPLED, 1.5),
    (Algorithm.UNCOUPLED, 0.8), (Algorithm.UNCOUPLED, 1.6),
])
def test_relaxation_only_at_uncoupled_rho_equal_r(algorithm, rho, monkeypatch):
    # the coupled algorithm and a user-given rho != r take the paper's step,
    # whatever RELAX is
    _, data = manufactured_data(0.5, 10)
    cfg = SolverConfig(rho=rho, algorithm=algorithm)
    relaxed = _run_at_relax(data, cfg, 1.5, monkeypatch)
    plain = _run_at_relax(data, cfg, 1.0, monkeypatch)
    assert relaxed.converged and _same_run(relaxed, plain)


def test_relaxed_run_reaches_the_unrelaxed_solution(monkeypatch):
    _, data = manufactured_data(0.5, 31)
    relaxed = _run_at_relax(data, SolverConfig(), 1.5, monkeypatch)
    plain = _run_at_relax(data, SolverConfig(), 1.0, monkeypatch)
    assert relaxed.converged and plain.converged
    assert (relaxed.iteration, plain.iteration) == (14, 25)
    dist = np.abs(relaxed.u.values - plain.u.values).max()
    assert dist <= 1e-7 * np.abs(plain.u.values).max()


@pytest.mark.parametrize("r", [0.1, 10.0])
@pytest.mark.parametrize("ratio", [1.0, 0.8, 1.6])
def test_run_converges_across_r_and_rho(r, ratio):
    # relaxed at rho = r, unrelaxed at 0.8 r and 1.6 r, all to the solution
    # found at r = 1 with both residuals at 1e-12
    _, data = manufactured_data(0.5, 16)
    exact = run(data, SolverConfig(tol_outer=1e-12, require_constraint=True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = run(data, SolverConfig(r=r, rho=ratio * r))
    assert state.converged
    dist = np.abs(state.u.values - exact.u.values).max()
    assert dist <= 1e-6 * np.abs(exact.u.values).max()


def test_run_lifts_u_once_per_sweep(monkeypatch):
    # each u-solve is lifted once for the flux step, the multiplier step,
    # the constraint residual and the energy
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
        assert calls["lifting"] == calls["solve_linear"]
        if algorithm == Algorithm.UNCOUPLED:
            assert calls["lifting"] == state.iteration


def test_quadratic_case_matches_direct_solve_for_any_r():
    # at p = 2 the objective is quadratic; its normal equations are the
    # r = 1 system, so the iteration must land there from any penalty r
    prob, data = manufactured_data(0.0, 6)
    state = run(data, SolverConfig(
        r=2.0, tol_outer=1e-10, require_constraint=True))
    assert state.converged
    cfg_ref = SolverConfig(r=1.0)
    direct, _, _, _ = solve_linear(
        assemble_matrix(data, cfg_ref),
        assemble_rhs(zero_state(data.mesh), data, cfg_ref))
    diff = l2_norm(DgScalar(data.mesh, state.u.values - direct))
    assert diff <= 1e-7


def test_step_size_guard_uncoupled():
    _, data = manufactured_data(0.0, 3)
    cfg = SolverConfig(r=1.0, rho=2.0)  # above r (1 + sqrt 5) / 2
    with pytest.warns(StepSizeWarning):
        with pytest.raises(ValueError):
            run(data, cfg)


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
    for value in (0, 2.5, float("nan"), True):  # True was one iteration
        with pytest.raises(ValueError):
            SolverConfig(max_outer=value)
    # below the u-solves' resolution the u-increment drops to 0 once the
    # warm start meets LINEAR_TOL, so the stopping test would pass trivially
    for value in (1e-300, 0.5 * pxdg.solver.LINEAR_TOL):
        with pytest.raises(ValueError, match="LINEAR_TOL"):
            SolverConfig(tol_outer=value)
    assert SolverConfig(tol_outer=1e-12).tol_outer == pxdg.solver.LINEAR_TOL
    cfg = SolverConfig(r=2.0)
    assert cfg.effective_rho == 2.0
    assert SolverConfig(r=2.0, rho=0.5).effective_rho == 0.5
    # the algorithm is stored as an Algorithm; any other number is an error
    assert SolverConfig(algorithm=1).algorithm is Algorithm.COUPLED
    with pytest.raises(ValueError):
        SolverConfig(algorithm=3)


def test_run_on_a_tiny_domain():
    # r |k| D^T D is O(1) at any cell size, though D^T D alone overflows on
    # a domain of side 1e-160
    domain = Domain(0.0, 1e-160, 0.0, 1e-160)
    one = lambda x, y: np.ones_like(np.asarray(x, float))
    data = ProblemData(
        mesh=build_uniform_mesh(domain, 4, 4),
        exponent=ExponentField(lambda x, y: np.full_like(x, 2.0), 2.0, 2.0),
        xi=one, u_D=one)
    state = run(data, SolverConfig())
    assert state.converged and state.iteration == 1
    assert np.allclose(state.u.values, 1.0, rtol=1e-12, atol=0)


def test_scalar_valued_exponent_and_data():
    # p, xi and u_D may return one number for all points, as a constant
    # function written without numpy does; it stands for every point, and
    # p_bar is still one exponent per element
    mesh = build_uniform_mesh(SQUARE, 4, 3)

    def solve(p, xi, u_D):
        data = ProblemData(mesh=mesh, exponent=ExponentField(p, 1.5, 1.5),
                           xi=xi, u_D=u_D)
        assert data.p_bar.shape == (mesh.n_elements,)
        state = run(data, SolverConfig())
        assert state.converged
        return state.u.values

    scalar = solve(lambda x, y: 1.5, lambda x, y: 0.5, lambda x, y: 1.0)
    full = solve(lambda x, y: np.full_like(x, 1.5),
                 lambda x, y: np.full_like(x, 0.5),
                 lambda x, y: np.ones_like(x))
    assert np.ptp(full) > 0.01
    assert np.array_equal(scalar, full)
