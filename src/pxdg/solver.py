"""Augmented-Lagrangian decomposition-coordination iterations.

Both algorithms alternate a linear SPD solve for u, a per-element scalar
root solve recovering the auxiliary flux eta, and a multiplier update
lam <- lam + rho (Bu - eta). The uncoupled variant performs one u-solve and
one eta-update per multiplier step; the coupled variant iterates the pair
toward a joint minimum of the augmented Lagrangian before each multiplier
step, to an accuracy that tightens with the constraint residual.
`run` drives both through the same step functions.

The uncoupled variant is ADMM on the constraint Bu = eta, and at rho = r
it is over-relaxed: its flux and multiplier steps read h = RELAX Bu +
(1 - RELAX) eta_prev in place of Bu, RELAX = 1.5 (Eckstein and Bertsekas
1992; Boyd et al. 2011, sec. 3.4.3). That reaches the same saddle point in
20 outer iterations where the paper's step takes 31 (b = 0.5, nx = 400).
The coupled variant and a rho other than r keep the paper's step, for which
alone Glowinski's bounds on rho are proved.

The u-system matrix A = |k| I + r |k| B^T B + the edge penalties w |e|
on the squared jumps is fixed for a run. It is symmetric, stored as its
diagonal and four upper bands written from those coefficients, and A @ x
reads each lower band off its upper one. No factor is formed, so memory
stays O(m + nx^2 + ny^2), and numpy is the one dependency. Conjugate
gradients solve it, preconditioned with M = S^-1 K S^-1. K is A with
every edge penalty at its mean gamma, the Kronecker sum of two 1-D
operators, kept for the preconditioner alone: fast diagonalization
inverts it exactly (Lynch, Rice and Thomas 1964; Concus and Golub 1973),
and the scaling S = sqrt(diag K / diag A) makes diag M = diag A. At
p = 2, M = A. Where the edges depart from gamma, M only approximates A,
and the preconditioner applies its transforms in float32
(mixed-precision preconditioning, Higham and Mary 2022); where they do
not, beyond float32's resolution, M = A and the transforms stay float64,
so that one iteration still solves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from .dg import (DgScalar, DgVector, _magnitude, _stencil, l2_norm, lifting,
                 lifting_adjoint)
from .energy import ProblemData, eval_Jh

__all__ = [
    "Algorithm",
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "StepSizeWarning",
    "SystemMatrix",
    "assemble_matrix",
    "assemble_rhs",
    "solve_linear",
    "lambda_update",
    "stopping_check",
    "run",
]

GOLDEN = 0.5 * (1.0 + np.sqrt(5.0))
LINEAR_TOL = 1e-12  # solve_linear stops at max|res| <= this * max(1, max|rhs|)
MAX_LINEAR = 1000  # solve_linear: conjugate-gradient iterations per solve
STALL = 50  # ... and iterations without a new minimum of max|res|
TOL_INNER = 1e-10  # coupled algorithm: eta increment ending the inner sweeps
INNER_RATIO = 1e-2  # ... or this share of the previous outer ||Bu - eta||
LINEAR_RATIO = 1e-3  # u-solves in run: this share of ||Bu - eta|| / ||eta||
RELAX = 1.5  # uncoupled algorithm at rho = r: over-relaxation of Bu (see run)
MAX_INNER = 200  # coupled algorithm: inner sweeps per multiplier step
MAX_NEWTON = 200  # flux root: Newton passes per call
FLUX_BLOCK = 16384  # rows per block of the flux step's root solves and of
# A @ x (see _eta_from, _SymmetricBands); at nx = 400 both ran slower at
# 4,096-8,192 rows, the flux step fastest at 16,384-32,768


class Algorithm(IntEnum):
    COUPLED = 1
    UNCOUPLED = 2


class StepSizeWarning(UserWarning):
    """Raised as a warning when rho violates the convergence bound."""


@dataclass
class SolverConfig:
    r: float = 1.0
    rho: float | None = None  # defaults to r
    algorithm: Algorithm = Algorithm.UNCOUPLED
    tol_outer: float = 1e-8
    max_outer: int = 500
    require_constraint: bool = False

    def __post_init__(self):
        self.algorithm = Algorithm(self.algorithm)
        # r = 0 is permitted for bare assembly; run insists on r > 0, which
        # both convergence bounds require
        if not (np.isfinite(self.r) and self.r >= 0):
            raise ValueError("penalty parameter r must be finite and "
                             f"nonnegative, got {self.r!r}")
        if self.rho is not None and not np.isfinite(self.rho):
            raise ValueError(f"step size rho must be finite, got {self.rho!r}")
        if not (np.isfinite(self.tol_outer) and self.tol_outer > 0):
            raise ValueError("tolerances must be positive and finite, "
                             f"got {self.tol_outer!r}")
        # below the u-solve's resolution the u-increment drops to 0 once the
        # warm start meets it, which would pass any tol_outer
        if self.tol_outer < LINEAR_TOL:
            raise ValueError(f"tol_outer {self.tol_outer:g} is below "
                             f"LINEAR_TOL = {LINEAR_TOL:g}, the resolution "
                             "of the u-solves")
        if (not isinstance(self.max_outer, (int, np.integer))
                or isinstance(self.max_outer, bool) or self.max_outer < 1):
            raise ValueError("iteration limits must be positive integers")

    @property
    def effective_rho(self) -> float:
        return self.r if self.rho is None else self.rho


@dataclass
class IterationRecord:
    iteration: int
    residual_u: float
    residual_constraint: float
    residual_lambda: float
    energy: float


@dataclass
class SolverState:
    u: DgScalar
    eta: DgVector
    lam: DgVector
    iteration: int = 0
    residual_u: float = np.inf
    residual_constraint: float = np.inf
    residual_lambda: float = np.inf
    energy: float = np.nan
    converged: bool = False
    inner_converged: bool = True
    linear_iterations: int = 0  # conjugate-gradient iterations of the run
    flux_passes: int = 0  # Newton passes of the run's flux root solves
    history: list = field(default_factory=list)


class _SymmetricBands:
    """A symmetric m x m band matrix, stored as its diagonal and upper
    bands: bands[k] is the band at offset d = offsets[k], the offsets
    ascending from 0, indexed by column as DIA storage keeps it,
    bands[k][c] = A[c - d, c] for c >= d (its first d entries are unused).
    The band at offset -d is the same values indexed by row:
    A[i, i - d] = A[i - d, i] = bands[k][i].

    A @ x adds the products of all the bands, lower ones included, in
    ascending offset order into a zero vector, the order and the start of
    scipy's DIA product, so it gives the same bits. It runs FLUX_BLOCK
    rows at a time, so that each product stays in cache until it is
    added. The slices of every block are planned here, once: planned on
    every call, they made the 15 small solves of criterion 1's study 8%
    slower. The buffer of the products is the call's own, so threads may
    share the matrix.
    """

    def __init__(self, bands: np.ndarray, offsets: tuple):
        self.bands, self.offsets = bands, offsets
        m = bands.shape[1]
        self._block = min(m, FLUX_BLOCK)  # rows per block
        signed = [-d for d in reversed(offsets) if d] + list(offsets)
        # per block and band: rows of y, band values, columns of x, buffer
        self._plan = []
        for start in range(0, m, self._block):
            stop = min(start + self._block, m)
            for d, band in zip(signed, [*bands[:0:-1], *bands]):
                # rows i with 0 <= i + d < m, and the values of A[i, i + d]
                # at index i of a lower band, i + d of an upper one
                lo, hi = max(start, -d), min(stop, m - d)
                if lo < hi:
                    at = max(d, 0)
                    self._plan.append((slice(lo, hi), band[lo + at:hi + at],
                                       slice(lo + d, hi + d),
                                       slice(hi - lo)))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        m = self.bands.shape[1]
        if np.shape(x) != (m,):
            raise ValueError(f"A is {m} x {m}, x has shape {np.shape(x)}")
        y = np.zeros(m)
        buf = np.empty(self._block)  # each product, before its add
        for rows, band, cols, part in self._plan:
            out = y[rows]
            out += np.multiply(band, x[cols], out=buf[part])
        return y


@dataclass
class SystemMatrix:
    """The u-system and the data of its preconditioner, each array once.

    matrix is A, stored as its diagonal and upper bands (_SymmetricBands)
    and written from its own coefficients (see assemble_matrix). scale is
    the m-vector S = sqrt(diag K / diag A) of the preconditioner
    M = S^-1 K S^-1, with K = I_y (x) K_x + K_y (x) I_x the Kronecker sum
    that is A with every edge penalty at the mean gamma. qx (nx, nx) and
    qy (ny, ny) are the eigenvectors of K_x and K_y, and eigsum (ny, nx)
    the eigenvalue sums of K, eigsum[j, i] = lam_y[j] + lam_x[i]. These
    three are stored in the precision _precondition applies: float32
    where M != A, float64 where M = A, as at p = 2 (see assemble_matrix).
    On a square grid qx is qy.
    """

    matrix: _SymmetricBands
    scale: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    eigsum: np.ndarray


def _check_step_size(cfg: SolverConfig) -> None:
    rho, r = cfg.effective_rho, cfg.r
    bound = 2.0 * r if cfg.algorithm == Algorithm.COUPLED else GOLDEN * r
    if 0.0 < rho < bound:
        return
    warnings.warn(
        f"step size rho={rho:g} outside the convergence range (0, {bound:g}) "
        f"for algorithm {int(cfg.algorithm)}", StepSizeWarning, stacklevel=3)
    raise ValueError("step size violates the convergence bound")


def _axis_operator(n: int, h: float, area: float, r: float,
                   jump: float) -> tuple:
    """(bands, lam, Q) along one axis of n cells of width h: bands[d] the
    diagonal at offset d, 0 <= d <= min(2, n - 1), of r |k| D^T D, and
    (lam, Q) the eigenpairs of r |k| D^T D + jump T.

    D is the 1-D lifting of dg._stencil. T = tridiag(-1, 2, -1) is the jump
    Laplacian, whose end rows carry one interior and one boundary edge, and
    jump prices every edge (weight times length). r |k| D^T D is built
    n x n by the stencil itself: applied to x I, x = sqrt(r |k|) / (2h), it
    gives sqrt(r |k|) D, and its adjoint applied to x times that gives
    r |k| D^T D. Each entry sums at most two products +-x * x, so these are
    the bits of the sparse product. The eigenpairs add jump T to it, for
    the preconditioner alone; the mass |k| I shifts eigenvalues only, and
    assemble_matrix adds it to their sums. They come from numpy's dense
    symmetric eigensolver (LAPACK syevd), so that all of a run's BLAS and
    LAPACK calls share numpy's one OpenBLAS. scipy's banded eigensolver
    costs about as much per call, but it loads scipy's own OpenBLAS, whose
    thread pool stalled the numpy products that followed it: at nx = 128
    the first preconditioner applies of a run took 28-93 ms each in place
    of 0.3 ms.
    """
    # scaling D, not D^T D: on a tiny domain (1/2h)^2 overflows while
    # r |k| / (2h)^2 stays O(1)
    x = np.sqrt(r * area) * (1.0 / (2.0 * h))
    k = np.eye(n) * x
    lift = np.empty((n, n))
    _stencil(k, lift, adjoint=False)
    lift *= x
    _stencil(lift, k, adjoint=True)
    del lift  # one n x n array during eigh
    k += 0.0  # +0.0 for -0.0, as in the sparse product, which stores no zero
    kd = min(2, n - 1)
    bands = {d: np.diagonal(k, d).copy() for d in range(kd + 1)}
    i = np.arange(n)
    k[i, i] = bands[0] + 2.0 * jump
    k[i[1:], i[:-1]] -= jump
    k[i[:-1], i[1:]] -= jump
    return (bands, *np.linalg.eigh(k))


def assemble_matrix(data: ProblemData, cfg: SolverConfig) -> SystemMatrix:
    """SPD system A = |k| I + r |k| B^T B + each edge's w |e| times its
    squared jump, written from those coefficients as its diagonal and
    upper bands.

    r |k| B^T B = I_y (x) r |k| D_x^T D_x + r |k| D_y^T D_y (x) I_x has the
    offsets 0, +-1, +-2 within each grid row and 0, +-nx, +-2nx across the
    rows (see _axis_operator). The edge weights (cx, cy) add each element's
    four edges on the diagonal, and minus each interior edge's weight
    between its two elements. A is symmetric (each lower entry, written
    out, equals its upper one to the bit), so only the offsets 0, 1, 2, nx
    and 2nx are written, into one (bands, m) array, each indexed by column
    as DIA storage keeps it: 5 m values in place of 9 m (see
    _SymmetricBands). A @ x sums each row in column order, as CSR does.

    gamma, the mean w |e|, enters the preconditioner alone. K is A with
    every edge at gamma, I_y (x) K_x + K_y (x) I_x with K_x = |k| I +
    r |k| D_x^T D_x + gamma T_x and K_y = r |k| D_y^T D_y + gamma T_y, and
    solve_linear preconditions with K scaled to diag A. Both axes get the
    eigenpairs of r |k| D^T D + gamma T from _axis_operator, x first, and
    |k| enters as a shift of the eigenvalue sums. On a square grid,
    (nx, dx) = (ny, dy), the two axes are one, and one eigensolve serves
    both.

    Where some w |e| departs from gamma by more than float32 resolves,
    M only approximates A, and qx, qy and the eigenvalue sums are stored
    in float32: float64 rounding buys nothing there, and an apply at
    nx = 400 takes 3.6 ms in place of 5.9 on a 2-vCPU VM. Elsewhere M = A
    to float64 roundoff, and they stay float64, so that one iteration
    still solves. That holds at p = 2, where every w |e| is 1 to an ulp,
    and so is gamma, their mean: at nx = 49 each w |e| rounds to
    1 - 2^-53 and gamma to 1 - 2^-52, and a test of exact zeros would
    apply float32 there and take b = 0 from 2 to 4 outer iterations.
    """
    mesh = data.mesh
    nx, ny, m = mesh.nx, mesh.ny, mesh.n_elements
    cx, cy = data.penalty_weights
    gamma = float((cx.sum() + cy.sum()) / (cx.size + cy.size))
    cell = mesh.dx * mesh.dy
    # rx[d], ry[d]: the bands of r |k| D^T D along x and along y
    square = (nx, mesh.dx) == (ny, mesh.dy)
    rx, lam_x, qx = _axis_operator(nx, mesh.dx, cell, cfg.r, gamma)
    ry, lam_y, qy = ((rx, lam_x, qx) if square else
                     _axis_operator(ny, mesh.dy, cell, cfg.r, gamma))
    offsets = tuple(sorted({*rx} | {d * nx for d in ry}))
    bands = np.zeros((len(offsets), m))
    # band d as an (ny, nx) grid: grid[d][j, i] = A[c - d, c], c = j nx + i
    grid = {d: band.reshape(ny, nx) for d, band in zip(offsets, bands)}
    # the diagonal, by axis: r |k| D^T D and the element's two edges
    np.add(ry[0][:, None], cy[:-1] + cy[1:], out=grid[0])
    grid[0] += (rx[0] + cell) + (cx[:, :-1] + cx[:, 1:])
    # off it: r |k| D^T D, and minus each interior edge's weight
    for d in rx.keys() - {0}:
        grid[d][:, d:] = rx[d]
    for d in ry.keys() - {0}:
        grid[d * nx][d:] = ry[d][:, None]
    if nx > 1:
        grid[1][:, 1:] -= cx[:, 1:-1]
    if ny > 1:
        grid[nx][1:] -= cy[1:-1]
    diag_k = (ry[0] + 2.0 * gamma)[:, None] + (rx[0] + cell + 2.0 * gamma)
    scale = np.sqrt(diag_k / grid[0]).ravel()
    # some edge departs from gamma by more than float32 resolves: M != A
    depart = max(np.abs(cx - gamma).max(), np.abs(cy - gamma).max())
    dtype = (np.float32 if depart > np.finfo(np.float32).eps * gamma
             else np.float64)
    eigsum = (lam_y[:, None] + (lam_x + cell)).astype(dtype, copy=False)
    qx = qx.astype(dtype, copy=False)
    qy = qx if square else qy.astype(dtype, copy=False)
    return SystemMatrix(matrix=_SymmetricBands(bands, offsets), scale=scale,
                        qx=qx, qy=qy, eigsum=eigsum)


def assemble_rhs(state: SolverState, data: ProblemData,
                 cfg: SolverConfig) -> np.ndarray:
    """Load vector plus the flux coupling term integral (r eta - lam) . Bphi."""
    coupling = cfg.r * state.eta.values
    coupling -= state.lam.values
    rhs = lifting_adjoint(DgVector(data.mesh, coupling))
    rhs += data.load
    return rhs


def _precondition(matrix: SystemMatrix, res: np.ndarray) -> np.ndarray:
    """M^-1 res = S Q_y ((Q_y^T R Q_x) / eigsum) Q_x^T, with R = S res as
    an (ny, nx) array; at p = 2, S = 1 and this is the exact solve. The
    products and the division run in the stored transforms' precision
    (see assemble_matrix), and the result is float64."""
    qx, qy, eigsum, scale = matrix.qx, matrix.qy, matrix.eigsum, matrix.scale
    coef = (scale * res).astype(eigsum.dtype, copy=False)
    coef = qy.T @ coef.reshape(eigsum.shape) @ qx
    coef /= eigsum
    return scale * (qy @ coef @ qx.T).ravel()


def solve_linear(matrix: SystemMatrix, rhs: np.ndarray,
                 u0: np.ndarray | None = None,
                 rtol: float = LINEAR_TOL,
                 au0: np.ndarray | None = None) -> tuple:
    """Preconditioned conjugate gradients from the pair (u0, au0), au0 =
    A u0, to the pair (x, A x).

    Returns (x, tight, iterations, ax), ax the product A x formed here on
    every exit. The start defaults to the zero pair, whose product is 0; a
    u0 given without au0 has its product formed once, at the start. au0 is
    not checked, so x is accepted only on a product formed here: the solve
    stops once that product meets max|rhs - A x| <= rtol max(1, max|rhs|),
    and a start that meets it comes back unchanged. tight says whether the
    residual also meets the test at LINEAR_TOL, and iterations counts the
    preconditioner applies. Residuals and search directions are kept
    divided by max|rhs|, so huge data cannot overflow their inner
    products. At p = 2 the preconditioner is the inverse and one iteration
    solves. A RuntimeWarning reports a miss, which is never tight: an inner
    product r.z or d.Ad not positive and finite, which returns NaN for x
    and ax, or, returning the last iterate and its product, MAX_LINEAR
    iterations without meeting the test or STALL iterations in which
    max|res| sets no new minimum. Its message carries no per-solve number,
    so the default warning filter shows a run's repeated misses once. A
    stall is what a test below the attainable accuracy looks like: at
    r |k| / h^2 ~ 1e12 the recursive residual falls to roundoff while the
    true one stays ~1e-6.
    """
    a = matrix.matrix
    m = len(rhs)
    scale = float(np.abs(rhs).max(initial=0.0))
    if scale == 0.0:
        return np.zeros(m), True, 0, np.zeros(m)
    if u0 is None:
        x, ax = np.zeros(m), np.zeros(m)
    else:
        x = np.array(u0, float)
        ax = a @ x if au0 is None else au0
    tol = rtol * max(1.0, scale) / scale
    res = rhs - ax
    res /= scale
    rz_old, direction = 1.0, np.zeros_like(x)
    best, best_n = np.inf, 0
    for n in range(MAX_LINEAR):
        err = np.abs(res).max()
        if err <= tol:
            ax = a @ x  # accept only on a product formed here
            res = rhs - ax
            res /= scale
            err = np.abs(res).max()
        if err <= tol:
            return x, bool(err <= LINEAR_TOL * max(1.0, scale) / scale), n, ax
        if err < best:
            best, best_n = err, n
        elif n - best_n == STALL:
            warnings.warn("solve_linear: residual test missed, no new "
                          f"minimum in {STALL} iterations", RuntimeWarning,
                          stacklevel=2)
            return x, False, n, a @ x
        z = _precondition(matrix, res)
        rz = float(res @ z)
        if 0.0 < rz < np.inf:
            direction *= rz / rz_old
            direction += z
            a_dir = a @ direction
            curvature = float(direction @ a_dir)
        if not (0.0 < rz < np.inf and 0.0 < curvature < np.inf):
            warnings.warn("solve_linear: non-finite or non-positive inner "
                          "product", RuntimeWarning, stacklevel=2)
            return np.full(m, np.nan), False, n + 1, np.full(m, np.nan)
        # x += (scale step) direction and res -= step a_dir, the products
        # in z's and a_dir's buffers
        step = rz / curvature
        x += np.multiply(direction, scale * step, out=z)
        res -= np.multiply(a_dir, step, out=a_dir)
        rz_old = rz
    warnings.warn("solve_linear: residual test missed after "
                  f"{MAX_LINEAR} iterations", RuntimeWarning, stacklevel=2)
    return x, False, MAX_LINEAR, a @ x


def _cold_start(e: np.ndarray, r: float, c: np.ndarray) -> np.ndarray:
    """A point at or left of the root of x^e + r x = c, e = p_bar - 1 (see
    _root_many), not normal where every lower bound tried underflows."""
    x = c / (1.0 + r)
    with np.errstate(under="ignore", over="ignore"):
        np.power(x, 1.0 / e, out=x, where=x < 1.0)
        low = x < np.finfo(float).tiny
        if low.any():
            c_low, e = c[low], e[low]
            y = np.maximum(c_low - r * c_low ** (1.0 / e), 0.0) ** (1.0 / e)
            x[low] = np.maximum(y, (c_low - (c_low / r) ** e) / r)
    return x


def _root_many(p_bar: np.ndarray, r: float, c: np.ndarray) -> tuple:
    """Vector solve of x^{p_bar - 1} + r x = c, x >= 0, by monotone Newton,
    for float arrays p_bar and c of one shape.

    f(x) = x^{p_bar - 1} + r x - c is increasing and concave for
    1 < p_bar <= 2, so Newton climbs from any x with f(x) <= 0 to the root
    without overshooting. The start is the left point t if t >= 1, else
    t^{1/(p_bar - 1)}, with t = c / (1 + r). Where it falls below the
    smallest normal double, the larger of two other lower bounds of the
    root x* replaces it: x* <= c^{1/(p_bar - 1)} gives x*^{p_bar - 1} =
    c - r x* >= c - r c^{1/(p_bar - 1)}, and x* <= c / r gives r x* >=
    c - (c / r)^{p_bar - 1}. Where that start is not normal either, the
    root returned is 0. Every later iterate lies at or right of its start,
    so it stays normal. Returns (x, passes, missed): the Newton passes, one
    per evaluation of f, and the count of misses of |f| <= 1e-12 max(1, c),
    which the caller reports (see _eta_from).
    """
    if r <= 0:
        raise ValueError("flux root solve requires r > 0")
    p_m1 = p_bar - 1.0
    p_m2 = p_m1 - 1.0
    tol = np.maximum(1.0, c)
    tol *= 1e-12
    x = _cold_start(p_m1, r, c)
    # below the smallest normal, x^{p_bar - 2} can overflow to inf: where
    # the start is not normal, x = 1 and c = 1 + r, whose residual is
    # exactly 0, and the root returned is 0
    zero = ~(x >= np.finfo(float).tiny)
    missed = 0
    if zero.any():
        missed = np.count_nonzero(zero & (c > tol))
        x[zero] = 1.0
        c = np.where(zero, 1.0 + r, c)
    xp, f = np.empty_like(c), np.empty_like(c)
    done = np.zeros(c.shape, bool)
    passes = 0
    while not done.all():
        if passes == MAX_NEWTON:
            missed += np.count_nonzero(~done)
            break
        # x -= f(x) / f'(x) in place, and done = |f(x)| <= tol
        np.power(x, p_m2, out=xp)
        np.multiply(x, np.add(xp, r, out=f), out=f)
        np.subtract(f, c, out=f)
        np.add(np.multiply(p_m1, xp, out=xp), r, out=xp)
        np.subtract(x, np.divide(f, xp, out=xp), out=x)
        np.less_equal(np.abs(f, out=f), tol, out=done)
        passes += 1
    x[zero] = 0.0
    return x, passes, int(missed)


def _eta_from(bu: np.ndarray, lam: np.ndarray, p_bar: np.ndarray,
              r: float) -> tuple:
    """(eta, passes): the per-element minimizer of the flux subproblem and
    the Newton passes that found it.

    Solves |eta|^{p_bar - 2} eta + r (eta - bu) = lam elementwise: the
    solution is parallel to s = lam + r bu, its magnitude x solves
    x^{p_bar - 1} + r x = |s|, and eta = s / (x^{p_bar - 2} + r) = s x / |s|.
    The rows go FLUX_BLOCK at a time, with s written into eta's buffer, so
    the root's work arrays are a block's. passes is the most any block
    took, as one solve over all rows would count them. A RuntimeWarning
    counts the roots of all blocks that missed _root_many's test.
    """
    eta = np.empty((len(bu), 2))
    passes = missed = 0
    for start in range(0, len(eta), FLUX_BLOCK):
        rows = slice(start, start + FLUX_BLOCK)
        s = eta[rows]
        np.multiply(bu[rows], r, out=s)
        s += lam[rows]
        c = _magnitude(s)
        x, block_passes, block_missed = _root_many(p_bar[rows], r, c)
        passes, missed = max(passes, block_passes), missed + block_missed
        np.divide(x, c, out=x, where=c > 0.0)  # s = 0 where c = 0
        s *= x[:, None]
    if missed:
        warnings.warn(f"flux root solve: {missed} of {len(eta)} entries "
                      "missed the residual test", RuntimeWarning, stacklevel=2)
    return eta, passes


def lambda_update(lam: DgVector, gap: DgVector, cfg: SolverConfig) -> DgVector:
    """Multiplier step lam + rho gap, with gap = Bu - eta, or h - eta where
    run over-relaxes (see run)."""
    step = cfg.effective_rho * gap.values
    step += lam.values
    return DgVector(lam.mesh, step)


def stopping_check(state: SolverState, cfg: SolverConfig) -> bool:
    """Relative u-increment test; with require_constraint also Bu = eta.

    The constraint residual decays geometrically with the multiplier
    updates, so demanding it at tol_outer costs many extra iterations after
    u has stabilized; it is opt-in for runs that need a tight saddle point.
    A non-finite increment or u never passes (inf <= tol * inf would).
    """
    if state.iteration < 1:
        return False
    u_norm = l2_norm(state.u)
    if not (np.isfinite(state.residual_u) and np.isfinite(u_norm)):
        return False
    ok = state.residual_u <= cfg.tol_outer * max(1.0, u_norm)
    if cfg.require_constraint:
        ok = ok and (state.residual_constraint
                     <= cfg.tol_outer * max(1.0, l2_norm(state.eta)))
    return ok


def _distance(a, b) -> float:
    """Area-weighted L2 distance between two P0 fields of one kind."""
    return l2_norm(replace(a, values=a.values - b.values))


def _extrapolated_start(u: DgScalar, au: np.ndarray, older: tuple | None,
                        history: list) -> tuple:
    """The pair (x0, A x0): x0 = u + theta (u - u_older) and A x0 =
    au + theta (au - au_older), where (u, au) is the last pair a u-solve
    returned, older = (u_older, au_older) the pair of the outer iteration
    before, and theta = min(0.9, ||du_n|| / ||du_{n-1}||) from the last two
    records of history; (u, au) itself where that ratio is undefined."""
    if len(history) < 2 or not history[-2].residual_u > 0.0:
        return u.values, au
    theta = min(0.9, history[-1].residual_u / history[-2].residual_u)
    u_older, au_older = older
    return (_extrapolate(u.values, u_older.values, theta),
            _extrapolate(au, au_older, theta))


def _extrapolate(v: np.ndarray, v_older: np.ndarray, theta: float):
    """v + theta (v - v_older), in the buffer of the difference."""
    out = v - v_older
    out *= theta
    out += v
    return out


def run(data: ProblemData, cfg: SolverConfig) -> SolverState:
    """Iterate cfg.algorithm from zero to a saddle point.

    An outer iteration sweeps a u-solve and a flux recovery, then updates
    the multiplier. The uncoupled algorithm makes one sweep. The coupled one
    repeats the sweep at frozen lam until eta moves by at most
    max(TOL_INNER, INNER_RATIO ||Bu - eta||) with the constraint residual of
    the previous outer iteration, up to MAX_INNER sweeps; that residual
    starts at inf, so the first outer iteration makes one sweep.

    u converges linearly, so the first u-solve of an outer iteration starts
    from u extrapolated along its last increment du, u + theta du, with
    theta the ratio of the last two u-increments capped at 0.9 and 0
    for the first two iterations (see _extrapolated_start); later sweeps
    start from the current u. A later sweep whose u-solve returns that
    start unchanged ends the sweeps without a flux step, which would
    rebuild eta bit for bit and pass the eta test at distance 0. Where
    MAX_INNER sweeps end without meeting the eta test, inner_converged is
    False; converged follows the outer test alone.

    Every u-solve takes and returns a pair (u, A u) (see solve_linear), so
    no start product is formed: the first starts from the zero pair, a
    later sweep from the pair the last solve returned, and the first sweep
    of an outer iteration from that pair and the pair an outer iteration
    back, extrapolated alike. A missed solve returns its pair too. The
    energy reuses the flux step's lifting of u. The u-solves stop at the
    relative residual max(LINEAR_TOL, LINEAR_RATIO ||Bu - eta|| /
    max(1, ||eta||)) with the same residual.
    While it is inf, in the first outer iteration, they stop at
    max(LINEAR_TOL, LINEAR_RATIO), so that LINEAR_RATIO = 0 still makes
    every solve tight.
    Inexact minimizations keep the augmented-Lagrangian iteration
    convergent when their errors are summable (Eckstein and Bertsekas
    1992), as they are while the constraint residual decays geometrically.
    A loose solve can return its start, and so a zero u-increment: the run
    stops only on an iteration whose last u-solve met LINEAR_TOL, and where
    the stopping test passes after a looser one, the next iteration solves
    at LINEAR_TOL and tests again. A non-finite u-increment, ||Bu - eta||,
    multiplier step or energy ends the run unconverged, before the next
    u-solve could take the non-finite flux or multiplier into u.

    The uncoupled algorithm at rho = r is over-relaxed (Eckstein and
    Bertsekas 1992; Boyd et al. 2011, sec. 3.4.3): the flux step solves
    with h = RELAX Bu + (1 - RELAX) eta_prev in place of Bu, eta_prev the
    flux before the step, and the multiplier moves by rho (h - eta). It
    reaches the same saddle point for RELAX in (0, 2), and RELAX = 1.5
    cuts b = 0.5, nx = 400 from 31 to 20 outer iterations (b = 0.5,
    nx = 10 from 22 to 13). The constraint residual ||Bu - eta||, the
    energy, the stopping test and the extrapolated start still read Bu.
    The coupled algorithm, and a rho other than r, take the paper's step,
    h = Bu: Glowinski's bounds on rho are proved without relaxation, and at
    rho = 1.6 r relaxation took 25 iterations to 30 (b = 0.5, nx = 31).
    """
    if cfg.r <= 0:
        raise ValueError("iteration requires r > 0")
    _check_step_size(cfg)
    mesh = data.mesh
    m = mesh.n_elements
    state = SolverState(u=DgScalar(mesh, np.zeros(m)),
                        eta=DgVector(mesh, np.zeros((m, 2))),
                        lam=DgVector(mesh, np.zeros((m, 2))))
    matrix = assemble_matrix(data, cfg)
    coupled = cfg.algorithm == Algorithm.COUPLED
    sweeps = MAX_INNER if coupled else 1
    relax = RELAX if not coupled and cfg.effective_rho == cfg.r else 1.0
    rtol = max(LINEAR_TOL, LINEAR_RATIO)
    # (state.u, au) the last pair, from the zero one, and older the pair
    # an outer iteration back
    au, older = np.zeros(m), None
    for n in range(1, cfg.max_outer + 1):
        lam_prev = state.lam
        tol_inner = max(TOL_INNER, INNER_RATIO * state.residual_constraint)
        u0, au0 = _extrapolated_start(state.u, au, older, state.history)
        older = state.u, au
        for sweep in range(sweeps):
            eta_prev = state.eta
            rhs = assemble_rhs(state, data, cfg)
            u, tight, iterations, au = solve_linear(matrix, rhs, u0, rtol,
                                                    au0)
            state.u = DgScalar(mesh, u)
            state.linear_iterations += iterations
            # a later sweep's solve that returns its start (0 iterations;
            # a zero rhs returns zeros instead) leaves Bu, and so the flux
            # step's eta, bit for bit as the last sweep made them
            if sweep and not iterations and rhs.any():
                break
            u0, au0 = u, au
            bu = lifting(state.u)
            if relax == 1.0:
                h = bu.values
            else:  # relax bu + (1 - relax) eta_prev, in one new buffer
                h = relax * bu.values
                h += (1.0 - relax) * eta_prev.values
            eta, passes = _eta_from(h, state.lam.values, data.p_bar, cfg.r)
            state.eta = DgVector(mesh, eta)
            state.flux_passes += passes
            # a NaN flux passes too; the checks below end the run on it
            if not coupled or not _distance(state.eta, eta_prev) > tol_inner:
                break
        else:
            state.inner_converged = False
        del rhs, u0, au0, eta_prev
        gap = bu.values - state.eta.values
        state.residual_constraint = l2_norm(DgVector(mesh, gap))
        if h is not bu.values:  # the step h - eta, in h's buffer
            gap = np.subtract(h, state.eta.values, out=h)
        state.lam = lambda_update(state.lam, DgVector(mesh, gap), cfg)
        del h, gap
        state.iteration = n
        state.residual_u = _distance(state.u, older[0])
        state.residual_lambda = _distance(state.lam, lam_prev)
        state.energy = eval_Jh(state.u, data, bu)
        del bu
        state.history.append(IterationRecord(
            n, state.residual_u, state.residual_constraint,
            state.residual_lambda, state.energy))
        if not np.isfinite([state.residual_u, state.residual_constraint,
                            state.residual_lambda, state.energy]).all():
            break
        if stopping_check(state, cfg):
            if tight:
                state.converged = True
                break
            rtol = LINEAR_TOL
        else:
            rtol = max(LINEAR_TOL, LINEAR_RATIO * state.residual_constraint
                       / max(1.0, l2_norm(state.eta)))
    return state
