"""Augmented-Lagrangian decomposition-coordination iterations.

Both algorithms alternate a linear SPD solve for u, a per-element scalar
root solve recovering the auxiliary flux eta, and a multiplier update
lam <- lam + rho (Bu - eta). The uncoupled variant performs one u-solve and
one eta-update per multiplier step; the coupled variant iterates the pair
to a joint minimum of the augmented Lagrangian before each multiplier step.
`run` drives both through the same step functions.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dg import DgScalar, DgVector, l2_norm, lifting, lifting_matrices
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
    "scalar_root",
    "eta_update",
    "lambda_update",
    "stopping_check",
    "run",
    "write_trace_csv",
]

GOLDEN = 0.5 * (1.0 + np.sqrt(5.0))
LINEAR_TOL = 1e-12  # solve_linear refines once above this scaled residual
TOL_INNER = 1e-10  # coupled algorithm: eta increment ending the inner sweeps
MAX_INNER = 200  # coupled algorithm: inner sweeps per multiplier step


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
    force_step_size: bool = False

    def __post_init__(self):
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
        if self.max_outer < 1:
            raise ValueError("iteration limits must be positive")

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
    history: list = field(default_factory=list)


@dataclass
class SystemMatrix:
    matrix: sp.csc_matrix
    factor: object  # splu factorization

    @property
    def shape(self):
        return self.matrix.shape


def _zero_state(mesh) -> SolverState:
    m = mesh.n_elements
    return SolverState(u=DgScalar(mesh, np.zeros(m)),
                       eta=DgVector(mesh, np.zeros((m, 2))),
                       lam=DgVector(mesh, np.zeros((m, 2))))


def _check_step_size(cfg: SolverConfig) -> None:
    rho, r = cfg.effective_rho, cfg.r
    bound = 2.0 * r if cfg.algorithm == Algorithm.COUPLED else GOLDEN * r
    if 0.0 < rho < bound:
        return
    warnings.warn(
        f"step size rho={rho:g} outside the convergence range (0, {bound:g}) "
        f"for algorithm {int(cfg.algorithm)}", StepSizeWarning, stacklevel=3)
    if not cfg.force_step_size:
        raise ValueError(
            "step size violates the convergence bound; set force_step_size "
            "to proceed anyway")


def assemble_matrix(data: ProblemData, cfg: SolverConfig) -> SystemMatrix:
    """SPD system: mass + r B^T A B + interior jump and boundary penalties."""
    mesh = data.mesh
    m = mesh.n_elements
    lx, ly = lifting_matrices(mesh)
    area = sp.diags(mesh.areas)
    mat = sp.diags(mesh.areas) + cfg.r * (lx.T @ area @ lx + ly.T @ area @ ly)

    w_int, w_bnd = data.penalty_weights
    if len(mesh.int_plus):
        vals = w_int * mesh.int_length
        ij = np.concatenate([mesh.int_plus, mesh.int_minus,
                             mesh.int_plus, mesh.int_minus])
        ji = np.concatenate([mesh.int_plus, mesh.int_minus,
                             mesh.int_minus, mesh.int_plus])
        dat = np.concatenate([vals, vals, -vals, -vals])
        mat = mat + sp.csr_matrix((dat, (ij, ji)), shape=(m, m))
    mat = mat + sp.csr_matrix((w_bnd * mesh.bnd_length,
                               (mesh.bnd_element, mesh.bnd_element)),
                              shape=(m, m))
    mat = sp.csc_matrix(mat)
    # The matrix is SPD (mass plus semidefinite terms, also at r = 0), so
    # diagonal pivots are stable and one symmetric minimum-degree ordering of
    # A + A^T serves rows and columns alike; it fills less than COLAMD.
    factor = spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    return SystemMatrix(matrix=mat, factor=factor)


def assemble_rhs(state: SolverState, data: ProblemData,
                 cfg: SolverConfig) -> np.ndarray:
    """Load vector plus the flux coupling term integral (r eta - lam) . Bphi."""
    lx, ly = lifting_matrices(data.mesh)
    s = cfg.r * state.eta.values - state.lam.values
    a = data.mesh.areas
    return data.load + lx.T @ (a * s[:, 0]) + ly.T @ (a * s[:, 1])


def solve_linear(matrix: SystemMatrix, rhs: np.ndarray) -> np.ndarray:
    """Direct sparse solve with one step of iterative refinement if needed."""
    u = matrix.factor.solve(rhs)
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    resid = rhs - matrix.matrix @ u
    if np.abs(resid).max(initial=0.0) > LINEAR_TOL * scale:
        u = u + matrix.factor.solve(resid)
    return u


def _root_many(p_bar: np.ndarray, r: float, c: np.ndarray) -> np.ndarray:
    """Vector solve of x^{p_bar - 1} + r x = c, x >= 0, by monotone Newton.

    f(x) = x^{p_bar - 1} + r x - c is increasing and concave for
    1 < p_bar <= 2, so Newton climbs from any x with f(x) <= 0 to the root
    without overshooting. The left point t if t >= 1, else t^{1/(p_bar - 1)},
    with t = c / (1 + r), is such an x; where it is 0 or subnormal the root
    returned is 0. A RuntimeWarning counts misses of |f| <= 1e-12 max(1, c).
    """
    if r <= 0:
        raise ValueError("flux root solve requires r > 0")
    c = np.asarray(c, float)
    p_bar = np.broadcast_to(np.asarray(p_bar, float), c.shape)
    x = c / (1.0 + r)
    with np.errstate(under="ignore"):
        np.power(x, 1.0 / (p_bar - 1.0), out=x, where=x < 1.0)
    tol = 1e-12 * np.maximum(1.0, c)
    out = np.zeros_like(c)
    # below the smallest normal, x^{p_bar - 2} can overflow to inf
    normal = x >= np.finfo(float).tiny
    missed = np.count_nonzero(~normal & (c > tol))
    idx = np.flatnonzero(normal)
    x, c, tol, p_m1 = x[idx], c[idx], tol[idx], p_bar[idx] - 1.0
    p_m2 = p_m1 - 1.0
    for _ in range(200):
        xp = x ** p_m2
        f = x * (xp + r) - c
        done = np.abs(f) <= tol
        x -= f / (p_m1 * xp + r)
        if done.all():
            break
    else:
        missed += np.count_nonzero(~done)
    if missed:
        warnings.warn(f"flux root solve: {missed} of {out.size} entries "
                      "missed the residual test", RuntimeWarning, stacklevel=2)
    out[idx] = x
    return out


def scalar_root(p_bar: float, r: float, c: float) -> float:
    """The unique x >= 0 with x^{p_bar - 1} + r x = c."""
    if not (1.0 < p_bar <= 2.0):
        raise ValueError("p_bar must lie in (1, 2]")
    if r <= 0 or c < 0:
        raise ValueError("requires r > 0 and c >= 0")
    return float(_root_many(np.array([p_bar]), r, np.array([c]))[0])


def _eta_from(bu: np.ndarray, lam: np.ndarray, p_bar: np.ndarray,
              r: float) -> np.ndarray:
    """Per-element minimizer of the flux subproblem.

    Solves |eta|^{p_bar - 2} eta + r (eta - bu) = lam elementwise: the
    solution is parallel to s = lam + r bu, its magnitude x solves
    x^{p_bar - 1} + r x = |s|, and eta = s / (x^{p_bar - 2} + r) = s x / |s|.
    """
    s = lam + r * bu
    c = np.hypot(s[:, 0], s[:, 1])
    x = _root_many(p_bar, r, c)
    return s * np.divide(x, c, out=np.zeros_like(c), where=c > 0.0)[:, None]


def eta_update(u: DgScalar, lam: DgVector, data: ProblemData,
               cfg: SolverConfig) -> DgVector:
    """Flux recovery step for the current u and multiplier."""
    return DgVector(data.mesh, _eta_from(lifting(u).values, lam.values,
                                         data.p_bar, cfg.r))


def lambda_update(state: SolverState, cfg: SolverConfig) -> DgVector:
    """Multiplier step lam + rho (Bu - eta)."""
    gap = lifting(state.u).values - state.eta.values
    return DgVector(state.u.mesh, state.lam.values + cfg.effective_rho * gap)


def stopping_check(state: SolverState, cfg: SolverConfig) -> bool:
    """Relative u-increment test; with require_constraint also Bu = eta.

    The constraint residual decays geometrically with the multiplier
    updates, so demanding it at tol_outer costs many extra iterations after
    u has stabilized; it is opt-in for runs that need a tight saddle point.
    """
    if state.iteration < 1:
        return False
    ok = state.residual_u <= cfg.tol_outer * max(1.0, l2_norm(state.u))
    if cfg.require_constraint:
        ok = ok and (state.residual_constraint
                     <= cfg.tol_outer * max(1.0, l2_norm(state.eta)))
    return ok


def _distance(a, b) -> float:
    """Area-weighted L2 distance between two P0 fields of one kind."""
    return l2_norm(replace(a, values=a.values - b.values))


def run(data: ProblemData, cfg: SolverConfig,
        init: SolverState | None = None) -> SolverState:
    """Iterate cfg.algorithm from init (default zero) to a saddle point.

    An outer iteration sweeps a u-solve and a flux recovery, then updates
    the multiplier. The uncoupled algorithm makes one sweep; the coupled
    one repeats the sweep at frozen lam until eta moves by at most
    TOL_INNER, up to MAX_INNER sweeps.
    """
    if cfg.r <= 0:
        raise ValueError("iteration requires r > 0")
    _check_step_size(cfg)
    mesh = data.mesh
    matrix = assemble_matrix(data, cfg)
    sweeps = MAX_INNER if cfg.algorithm == Algorithm.COUPLED else 1
    start = init if init is not None else _zero_state(mesh)
    state = SolverState(u=start.u, eta=start.eta, lam=start.lam)
    for n in range(1, cfg.max_outer + 1):
        u_prev = state.u
        for _ in range(sweeps):
            eta_prev = state.eta
            u = DgScalar(mesh, solve_linear(matrix,
                                            assemble_rhs(state, data, cfg)))
            state = replace(state, u=u,
                            eta=eta_update(u, state.lam, data, cfg))
            if sweeps == 1 or _distance(state.eta, eta_prev) <= TOL_INNER:
                break
        else:
            state.inner_converged = False
        lam = lambda_update(state, cfg)
        state = replace(
            state, lam=lam, iteration=n,
            residual_u=_distance(state.u, u_prev),
            residual_constraint=_distance(lifting(state.u), state.eta),
            residual_lambda=_distance(lam, state.lam),
            energy=eval_Jh(state.u, data).J_value)
        state.history.append(IterationRecord(
            n, state.residual_u, state.residual_constraint,
            state.residual_lambda, state.energy))
        if stopping_check(state, cfg):
            state.converged = True
            break
    return state


def write_trace_csv(state: SolverState, path) -> None:
    """Per-iteration residual and energy trace."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["iter", "residual_u", "residual_constraint",
                      "residual_lambda", "Jh"])
        for rec in state.history:
            out.writerow([rec.iteration,
                          "%.12g" % rec.residual_u,
                          "%.12g" % rec.residual_constraint,
                          "%.12g" % rec.residual_lambda,
                          "%.12g" % rec.energy])
