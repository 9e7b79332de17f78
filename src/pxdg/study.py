"""Manufactured problem family, error measurement, and convergence studies.

The family is built so the flux |grad u|^{p(x)-2} grad u is the constant
(sqrt(2) e / 2)(1, 1), hence divergence-free; with xi = u and u_D = u the
exact minimizer of the continuous problem is u itself, enabling direct
L2 error measurement under mesh refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dg import DgScalar
from .energy import ProblemData
from .exponent import ExponentField
from .mesh import (Domain, _check_counts, _sample, build_uniform_mesh,
                   gauss_points)
from .solver import SolverConfig, run

__all__ = [
    "FLUX_CONSTANT",
    "ManufacturedProblem",
    "StudyRow",
    "manufactured_exponent",
    "manufactured_problem",
    "l2_error",
    "exact_l2_norm",
    "run_study",
    "fit_rate",
]

FLUX_CONSTANT = float(np.sqrt(2.0) * np.e / 2.0)


@dataclass
class ManufacturedProblem:
    b: float
    exponent: ExponentField
    exact_u: callable
    grad_u: callable
    xi: callable = None
    u_D: callable = None
    domain: Domain = field(default_factory=lambda: Domain(-1.0, 1.0, -1.0, 1.0))

    def __post_init__(self):
        if self.xi is None:
            self.xi = self.exact_u
        if self.u_D is None:
            self.u_D = self.exact_u

    def discretize(self, nx: int, ny: int) -> ProblemData:
        """The problem on the uniform nx-by-ny mesh of its domain."""
        return ProblemData(mesh=build_uniform_mesh(self.domain, nx, ny),
                           exponent=self.exponent, xi=self.xi, u_D=self.u_D)


def manufactured_problem(b: float) -> ManufacturedProblem:
    """Problem with known solution; b = 0 is the linear (p = 2) case."""
    return _problem(b)


def manufactured_exponent(b: float) -> ExponentField:
    """Exponent family on [-1,1]^2: p(x) = 1 + 1/((b/2)(x1+x2) + 1 + b),
    with p1 = 1 + 1/(1+2b), p2 = 2; b = 0 gives the constant 2. The exact
    u of manufactured_problem(b) is built for this p, so that its flux is
    the constant one; b must be finite and nonnegative here, and small
    enough there that u^2 stays finite."""
    # NaN passes b < 0, and b = inf makes p1 NaN
    if not (np.isfinite(b) and b >= 0):
        raise ValueError(f"b must be finite and nonnegative, got {b!r}")
    func = lambda x, y: 1.0 + 1.0 / ((b / 2.0) * (np.asarray(x, float) + y) + 1.0 + b)
    return ExponentField(func, p1=1.0 + 1.0 / (1.0 + 2.0 * b), p2=2.0)


def _problem(b: float) -> ManufacturedProblem:
    # run_study checks every b here, unseen by a wrapper of
    # manufactured_problem: perfbench wraps that name to time setup_s and
    # names each solve by the b of its last call
    exponent = manufactured_exponent(b)
    if b == 0:
        exact = lambda x, y: FLUX_CONSTANT * (np.asarray(x, float) + y)
        grad = lambda x, y: (np.full_like(np.asarray(x, float), FLUX_CONSTANT),
                             np.full_like(np.asarray(x, float), FLUX_CONSTANT))
    else:
        # exp overflows from b ~ 708; the range rule below rejects such b
        # along with every smaller one whose u^2 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            amp = np.sqrt(2.0) * np.exp(b + 1.0) / b

        def exact(x, y, amp=amp, b=b):
            return amp * np.expm1((b / 2.0) * (np.asarray(x, float) + y))

        def grad(x, y, amp=amp, b=b):
            g = amp * (b / 2.0) * np.exp((b / 2.0) * (np.asarray(x, float) + y))
            return (g, g.copy())

    prob = ManufacturedProblem(b=b, exponent=exponent, exact_u=exact, grad_u=grad)
    # u grows with x1 + x2, so it peaks at the top right corner; the L2
    # error, the data term of J_h and ||u|| all square it, so b must stay
    # below ~179.4
    d = prob.domain
    with np.errstate(over="ignore", invalid="ignore"):
        peak = np.square(prob.exact_u(d.x_max, d.y_max))
    if not np.isfinite(peak):
        raise ValueError(f"manufactured problem b={b:g} is out of range: "
                         f"u^2 overflows at ({d.x_max:g}, {d.y_max:g})")
    return prob


def _gauss_l2(mesh, values, func) -> float:
    """L2 norm of values - func, values P0 on the (ny, nx) grid, under 3x3
    Gauss taken one point of every element at a time. Where the sum of
    squares overflows but every difference is finite, the differences are
    divided by their largest magnitude top first and the norm is top times
    the root of that sum, as dg.l2_norm does; u is sampled again for it."""
    def differences():
        return ((w, values - _sample(func, x, y))
                for x, y, w in gauss_points(mesh))
    with np.errstate(over="ignore"):  # inf only where the norm itself is
        total = sum(w * float(np.square(d).sum()) for w, d in differences())
        if total == np.inf:
            top = max(float(np.abs(d).max()) for _, d in differences())
            if top < np.inf:  # and not NaN
                total = sum(w * float(np.square(d / top).sum())
                            for w, d in differences())
                return top * float(np.sqrt(total))
    return float(np.sqrt(total))


def l2_error(u_h: DgScalar, prob: ManufacturedProblem) -> float:
    """L2 distance between a P0 field and the exact solution, 3x3 Gauss."""
    mesh = u_h.mesh
    return _gauss_l2(mesh, u_h.values.reshape(mesh.ny, mesh.nx), prob.exact_u)


def exact_l2_norm(prob: ManufacturedProblem, mesh) -> float:
    """L2 norm of the exact solution under l2_error's quadrature on mesh,
    the denominator of the relative error."""
    return _gauss_l2(mesh, 0.0, prob.exact_u)


@dataclass
class StudyRow:
    b: float
    nx: int
    m: int
    l2_error: float
    rel_l2_error: float  # l2_error over the exact u's norm, same quadrature
    iterations: int
    jh: float
    converged: bool


def run_study(b_list, nx_list, cfg: SolverConfig) -> list:
    """Solve every (b, nx) cell; non-convergence is recorded, not raised.
    Every b and every nx is checked before the first solve."""
    for b in b_list:
        _problem(b)
    _check_counts(*nx_list)
    rows = []
    for b in b_list:
        prob = manufactured_problem(b)
        for nx in nx_list:
            data = prob.discretize(nx, nx)
            state = run(data, cfg)
            err = l2_error(state.u, prob)
            rows.append(StudyRow(
                b=b, nx=nx, m=data.mesh.n_elements, l2_error=err,
                rel_l2_error=err / exact_l2_norm(prob, data.mesh),
                iterations=state.iteration,
                jh=state.energy,
                converged=state.converged,
            ))
    return rows


def fit_rate(rows) -> float:
    """Least-squares slope of log(error) vs log(h), h = 2/nx."""
    if len(rows) < 2:
        raise ValueError("rate fit needs at least two rows")
    if len({r.b for r in rows}) != 1 or len({r.nx for r in rows}) != len(rows):
        raise ValueError("rate fit needs one b and distinct nx values")
    for r in rows:
        # NaN fails the comparison, as an unconverged row's error may be
        if not 0.0 < r.l2_error < np.inf:
            raise ValueError(f"rate fit needs finite positive errors, "
                             f"got {r.l2_error!r} at nx={r.nx}")
    h = np.array([2.0 / r.nx for r in rows])
    err = np.array([r.l2_error for r in rows])
    return float(np.polyfit(np.log(h), np.log(err), 1)[0])
