"""Manufactured problem family, error measurement, and convergence studies.

The family is built so the flux |grad u|^{p(x)-2} grad u is the constant
(sqrt(2) e / 2)(1, 1), hence divergence-free; with xi = u and u_D = u the
exact minimizer of the continuous problem is u itself, enabling direct
L2 error measurement under mesh refinement.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .dg import DgScalar
from .energy import ProblemData
from .exponent import ExponentField, manufactured_exponent
from .mesh import Domain, build_uniform_mesh
from .quadrature import element_points
from .solver import SolverConfig, run

__all__ = [
    "FLUX_CONSTANT",
    "ManufacturedProblem",
    "StudyRow",
    "manufactured_problem",
    "l2_error",
    "run_study",
    "fit_rate",
    "write_study_csv",
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


def manufactured_problem(b: float) -> ManufacturedProblem:
    """Problem with known solution; b = 0 is the linear (p = 2) case."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    exponent = manufactured_exponent(b)
    if b == 0:
        exact = lambda x, y: FLUX_CONSTANT * (np.asarray(x, float) + y)
        grad = lambda x, y: (np.full_like(np.asarray(x, float), FLUX_CONSTANT),
                             np.full_like(np.asarray(x, float), FLUX_CONSTANT))
    else:
        amp = np.sqrt(2.0) * np.exp(b + 1.0) / b

        def exact(x, y, amp=amp, b=b):
            return amp * (np.exp((b / 2.0) * (np.asarray(x, float) + y)) - 1.0)

        def grad(x, y, amp=amp, b=b):
            g = amp * (b / 2.0) * np.exp((b / 2.0) * (np.asarray(x, float) + y))
            return (g, g.copy())

    prob = ManufacturedProblem(b=b, exponent=exponent, exact_u=exact, grad_u=grad)
    _flux_self_check(prob)
    return prob


def _flux_self_check(prob: ManufacturedProblem, n: int = 10) -> None:
    """Certify |grad u|^{p-2} grad u = FLUX_CONSTANT * (1,1) at random points."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.uniform(-1.0, 1.0, n)
    gx, gy = prob.grad_u(x, y)
    mag = np.hypot(gx, gy)
    p = np.asarray(prob.exponent(x, y), float)
    flux_x = mag ** (p - 2.0) * gx
    flux_y = mag ** (p - 2.0) * gy
    dev = max(np.abs(flux_x - FLUX_CONSTANT).max(),
              np.abs(flux_y - FLUX_CONSTANT).max())
    if dev > 1e-10:
        raise AssertionError(f"manufactured flux is not constant (dev={dev:g})")


def l2_error(u_h: DgScalar, prob: ManufacturedProblem) -> float:
    """L2 distance between a P0 field and the exact solution, 3x3 Gauss."""
    mesh = u_h.mesh
    xq, yq, wq = element_points(mesh)
    diff = u_h.values[:, None] - np.asarray(prob.exact_u(xq, yq), float)
    return float(np.sqrt((wq[None, :] * diff ** 2).sum()))


@dataclass
class StudyRow:
    b: float
    nx: int
    m: int
    l2_error: float
    iterations: int
    jh: float
    converged: bool


def run_study(b_list, nx_list, cfg: SolverConfig) -> list:
    """Solve every (b, nx) cell; non-convergence is recorded, not raised."""
    rows = []
    for b in b_list:
        prob = manufactured_problem(b)
        for nx in nx_list:
            mesh = build_uniform_mesh(prob.domain, nx, nx)
            data = ProblemData(mesh=mesh, exponent=prob.exponent,
                               xi=prob.xi, u_D=prob.u_D)
            state = run(data, cfg)
            rows.append(StudyRow(
                b=b, nx=nx, m=mesh.n_elements,
                l2_error=l2_error(state.u, prob),
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
    h = np.array([2.0 / r.nx for r in rows])
    err = np.array([r.l2_error for r in rows])
    return float(np.polyfit(np.log(h), np.log(err), 1)[0])


def write_study_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["b", "nx", "m", "l2_error", "iterations", "jh",
                      "converged"])
        for r in rows:
            out.writerow(["%.12g" % r.b, r.nx, r.m, "%.12g" % r.l2_error,
                          r.iterations, "%.12g" % r.jh, int(r.converged)])
