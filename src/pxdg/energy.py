"""Objective functionals: the flux energy F, the quadratic data term G,
their sum J_h, and the augmented Lagrangian coupling them.

F takes each element's exponent at its barycenter, the same p_bar that
grad_F and the solver's per-element flux equation read, so J_h is the
functional the solver minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dg import DgScalar, DgVector, _magnitude, lifting
from .exponent import ExponentField
from .mesh import GAUSS_RULE, Mesh, _sample, edge_weights, gauss_points

__all__ = [
    "ProblemData",
    "eval_F",
    "grad_F",
    "eval_G",
    "eval_Jh",
    "eval_lagrangian",
]


@dataclass(frozen=True)
class ProblemData:
    """Mesh, exponent field, data xi and boundary datum u_D.

    Every value that depends on these alone is computed on first use and
    kept here, so the energies and the solver share one copy of it.
    """

    mesh: Mesh
    exponent: ExponentField
    xi: callable
    u_D: callable

    @cached_property
    def p_bar(self) -> np.ndarray:
        """Exponent of every element at its barycenter, checked by the
        field, as an m-vector however many values the field returns."""
        _, _, xc, yc = self.mesh.axes()
        return self.exponent(xc, yc[:, None]).ravel()

    @cached_property
    def penalty_weights(self) -> tuple:
        """Penalty weight times length on the edge grids (cx, cy)."""
        return edge_weights(self.mesh, self.exponent)

    @cached_property
    def xi_moments(self) -> tuple:
        """(W, xbar, C, I) from xi at every element's 3x3 Gauss points,
        sampled one point at a time on the (ny, nx) grid into one
        (9, ny, nx) array: the element weight sum W, per-element integrals
        I and means xbar = I / W of xi as m-vectors, and
        C = sum_k sum_q w_q (xi_kq - xbar_k)^2, so that the data misfit of
        any v is W sum_k (v_k - xbar_k)^2 + C. The weighted sums over the
        points are products w @ xi, and the squares overwrite xi."""
        mesh = self.mesh
        xi, wq = np.empty((9, mesh.ny, mesh.nx)), np.empty(9)
        for q, (x, y, w) in enumerate(gauss_points(mesh)):
            xi[q], wq[q] = _sample(self.xi, x, y), w
        xi = xi.reshape(9, -1)
        total = float(wq.sum())
        integrals = wq @ xi
        xbar = integrals / total
        xi -= xbar
        xi *= xi
        spread = float((wq @ xi).sum())
        return total, xbar, spread, integrals

    @cached_property
    def boundary_moments(self) -> tuple:
        """(ux, uy, C) from u_D at every boundary edge's 3 Gauss points:
        its means ux (ny, 2) on the left and right sides and uy (2, nx) on
        the bottom and top, and C = sum_e c_e sum_q w_q (u_D,eq - ubar_e)^2,
        with c_e the edge's penalty weight times length and w_q the Gauss
        weights over 2, so that the boundary penalty of any v is
        sum_e c_e (v_k - ubar_e)^2 + C, k the element on edge e."""
        mesh = self.mesh
        xs, ys, xc, yc = mesh.axes()
        g, w = GAUSS_RULE
        g, w = 0.5 * g[:, None, None], 0.5 * w  # on [-1/2, 1/2], sum 1
        cx, cy = self.penalty_weights

        def moments(x, y, c):
            # u_D at points (3, ...): its means over axis 0, and C's share
            vals = _sample(self.u_D, x, y)
            mean = np.tensordot(w, vals, 1)
            spread = np.tensordot(w, (vals - mean) ** 2, 1)
            return mean, float((c * spread).sum())

        ux, sides = moments(xs[[0, -1]], yc[:, None] + g * mesh.dy,
                            cx[:, [0, -1]])
        uy, ends = moments(xc + g * mesh.dx, ys[[0, -1], None], cy[[0, -1]])
        return ux, uy, sides + ends

    @cached_property
    def load(self) -> np.ndarray:
        """Iteration-independent part of the right-hand side: the xi
        integrals plus c_e ubar_e on the element of every boundary edge."""
        mesh = self.mesh
        cx, cy = self.penalty_weights
        ux, uy, _ = self.boundary_moments
        load = self.xi_moments[3].reshape(mesh.ny, mesh.nx).copy()
        load[:, 0] += cx[:, 0] * ux[:, 0]
        load[:, -1] += cx[:, -1] * ux[:, 1]
        load[0] += cy[0] * uy[0]
        load[-1] += cy[-1] * uy[1]
        return load.ravel()


def eval_F(q: DgVector, data: ProblemData) -> float:
    """Sum of |k| |q_k|^{p_bar_k} / p_bar_k, p_bar_k the barycenter exponent."""
    p_bar = data.p_bar
    vals = _magnitude(q.values)
    np.power(vals, p_bar, out=vals)
    vals /= p_bar
    vals *= data.mesh.dx * data.mesh.dy
    return float(vals.sum())


def grad_F(q: DgVector, data: ProblemData) -> DgVector:
    """Per-element derivative density |q|^{p_bar - 2} q, zero where q = 0."""
    mag = _magnitude(q.values)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(mag > 0.0, mag ** (data.p_bar - 2.0), 0.0)
    return DgVector(data.mesh, factor[:, None] * q.values)


def _jumps(v: DgScalar, data: ProblemData) -> tuple:
    """(jx, jy): the jumps of v across every edge, on the edge grids, with
    ubar beyond the boundary."""
    mesh = data.mesh
    ux, uy, _ = data.boundary_moments
    grid = v.values.reshape(mesh.ny, mesh.nx)
    jx = np.empty((mesh.ny, mesh.nx + 1))
    jy = np.empty((mesh.ny + 1, mesh.nx))
    np.subtract(grid[:, :1], ux[:, :1], out=jx[:, :1])
    np.subtract(grid[:, 1:], grid[:, :-1], out=jx[:, 1:-1])
    np.subtract(ux[:, 1:], grid[:, -1:], out=jx[:, -1:])
    np.subtract(grid[:1], uy[:1], out=jy[:1])
    np.subtract(grid[1:], grid[:-1], out=jy[1:-1])
    np.subtract(uy[1:], grid[-1:], out=jy[-1:])
    return jx, jy


def _squares(misfit: np.ndarray, jx: np.ndarray, jy: np.ndarray,
             data: ProblemData) -> tuple:
    """W misfit . misfit and the sum of cx jx^2 + cy jy^2, the jumps
    squared in place: G without its constants C (see xi_moments and
    boundary_moments)."""
    total = data.xi_moments[0]
    for c, j in zip(data.penalty_weights, (jx, jy)):
        j *= j
        j *= c
    return total * float(misfit @ misfit), float(jx.sum() + jy.sum())


def eval_G(v: DgScalar, data: ProblemData) -> float:
    """Half of: mean-square data misfit + weighted boundary and jump
    penalties. Where their sum overflows but every misfit and jump is
    finite, they are divided by their largest magnitude top first and the
    sum multiplied back by top twice, as dg.l2_norm scales, so that G is
    inf only where it is itself."""
    spread, bnd_spread = data.xi_moments[2], data.boundary_moments[2]
    misfit = v.values - data.xi_moments[1]
    with np.errstate(over="ignore"):
        data_sq, edge_sq = _squares(misfit, *_jumps(v, data), data)
        energy = 0.5 * ((data_sq + spread) + (edge_sq + bnd_spread))
        if energy == np.inf:
            parts = (misfit, *_jumps(v, data))  # the jumps again, unsquared
            top = max(float(np.abs(part).max()) for part in parts)
            if top < np.inf:  # and not NaN
                data_sq, edge_sq = _squares(*(part / top for part in parts),
                                            data)
                energy = 0.5 * ((data_sq + edge_sq) * top * top
                                + spread + bnd_spread)
    return energy


def eval_Jh(v: DgScalar, data: ProblemData,
            bv: DgVector | None = None) -> float:
    """Total objective F(Bv) + G(v), the functional the solver minimizes;
    bv, if given, is the lifting Bv, which is then not formed again."""
    return eval_F(lifting(v) if bv is None else bv, data) + eval_G(v, data)


def eval_lagrangian(v: DgScalar, q: DgVector, lam: DgVector,
                    data: ProblemData, r: float) -> float:
    """F(q) + G(v) + <lam, Bv - q> + (r/2) ||Bv - q||^2 (L2 pairings)."""
    mesh = data.mesh
    gap = lifting(v).values - q.values
    area = mesh.dx * mesh.dy
    inner = float((area * lam.values * gap).sum())
    penalty = float((area * gap ** 2).sum())
    return eval_F(q, data) + eval_G(v, data) + inner + 0.5 * r * penalty
