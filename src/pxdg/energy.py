"""Objective functionals: the flux energy F, the quadratic data term G,
their sum J_h, and the augmented Lagrangian coupling them.

F comes in two quadrature flavors: a reference 3x3-Gauss evaluation with
pointwise p(x), and a one-point barycenter-rule evaluation consistent with
grad_F and with the solver's per-element flux equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dg import DgScalar, DgVector, lifting
from .exponent import ExponentField
from .mesh import Mesh, edge_weights
from .quadrature import boundary_points, element_points

__all__ = [
    "ProblemData",
    "EnergyReport",
    "eval_F",
    "eval_F_barycenter",
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
        """Barycenter exponent of every element."""
        return self.exponent.barycenter_values(self.mesh)

    @cached_property
    def penalty_weights(self) -> tuple:
        """Edge penalty weights (interior, boundary)."""
        return edge_weights(self.mesh, self.exponent)

    @cached_property
    def element_quadrature(self) -> tuple:
        """(wq, p, xi): 3x3 Gauss weights shared by all elements, and p and
        xi at every element's Gauss points."""
        xq, yq, wq = element_points(self.mesh)
        return (wq, np.asarray(self.exponent(xq, yq), float),
                np.asarray(self.xi(xq, yq), float))

    @cached_property
    def xi_moments(self) -> tuple:
        """(W, xbar, C): element weight sum W, per-element means xbar of xi,
        and C = sum_k sum_q w_q (xi_kq - xbar_k)^2, so that the data misfit
        of any v is W sum_k (v_k - xbar_k)^2 + C."""
        wq, _, xi = self.element_quadrature
        total = float(wq.sum())
        xbar = (xi @ wq) / total
        spread = float(((xi - xbar[:, None]) ** 2 @ wq).sum())
        return total, xbar, spread

    @cached_property
    def boundary_quadrature(self) -> tuple:
        """(bw, u_D): Gauss weights and u_D values on every boundary edge."""
        bx, by, bw = boundary_points(self.mesh)
        return bw, np.asarray(self.u_D(bx, by), float)

    @cached_property
    def load(self) -> np.ndarray:
        """Iteration-independent part of the right-hand side: data and
        boundary terms."""
        wq, _, xi = self.element_quadrature
        bw, u_d = self.boundary_quadrature
        load = (xi * wq[None, :]).sum(axis=1)
        bvals = (u_d * bw).sum(axis=1) * self.penalty_weights[1]
        np.add.at(load, self.mesh.bnd_element, bvals)
        return load


@dataclass(frozen=True)
class EnergyReport:
    F_value: float
    G_value: float
    J_value: float


def eval_F(q: DgVector, data: ProblemData) -> float:
    """Integral of |q|^{p(x)} / p(x), 3x3 Gauss with pointwise p."""
    wq, pq, _ = data.element_quadrature
    # |q|^p = exp(p log|q|): one log per element; q = 0 gives exp(-inf) = 0
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.hypot(q.values[:, 0], q.values[:, 1]))
    vals = pq * log_mag[:, None]
    np.exp(vals, out=vals)
    vals /= pq
    return float((vals @ wq).sum())


def eval_F_barycenter(q: DgVector, data: ProblemData) -> float:
    """One-point variant: |k| |q_k|^{p_bar} / p_bar with barycenter exponents."""
    p_bar = data.p_bar
    mag = np.hypot(q.values[:, 0], q.values[:, 1])
    vals = mag ** p_bar / p_bar
    return float((data.mesh.areas * vals).sum())


def grad_F(q: DgVector, data: ProblemData) -> DgVector:
    """Per-element derivative density |q|^{p_bar - 2} q, zero where q = 0."""
    mag = np.hypot(q.values[:, 0], q.values[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(mag > 0.0, mag ** (data.p_bar - 2.0), 0.0)
    return DgVector(data.mesh, factor[:, None] * q.values)


def eval_G(v: DgScalar, data: ProblemData) -> float:
    """Half of: mean-square data misfit + weighted boundary and jump penalties."""
    mesh = data.mesh
    total, xbar, spread = data.xi_moments
    data_term = total * float(((v.values - xbar) ** 2).sum()) + spread

    w_int, w_bnd = data.penalty_weights
    du = v.values[mesh.int_plus] - v.values[mesh.int_minus]
    jump_term = float((w_int * mesh.int_length * du ** 2).sum())

    bw, u_d = data.boundary_quadrature
    diff = v.values[mesh.bnd_element][:, None] - u_d
    bnd_term = float((w_bnd[:, None] * bw * diff ** 2).sum())
    return 0.5 * (data_term + jump_term + bnd_term)


def eval_Jh(v: DgScalar, data: ProblemData) -> EnergyReport:
    """Total objective F(Bv) + G(v) with the reference F quadrature."""
    fv = eval_F(lifting(v), data)
    gv = eval_G(v, data)
    return EnergyReport(F_value=fv, G_value=gv, J_value=fv + gv)


def eval_lagrangian(v: DgScalar, q: DgVector, lam: DgVector,
                    data: ProblemData, r: float) -> float:
    """F(q) + G(v) + <lam, Bv - q> + (r/2) ||Bv - q||^2 (L2 pairings)."""
    mesh = data.mesh
    gap = lifting(v).values - q.values
    inner = float((mesh.areas[:, None] * lam.values * gap).sum())
    penalty = float((mesh.areas[:, None] * gap ** 2).sum())
    return eval_F(q, data) + eval_G(v, data) + inner + 0.5 * r * penalty
