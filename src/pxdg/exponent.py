"""Variable-exponent calculus: p(x) fields, modulars, and the Luxemburg norm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import element_points

__all__ = [
    "ExponentField",
    "conjugate",
    "manufactured_exponent",
    "modular",
    "luxemburg_norm",
]


@dataclass(frozen=True)
class ExponentField:
    """Evaluator for a variable exponent p(x) with bounds 1 < p1 <= p2 <= 2."""

    func: callable
    p1: float
    p2: float

    def __post_init__(self):
        if not (1.0 < self.p1 <= self.p2 <= 2.0):
            raise ValueError("exponent bounds must satisfy 1 < p1 <= p2 <= 2")

    def __call__(self, x, y):
        return self.func(x, y)

    def barycenter_values(self, mesh) -> np.ndarray:
        """One-point (barycenter) samples p(x_bar) per element."""
        b = mesh.barycenters
        return np.asarray(self.func(b[:, 0], b[:, 1]), float)


def conjugate(p_value):
    """Conjugate exponent p/(p-1); accepts scalars or arrays."""
    p = np.asarray(p_value, float)
    if np.any(p <= 1.0):
        raise ValueError("conjugate exponent requires p > 1")
    out = p / (p - 1.0)
    return float(out) if np.isscalar(p_value) else out


def manufactured_exponent(b: float) -> ExponentField:
    """Exponent family on [-1,1]^2: p(x) = 1 + 1/((b/2)(x1+x2) + 1 + b),
    with p1 = 1 + 1/(1+2b), p2 = 2; b = 0 gives the constant 2."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    func = lambda x, y: 1.0 + 1.0 / ((b / 2.0) * (np.asarray(x, float) + y) + 1.0 + b)
    return ExponentField(func, p1=1.0 + 1.0 / (1.0 + 2.0 * b), p2=2.0)


def _field_magnitude(field) -> np.ndarray:
    vals = np.asarray(getattr(field, "values", field), float)
    if vals.ndim == 2:
        return np.hypot(vals[:, 0], vals[:, 1])
    return np.abs(vals)


def modular(field, exponent: ExponentField, mesh) -> float:
    """Integral of |u|^{p(x)} over the domain, 3x3 Gauss per element.

    Accepts a P0 coefficient array of shape (m,) or (m, 2), or any object
    with such a .values attribute.
    """
    mag = _field_magnitude(field)
    xq, yq, wq = element_points(mesh)
    pq = np.asarray(exponent(xq, yq), float)
    # p > 1, so a zero magnitude contributes 0 ** p = 0
    return float((mag[:, None] ** pq * wq[None, :]).sum())


def luxemburg_norm(field, exponent: ExponentField, mesh) -> float:
    """inf{k > 0 : modular(u/k) <= 1}, by bisection to 1e-12 relative."""
    mag = _field_magnitude(field)
    if not np.any(mag > 0.0):
        return 0.0
    xq, yq, wq = element_points(mesh)
    pq = np.asarray(exponent(xq, yq), float)

    def rho(k):
        return float(((mag[:, None] / k) ** pq * wq[None, :]).sum())

    k = max(rho(1.0), 1.0)
    # rho(k) is strictly decreasing in k; expand/shrink by 2 to bracket 1
    lo = hi = k
    while rho(hi) > 1.0:
        hi *= 2.0
    while rho(lo) <= 1.0 and lo > 1e-300:
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)
