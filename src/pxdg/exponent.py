"""Variable-exponent calculus: p(x) fields, modulars, and the Luxemburg norm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dg import _magnitude
from .mesh import _sample, gauss_points

__all__ = [
    "ExponentField",
    "modular",
    "luxemburg_norm",
]


@dataclass(frozen=True)
class ExponentField:
    """Variable exponent p(x) with bounds 1 < p1 <= p2 <= 2. Calling the
    field is the one way to sample p, and it checks every value it returns."""

    func: callable
    p1: float
    p2: float

    def __post_init__(self):
        if not (1.0 < self.p1 <= self.p2 <= 2.0):
            raise ValueError("exponent bounds must satisfy 1 < p1 <= p2 <= 2")

    def __call__(self, x, y) -> np.ndarray:
        """p at the points (x, y), sampled by mesh._sample, as a float
        array of their broadcast shape; a value outside [p1, p2], or not
        finite, is a ValueError naming its point."""
        p = _sample(self.func, x, y)
        # NaN fails both comparisons, and +-inf lies outside [p1, p2]
        bad = np.flatnonzero(~((self.p1 <= p) & (p <= self.p2)))
        if bad.size:
            x, y, p = (a.flat[bad[0]] for a in np.broadcast_arrays(x, y, p))
            raise ValueError(f"exponent {p:g} at ({x:g}, {y:g}), "
                             f"outside [{self.p1:g}, {self.p2:g}]")
        return p


def _field_magnitude(field) -> np.ndarray:
    vals = np.asarray(getattr(field, "values", field), float)
    if vals.ndim == 2:
        return _magnitude(vals)
    return np.abs(vals)


def _scaled_modular(mag, exponent: ExponentField, mesh):
    """rho(k) = integral of (mag / k)^{p(x)}, 3x3 Gauss per element, for
    the m-vector mag; p is sampled once per Gauss point, on the (ny, nx)
    grid, however often rho is called."""
    mag = mag.reshape(mesh.ny, mesh.nx)
    samples = [(exponent(x, y), w) for x, y, w in gauss_points(mesh)]

    def rho(k):
        scaled = mag / k
        # p > 1, so a zero magnitude contributes 0 ** p = 0
        return float(sum(w * (scaled ** p).sum() for p, w in samples))

    return rho


def modular(field, exponent: ExponentField, mesh) -> float:
    """Integral of |u|^{p(x)} over the domain, 3x3 Gauss per element.

    Accepts a P0 coefficient array of shape (m,) or (m, 2), or any object
    with such a .values attribute.
    """
    return _scaled_modular(_field_magnitude(field), exponent, mesh)(1.0)


def luxemburg_norm(field, exponent: ExponentField, mesh) -> float:
    """inf{k > 0 : modular(u/k) <= 1}, by bisection to 1e-12 relative;
    NaN for a field with a NaN magnitude, inf for one with an infinite one.

    The norm is homogeneous, ||c u|| = |c| ||u||, so the search runs on
    u / max|u|, whose modular stays finite at every k tried and whose norm
    does not depend on the scale of u, and scales the result back.
    """
    mag = _field_magnitude(field)
    # a NaN magnitude is not 0, and makes the norm NaN
    if np.all(mag == 0.0):
        return 0.0
    top = mag.max()  # NaN if any magnitude is NaN
    finite = np.isfinite(top)
    rho = _scaled_modular(mag / top if finite else mag, exponent, mesh)
    # no k brackets the norm of a NaN magnitude (every comparison with a
    # NaN modular is false) or of an infinite one (the modular is inf)
    if not finite:
        return float(top)
    # rho(k) is strictly decreasing in k; step by 2 from k = 1 to bracket 1
    lo = hi = 1.0
    while rho(hi) > 1.0:
        lo, hi = hi, 2.0 * hi
    while rho(lo) <= 1.0:
        lo, hi = 0.5 * lo, lo
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return float(top * (0.5 * (lo + hi)))
