"""Tensor-product Gauss-Legendre quadrature on mesh elements."""

from __future__ import annotations

import numpy as np

__all__ = ["gauss_points"]

# the 3-point Gauss-Legendre rule on [-1, 1], (nodes, weights), formed once
# and shared read-only by every caller
GAUSS_RULE = np.polynomial.legendre.leggauss(3)
GAUSS_RULE[0].flags.writeable = GAUSS_RULE[1].flags.writeable = False


def gauss_points(mesh):
    """3x3 Gauss quadrature one point at a time.

    Yields (x, y, w) for each of the 9 points: x, y that point's
    coordinates in every element, as (ny, nx) views broadcast from the
    grid axes, and w its weight, shared by all elements (uniform mesh)
    and including the Jacobian dx*dy/4. The points run along x first,
    then along y.
    """
    g, w = GAUSS_RULE
    gx, gy = np.meshgrid(g, g)
    wx, wy = np.meshgrid(w, w)
    wq = (wx * wy).ravel() * (mesh.dx * mesh.dy / 4.0)
    _, _, xc, yc = mesh.axes()
    for ox, oy, wt in zip(gx.ravel() * (mesh.dx / 2.0),
                          gy.ravel() * (mesh.dy / 2.0), wq):
        yield *np.broadcast_arrays(xc + ox, (yc + oy)[:, None]), wt
