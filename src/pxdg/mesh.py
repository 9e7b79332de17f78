"""Uniform rectangular meshes, the point sets on their grids, the one
sampler of data at those points, and edge penalty weights.

Element indexing is row-major (index = j*nx + i), so a P0 field reshapes
to an (ny, nx) grid. The edges form two grids of the same kind: the
vertical edges an (ny, nx + 1) grid, whose column i is the grid line left
of element column i, and the horizontal edges an (ny + 1, nx) grid, whose
row j is the grid line below element row j. Their outer columns and rows
are the boundary edges.

Every point set is built from Mesh.axes(), dx and dy: the barycenters,
the edge midpoints, the 3x3 Gauss points of every element (gauss_points)
and the 3 Gauss points of every boundary edge (GAUSS_RULE). A datum, be
it p, xi, u_D or an exact solution, is a callable f(x, y) sampled only by
_sample, which hands it one grid-shaped pair of points and accepts an
array of their shape or one number for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Domain",
    "Mesh",
    "build_uniform_mesh",
    "edge_weights",
    "gauss_points",
]

# the 3-point Gauss-Legendre rule on [-1, 1], (nodes, weights), formed once
# and shared read-only by every caller
GAUSS_RULE = np.polynomial.legendre.leggauss(3)
GAUSS_RULE[0].flags.writeable = GAUSS_RULE[1].flags.writeable = False


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangular domain."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (0 < self.x_max - self.x_min < np.inf
                and 0 < self.y_max - self.y_min < np.inf):
            raise ValueError("domain needs finite x_min < x_max and y_min < y_max")


def _check_counts(*counts) -> None:
    """A ValueError naming the first count that is no positive integer."""
    for n in counts:
        # bool is an int subclass, but True is no element count
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                and n > 0):
            raise ValueError(
                f"element counts must be positive integers, got {n!r}")


@dataclass
class Mesh:
    """Uniform nx-by-ny partition of the domain into dx-by-dy cells.

    Every element has area dx * dy; its barycenter and its edges are
    implied by the grid (see axes() and the module docstring).
    """

    domain: Domain
    nx: int
    ny: int
    dx: float = field(init=False, repr=False)
    dy: float = field(init=False, repr=False)

    def __post_init__(self):
        _check_counts(self.nx, self.ny)
        self.dx = (self.domain.x_max - self.domain.x_min) / self.nx
        self.dy = (self.domain.y_max - self.domain.y_min) / self.ny

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    def axes(self) -> tuple:
        """(xs, ys, xc, yc): the nx + 1 and ny + 1 grid lines, from the
        domain's low side to its high side, and the nx and ny cell centers."""
        d = self.domain
        return (np.linspace(d.x_min, d.x_max, self.nx + 1),
                np.linspace(d.y_min, d.y_max, self.ny + 1),
                d.x_min + np.arange(self.nx) * self.dx + 0.5 * self.dx,
                d.y_min + np.arange(self.ny) * self.dy + 0.5 * self.dy)


def build_uniform_mesh(domain: Domain, nx: int, ny: int) -> Mesh:
    """Partition the domain into nx*ny equal rectangles."""
    return Mesh(domain, nx, ny)


def edge_weights(mesh: Mesh, exponent) -> tuple:
    """Penalty weight times length, diam(e)^(-2/p'(x_e)) |e| with p' the
    conjugate exponent at the edge midpoint x_e, on the vertical-edge grid
    (ny, nx + 1) and the horizontal-edge grid (ny + 1, nx): (cx, cy)."""
    xs, ys, xc, yc = mesh.axes()

    def priced(x, y, length):
        p = exponent(x, y)
        return length ** (-2.0 * (p - 1.0) / p) * length

    return (priced(xs[None, :], yc[:, None], mesh.dy),
            priced(xc[None, :], ys[:, None], mesh.dx))


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


def _sample(func, x, y) -> np.ndarray:
    """func at the points (x, y), broadcast to one shape and passed in one
    call, as a float array of that shape. func returns an array of that
    shape or one number for every point; any other shape is a ValueError
    naming both shapes."""
    x, y = np.broadcast_arrays(x, y)
    vals = np.asarray(func(x, y), float)
    if vals.shape == x.shape:
        return vals
    if vals.shape:
        raise ValueError(f"a datum sampled at points of shape {x.shape} "
                         f"returned shape {vals.shape}")
    return np.broadcast_to(vals, x.shape)
