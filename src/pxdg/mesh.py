"""Uniform rectangular meshes, and edge penalty weights on the edge grids.

Element indexing is row-major (index = j*nx + i), so a P0 field reshapes
to an (ny, nx) grid. The edges form two grids of the same kind: the
vertical edges an (ny, nx + 1) grid, whose column i is the grid line left
of element column i, and the horizontal edges an (ny + 1, nx) grid, whose
row j is the grid line below element row j. Their outer columns and rows
are the boundary edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Domain",
    "Mesh",
    "build_uniform_mesh",
    "edge_weights",
]


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
        # bool is an int subclass, but True is no element count
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   and n > 0 for n in (self.nx, self.ny)):
            raise ValueError("element counts must be positive integers")
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
        x, y = np.broadcast_arrays(x, y)
        p = np.broadcast_to(exponent(x, y), x.shape)
        return length ** (-2.0 * (p - 1.0) / p) * length

    return (priced(xs[None, :], yc[:, None], mesh.dy),
            priced(xc[None, :], ys[:, None], mesh.dx))
