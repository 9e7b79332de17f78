"""Uniform rectangular meshes as flat arrays, and edge penalty weights.

Element indexing is row-major (index = j*nx + i). Interior edges are
enumerated vertical-first then horizontal; boundary edges counterclockwise
starting from the bottom, so the outward normal is the edge direction
turned clockwise. The unit normal of an interior edge points from the
lower-indexed neighbor (the plus element) to the higher-indexed one.
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
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("domain must satisfy x_min < x_max and y_min < y_max")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


@dataclass
class Mesh:
    """Uniform nx-by-ny partition of dx-by-dy cells stored as flat arrays.

    Element k has area areas[k] and barycenter barycenters[k]. Interior
    edge k joins int_plus[k] and int_minus[k], has length int_length[k],
    unit normal int_normal[k] and midpoint int_mid[k]. Boundary edge k lies
    on element bnd_element[k], has length bnd_length[k] and runs from
    bnd_p0[k] to bnd_p1[k].
    """

    domain: Domain
    nx: int
    ny: int
    dx: float = field(repr=False)
    dy: float = field(repr=False)
    areas: np.ndarray = field(repr=False)
    barycenters: np.ndarray = field(repr=False)
    int_plus: np.ndarray = field(repr=False)
    int_minus: np.ndarray = field(repr=False)
    int_length: np.ndarray = field(repr=False)
    int_normal: np.ndarray = field(repr=False)
    int_mid: np.ndarray = field(repr=False)
    bnd_element: np.ndarray = field(repr=False)
    bnd_length: np.ndarray = field(repr=False)
    bnd_p0: np.ndarray = field(repr=False)
    bnd_p1: np.ndarray = field(repr=False)

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny


def _points(x, y) -> np.ndarray:
    """(n, 2) array of points; a scalar coordinate is shared by all."""
    return np.column_stack(np.broadcast_arrays(x, y))


def _pairs(i, j) -> tuple:
    """All (i, j) index pairs, j-major with i varying fastest."""
    ii, jj = np.meshgrid(i, j)
    return ii.ravel(), jj.ravel()


def build_uniform_mesh(domain: Domain, nx: int, ny: int) -> Mesh:
    """Partition the domain into nx*ny equal rectangles."""
    if nx < 1 or ny < 1:
        raise ValueError("element counts must be positive")
    dx = (domain.x_max - domain.x_min) / nx
    dy = (domain.y_max - domain.y_min) / ny
    xs = domain.x_min + np.arange(nx + 1) * dx
    ys = domain.y_min + np.arange(ny + 1) * dy
    x_mid, y_mid = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    cols, rows = np.arange(nx), np.arange(ny)

    vi, vj = _pairs(cols[:-1], rows)  # vertical interior edges
    hi, hj = _pairs(cols, rows[:-1])  # horizontal interior edges
    vk, hk = vj * nx + vi, hj * nx + hi

    # boundary: bottom left to right, right bottom to top, top right to
    # left, left top to bottom
    bnd_p0 = np.concatenate([
        _points(xs[:-1], domain.y_min), _points(domain.x_max, ys[:-1]),
        _points(xs[:0:-1], domain.y_max), _points(domain.x_min, ys[:0:-1])])
    bnd_p1 = np.concatenate([
        _points(xs[1:], domain.y_min), _points(domain.x_max, ys[1:]),
        _points(xs[-2::-1], domain.y_max), _points(domain.x_min, ys[-2::-1])])
    edge_vec = bnd_p1 - bnd_p0

    bx, by = _pairs(xs[:-1] + 0.5 * dx, ys[:-1] + 0.5 * dy)
    return Mesh(
        domain=domain, nx=nx, ny=ny, dx=dx, dy=dy,
        areas=np.full(nx * ny, dx * dy),
        barycenters=np.column_stack([bx, by]),
        int_plus=np.concatenate([vk, hk]),
        int_minus=np.concatenate([vk + 1, hk + nx]),
        int_length=np.concatenate([np.full(len(vk), dy),
                                   np.full(len(hk), dx)]),
        int_normal=np.repeat([[1.0, 0.0], [0.0, 1.0]], [len(vk), len(hk)],
                             axis=0),
        int_mid=np.concatenate([_points(xs[vi + 1], y_mid[vj]),
                                _points(x_mid[hi], ys[hj + 1])]),
        bnd_element=np.concatenate([cols, rows * nx + nx - 1,
                                    (ny - 1) * nx + cols[::-1],
                                    rows[::-1] * nx]),
        bnd_length=np.hypot(edge_vec[:, 0], edge_vec[:, 1]),
        bnd_p0=bnd_p0, bnd_p1=bnd_p1,
    )


def edge_weights(mesh: Mesh, exponent) -> tuple:
    """Penalty weights diam(e)^(-2/p'(x_e)) for all (interior, boundary)
    edges, with p' the conjugate exponent at the edge midpoint."""
    def weights(mid, length):
        p = np.asarray(exponent(mid[:, 0], mid[:, 1]), float)
        return length ** (-2.0 * (p - 1.0) / p)

    return (weights(mesh.int_mid, mesh.int_length),
            weights(0.5 * (mesh.bnd_p0 + mesh.bnd_p1), mesh.bnd_length))
