"""Uniform rectangular meshes: elements, edges, normals, penalty weights.

Element indexing is row-major (index = j*nx + i). Interior edges are
enumerated vertical-first then horizontal; boundary edges counterclockwise
starting from the bottom. The unit normal of an interior edge points from
the lower-indexed neighbor (the plus element) to the higher-indexed one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Domain",
    "Element",
    "Edge",
    "Mesh",
    "build_uniform_mesh",
    "edge_weights",
    "write_mesh_csv",
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


@dataclass(frozen=True)
class Element:
    """Rectangular cell with precomputed geometry."""

    index: int
    bounds: tuple  # (x_min, x_max, y_min, y_max)
    area: float
    barycenter: tuple
    diameter: float


@dataclass(frozen=True)
class Edge:
    """Straight mesh edge; minus_element is None on the boundary."""

    index: int
    endpoints: tuple  # ((x0, y0), (x1, y1))
    length: float
    diameter: float
    plus_element: int
    minus_element: int | None
    nu_plus: tuple

    @property
    def is_boundary(self) -> bool:
        return self.minus_element is None

    @property
    def midpoint(self) -> tuple:
        (x0, y0), (x1, y1) = self.endpoints
        return (0.5 * (x0 + x1), 0.5 * (y0 + y1))


@dataclass
class Mesh:
    """Uniform nx-by-ny partition stored as flat arrays.

    x_lines and y_lines are the grid lines. Interior edge k joins
    int_plus[k] and int_minus[k], runs from int_p0[k] to int_p1[k] and has
    unit normal int_normal[k]; boundary edge k lies on element
    bnd_element[k], runs from bnd_p0[k] to bnd_p1[k] and has outward normal
    bnd_normal[k]. The Element and Edge lists are views built from these
    arrays on first access.
    """

    domain: Domain
    nx: int
    ny: int
    dx: float = field(repr=False)
    dy: float = field(repr=False)
    x_lines: np.ndarray = field(repr=False)
    y_lines: np.ndarray = field(repr=False)
    areas: np.ndarray = field(repr=False)
    barycenters: np.ndarray = field(repr=False)
    int_plus: np.ndarray = field(repr=False)
    int_minus: np.ndarray = field(repr=False)
    int_length: np.ndarray = field(repr=False)
    int_normal: np.ndarray = field(repr=False)
    int_p0: np.ndarray = field(repr=False)
    int_p1: np.ndarray = field(repr=False)
    bnd_element: np.ndarray = field(repr=False)
    bnd_length: np.ndarray = field(repr=False)
    bnd_normal: np.ndarray = field(repr=False)
    bnd_p0: np.ndarray = field(repr=False)
    bnd_p1: np.ndarray = field(repr=False)

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @property
    def int_mid(self) -> np.ndarray:
        return 0.5 * (self.int_p0 + self.int_p1)

    @property
    def bnd_mid(self) -> np.ndarray:
        return 0.5 * (self.bnd_p0 + self.bnd_p1)

    @cached_property
    def elements(self) -> list:
        dx, dy = self.dx, self.dy
        diam = float(np.hypot(dx, dy))
        xs, ys = self.x_lines.tolist(), self.y_lines.tolist()
        return [Element(index=j * self.nx + i,
                        bounds=(xs[i], xs[i] + dx, ys[j], ys[j] + dy),
                        area=dx * dy,
                        barycenter=(xs[i] + 0.5 * dx, ys[j] + 0.5 * dy),
                        diameter=diam)
                for j in range(self.ny) for i in range(self.nx)]

    @cached_property
    def interior_edges(self) -> list:
        return _edge_views(self.int_p0, self.int_p1, self.int_length,
                           self.int_plus, self.int_minus.tolist(),
                           self.int_normal)

    @cached_property
    def boundary_edges(self) -> list:
        return _edge_views(self.bnd_p0, self.bnd_p1, self.bnd_length,
                           self.bnd_element, [None] * len(self.bnd_element),
                           self.bnd_normal)

    def element_edges(self, index: int) -> list:
        """Indices into interior_edges + boundary_edges incident to an element.

        Boundary edges are offset by the interior edge count so indices are
        unique; each list is ascending.
        """
        return self._incidence[index]

    @cached_property
    def _incidence(self) -> list:
        n_int = len(self.int_plus)
        owner = np.concatenate([self.int_plus, self.int_minus,
                                self.bnd_element])
        edge = np.concatenate([np.arange(n_int), np.arange(n_int),
                               n_int + np.arange(len(self.bnd_element))])
        order = np.lexsort((edge, owner))
        counts = np.bincount(owner, minlength=self.n_elements)
        return [ids.tolist()
                for ids in np.split(edge[order], np.cumsum(counts)[:-1])]


def _edge_views(p0, p1, length, plus, minus, normal) -> list:
    return [Edge(index=k, endpoints=(tuple(a), tuple(b)), length=le,
                 diameter=le, plus_element=pl, minus_element=mi,
                 nu_plus=tuple(nu))
            for k, (a, b, le, pl, mi, nu) in enumerate(zip(
                p0.tolist(), p1.tolist(), length.tolist(), plus.tolist(),
                minus, normal.tolist()))]


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
        domain=domain, nx=nx, ny=ny, dx=dx, dy=dy, x_lines=xs, y_lines=ys,
        areas=np.full(nx * ny, dx * dy),
        barycenters=np.column_stack([bx, by]),
        int_plus=np.concatenate([vk, hk]),
        int_minus=np.concatenate([vk + 1, hk + nx]),
        int_length=np.concatenate([np.full(len(vk), dy),
                                   np.full(len(hk), dx)]),
        int_normal=np.repeat([[1.0, 0.0], [0.0, 1.0]], [len(vk), len(hk)],
                             axis=0),
        int_p0=np.concatenate([_points(xs[vi + 1], ys[vj]),
                               _points(xs[hi], ys[hj + 1])]),
        int_p1=np.concatenate([_points(xs[vi + 1], ys[vj + 1]),
                               _points(xs[hi + 1], ys[hj + 1])]),
        bnd_element=np.concatenate([cols, rows * nx + nx - 1,
                                    (ny - 1) * nx + cols[::-1],
                                    rows[::-1] * nx]),
        bnd_length=np.hypot(edge_vec[:, 0], edge_vec[:, 1]),
        bnd_normal=np.repeat([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0],
                              [-1.0, 0.0]], [nx, ny, nx, ny], axis=0),
        bnd_p0=bnd_p0, bnd_p1=bnd_p1,
    )


def edge_weights(mesh: Mesh, exponent) -> tuple:
    """Penalty weights diam(e)^(-2/p'(x_e)) for all (interior, boundary)
    edges, with p' the conjugate exponent at the edge midpoint."""
    p_int = np.asarray(exponent(mesh.int_mid[:, 0], mesh.int_mid[:, 1]), float)
    p_bnd = np.asarray(exponent(mesh.bnd_mid[:, 0], mesh.bnd_mid[:, 1]), float)
    w_int = mesh.int_length ** (-2.0 * (p_int - 1.0) / p_int)
    w_bnd = mesh.bnd_length ** (-2.0 * (p_bnd - 1.0) / p_bnd)
    return w_int, w_bnd


def write_mesh_csv(mesh: Mesh, path) -> None:
    """Dump elements then edges for debugging."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["element_index", "x_min", "x_max", "y_min", "y_max"])
        for e in mesh.elements:
            out.writerow([e.index, *("%.12g" % v for v in e.bounds)])
        out.writerow(["edge_index", "kind", "plus", "minus", "length"])
        for e in mesh.interior_edges:
            out.writerow([e.index, "interior", e.plus_element, e.minus_element,
                          "%.12g" % e.length])
        for e in mesh.boundary_edges:
            out.writerow([e.index, "boundary", e.plus_element, "",
                          "%.12g" % e.length])
