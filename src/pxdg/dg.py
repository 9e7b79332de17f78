"""Broken P0 spaces: the jump lifting, and B = grad + lifting.

For piecewise constants the broken gradient vanishes identically, so B
reduces to the lifting; constants are in its kernel. B and B^T apply one
1-D stencil D, or its transpose, along each grid axis, written in place
into the output array; no matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

__all__ = [
    "DgScalar",
    "DgVector",
    "lifting",
    "lifting_adjoint",
    "l2_norm",
]


@dataclass
class DgScalar:
    """P0 scalar field: one coefficient per element."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != (self.mesh.n_elements,):
            raise ValueError("scalar field needs one value per element")


@dataclass
class DgVector:
    """P0 vector field: one 2-vector per element."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != (self.mesh.n_elements, 2):
            raise ValueError("vector field needs one 2-vector per element")


def _stencil(ca: np.ndarray, out: np.ndarray, adjoint: bool):
    """Write D a, or D^T a, along the first axis of ca = a / (2h) into out.

    D, the lifting along an axis of n cells of width h, sums half the
    differences across each cell's interior edges: ca[i+1] - ca[i-1], and
    ca[1] - ca[0] and ca[n-1] - ca[n-2] at the ends. D^T is -D except in
    its end rows, -ca[0] - ca[1] and ca[n-2] + ca[n-1]. D = 0 at n = 1.
    """
    if len(ca) == 1:
        out[...] = 0.0
    elif adjoint:
        np.subtract(ca[:-2], ca[2:], out=out[1:-1])
        np.subtract(-ca[0], ca[1], out=out[0])
        np.add(ca[-2], ca[-1], out=out[-1])
    else:
        np.subtract(ca[2:], ca[:-2], out=out[1:-1])
        np.subtract(ca[1], ca[0], out=out[0])
        np.subtract(ca[-1], ca[-2], out=out[-1])


def lifting(u: DgScalar) -> DgVector:
    """Per-element vector field representing the inter-element jumps.

    Defined by the identity sum_k |k| <R(u)_k, phi_k> =
    -sum_e |e| <[u]_e, {phi}_e> over all P0 vector test fields, which
    localizes to R(u)|_k = -(1/|k|) sum_{e in dk interior} (|e|/2) [u]_e.
    """
    mesh = u.mesh
    grid = u.values.reshape(mesh.ny, mesh.nx)
    out = np.empty((mesh.ny, mesh.nx, 2))
    _stencil((grid * (1.0 / (2.0 * mesh.dx))).T, out[..., 0].T, adjoint=False)
    _stencil(grid * (1.0 / (2.0 * mesh.dy)), out[..., 1], adjoint=False)
    return DgVector(mesh, out.reshape(-1, 2))


def lifting_adjoint(q: DgVector) -> np.ndarray:
    """The v with v . u = sum_k |k| <q_k, R(u)_k> for every m-vector u:
    with w = |k| q as two (ny, nx) arrays, v = w_x D_x + D_y^T w_y."""
    mesh = q.mesh
    area = mesh.dx * mesh.dy
    out, part = np.empty((mesh.ny, mesh.nx)), np.empty((mesh.ny, mesh.nx))
    w = (area * q.values[:, 0]).reshape(mesh.ny, mesh.nx)
    w *= 1.0 / (2.0 * mesh.dx)
    _stencil(w.T, out.T, adjoint=True)
    np.multiply(area, q.values[:, 1].reshape(mesh.ny, mesh.nx), out=w)
    w *= 1.0 / (2.0 * mesh.dy)  # w_y in w_x's buffer: 3 arrays at most
    _stencil(w, part, adjoint=True)
    out += part
    return out.ravel()


def l2_norm(field) -> float:
    """Area-weighted L2 norm of a P0 scalar or vector field: the root of
    area times one dot product of its values, inf or NaN where they are.
    Where that product overflows but every value is finite, the norm is
    top sqrt(area (v / top) . (v / top)), top = max|v|."""
    mesh = field.mesh
    v = field.values.ravel()
    area = mesh.dx * mesh.dy
    with np.errstate(over="ignore"):  # inf only where the norm itself is
        norm = float(np.sqrt(area * (v @ v)))
        if norm == np.inf and np.isfinite(v).all():
            top = np.abs(v).max()
            v = v / top
            norm = float(top * np.sqrt(area * (v @ v)))
    return norm


def _magnitude(v: np.ndarray) -> np.ndarray:
    """|v_k| for every row of an (m, 2) array, as np.hypot gives it: the
    rows read as complex numbers, whose absolute value is hypot's, so inf,
    NaN, subnormal and huge components need no special case."""
    return np.abs(np.ascontiguousarray(v).view(np.complex128)[:, 0])
