"""Broken P0 spaces: the jump lifting, and B = grad + lifting.

For piecewise constants the broken gradient vanishes identically, so B
reduces to the lifting; constants are in its kernel. B and B^T act along
the grid axes through one 1-D lifting per axis; no m x m matrix is formed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

__all__ = [
    "DgScalar",
    "DgVector",
    "lifting",
    "lifting_adjoint",
    "axis_lifting",
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


@functools.lru_cache(maxsize=64)
def axis_lifting(n: int, h: float) -> sp.csr_matrix:
    """The 1-D lifting D along one axis of n cells of width h.

    (D u)[i] = (u[i+1] - u[i-1]) / (2h), with the half stencils
    (u[1] - u[0]) / (2h) and (u[n-1] - u[n-2]) / (2h) at the ends: half
    the differences across the cell's interior edges, summed. D is built
    once per (n, h) and shared by every caller, so its data is read-only.
    """
    c = 1.0 / (2.0 * h)
    ends = np.bincount([0, n - 1], [-c, c], minlength=n)  # n = 1: zero
    lift = sp.diags([-c, ends, c], [-1, 0, 1], shape=(n, n), format="csr")
    lift.data.flags.writeable = False
    return lift


@functools.lru_cache(maxsize=64)
def _axis_lifting_adjoint(n: int, h: float) -> sp.csr_matrix:
    """D^T for axis_lifting(n, h) as its own read-only CSR, built once per
    (n, h): the transpose view of D is a CSC that would be made again on
    every apply. Each row of D^T holds two nonzeros (none at n = 1), so
    its products sum to the bits that D^T's CSC product gives."""
    adj = axis_lifting(n, h).T.tocsr()
    adj.data.flags.writeable = False
    return adj


def lifting(u: DgScalar) -> DgVector:
    """Per-element vector field representing the inter-element jumps.

    Defined by the identity sum_k |k| <R(u)_k, phi_k> =
    -sum_e |e| <[u]_e, {phi}_e> over all P0 vector test fields, which
    localizes to R(u)|_k = -(1/|k|) sum_{e in dk interior} (|e|/2) [u]_e.
    """
    mesh = u.mesh
    grid = u.values.reshape(mesh.ny, mesh.nx)
    rx = (axis_lifting(mesh.nx, mesh.dx) @ grid.T).T  # not grid @ D_x^T: slower
    ry = axis_lifting(mesh.ny, mesh.dy) @ grid
    return DgVector(mesh, np.stack([rx, ry], axis=-1).reshape(-1, 2))


def lifting_adjoint(q: DgVector) -> np.ndarray:
    """The v with v . u = sum_k |k| <q_k, R(u)_k> for every m-vector u:
    with w = |k| q as two (ny, nx) arrays, v = w_x D_x + D_y^T w_y."""
    mesh = q.mesh
    area = mesh.dx * mesh.dy
    wx = (area * q.values[:, 0]).reshape(mesh.ny, mesh.nx)
    wy = (area * q.values[:, 1]).reshape(mesh.ny, mesh.nx)
    return ((_axis_lifting_adjoint(mesh.nx, mesh.dx) @ wx.T).T
            + _axis_lifting_adjoint(mesh.ny, mesh.dy) @ wy).ravel()


def l2_norm(field) -> float:
    """Area-weighted L2 norm of a P0 scalar or vector field."""
    mesh = field.mesh
    return float(np.sqrt((mesh.dx * mesh.dy * field.values ** 2).sum()))
