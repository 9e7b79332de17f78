"""Broken P0 spaces: the jump lifting, and B = grad + lifting.

For piecewise constants the broken gradient vanishes identically, so B
reduces to the lifting; constants are in its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

__all__ = [
    "DgScalar",
    "DgVector",
    "lifting",
    "axis_lifting",
    "lifting_matrices",
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


def axis_lifting(n: int, h: float) -> sp.csr_matrix:
    """The 1-D lifting D along one axis of n cells of width h.

    (D u)[i] = (u[i+1] - u[i-1]) / (2h), with the half stencils
    (u[1] - u[0]) / (2h) and (u[n-1] - u[n-2]) / (2h) at the ends: half
    the differences across the cell's interior edges, summed.
    """
    grad = np.diff(np.eye(n), axis=0)  # (n - 1, n) differences across edges
    return sp.csr_matrix(np.abs(grad).T @ grad / (2.0 * h))


def lifting_matrices(mesh: Mesh) -> tuple:
    """Sparse (Lx, Ly) with lifting(u) = (Lx @ u, Ly @ u); cached on the mesh.

    On the uniform grid the lifting acts along each axis alone:
    Lx = I_y (x) D_x and Ly = D_y (x) I_x, with D from axis_lifting.
    """
    cached = getattr(mesh, "_lifting_matrices", None)
    if cached is not None:
        return cached
    mesh._lifting_matrices = (
        sp.kron(sp.identity(mesh.ny), axis_lifting(mesh.nx, mesh.dx),
                format="csr"),
        sp.kron(axis_lifting(mesh.ny, mesh.dy), sp.identity(mesh.nx),
                format="csr"))
    return mesh._lifting_matrices


def lifting(u: DgScalar) -> DgVector:
    """Per-element vector field representing the inter-element jumps.

    Defined by the identity sum_k |k| <R(u)_k, phi_k> =
    -sum_e |e| <[u]_e, {phi}_e> over all P0 vector test fields, which
    localizes to R(u)|_k = -(1/|k|) sum_{e in dk interior} (|e|/2) [u]_e.
    """
    lx, ly = lifting_matrices(u.mesh)
    return DgVector(u.mesh, np.column_stack([lx @ u.values, ly @ u.values]))


def l2_norm(field) -> float:
    """Area-weighted L2 norm of a P0 scalar or vector field."""
    vals = field.values
    a = field.mesh.areas
    if vals.ndim == 2:
        return float(np.sqrt((a[:, None] * vals ** 2).sum()))
    return float(np.sqrt((a * vals ** 2).sum()))
