"""Broken P0 spaces: jumps, averages, the jump lifting, and B = grad + lifting.

For piecewise constants the broken gradient vanishes identically, so B
reduces to the lifting; constants are in its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, edge_weights

__all__ = [
    "DgScalar",
    "DgVector",
    "jump",
    "average",
    "lifting",
    "lifting_matrices",
    "l2_norm",
    "jump_l2_norm",
    "weighted_jump_norm",
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


def jump(u: DgScalar) -> np.ndarray:
    """Vector jumps (u_plus - u_minus) * nu_plus, one row per interior edge."""
    mesh = u.mesh
    du = u.values[mesh.int_plus] - u.values[mesh.int_minus]
    return du[:, None] * mesh.int_normal


def average(phi: DgVector) -> np.ndarray:
    """Means of the two neighbor values, one row per interior edge."""
    mesh = phi.mesh
    return 0.5 * (phi.values[mesh.int_plus] + phi.values[mesh.int_minus])


def lifting_matrices(mesh: Mesh) -> tuple:
    """Sparse (Lx, Ly) with lifting(u) = (Lx @ u, Ly @ u); cached on the mesh.

    Only nonzero entries are stored: a component the edge normal lacks
    contributes nothing, and on a uniform mesh the two contributions to an
    interior element's diagonal cancel exactly.
    """
    cached = getattr(mesh, "_lifting_matrices", None)
    if cached is not None:
        return cached
    m = mesh.n_elements
    a, b = mesh.int_plus, mesh.int_minus
    # row kappa in {a, b} gets -(|e|/2)/|kappa| times the jump of the basis
    # function: +nu in column a, -nu in column b
    coef_a = -(mesh.int_length / 2.0) / mesh.areas[a]
    coef_b = -(mesh.int_length / 2.0) / mesh.areas[b]
    coef = np.concatenate([coef_a, -coef_a, coef_b, -coef_b])
    rows = np.concatenate([a, a, b, b])
    cols = np.concatenate([a, b, a, b])
    mats = []
    for nu in mesh.int_normal.T:
        mat = sp.csr_matrix((coef * np.tile(nu, 4), (rows, cols)),
                            shape=(m, m))
        mat.eliminate_zeros()
        mats.append(mat)
    mesh._lifting_matrices = tuple(mats)
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


def jump_l2_norm(u: DgScalar) -> float:
    """L2 norm of the jump field over all interior edges."""
    mesh = u.mesh
    du = u.values[mesh.int_plus] - u.values[mesh.int_minus]
    return float(np.sqrt((mesh.int_length * du ** 2).sum()))


def weighted_jump_norm(u: DgScalar, exponent) -> float:
    """L2 norm over interior edges of diam(e)^(-1/p') |[u]|.

    This is the jump part of the broken W^{1,p(.)} seminorm; for P0 fields
    the gradient part vanishes, so it is the whole seminorm.
    """
    mesh = u.mesh
    w = edge_weights(mesh, exponent)[0]
    du = u.values[mesh.int_plus] - u.values[mesh.int_minus]
    return float(np.sqrt((mesh.int_length * w * du ** 2).sum()))
