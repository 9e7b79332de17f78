"""Tensor-product Gauss-Legendre quadrature on mesh elements and edges."""

from __future__ import annotations

import numpy as np

__all__ = ["gauss_1d", "element_points", "boundary_points"]


def gauss_1d(n: int) -> tuple:
    """n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def element_points(mesh) -> tuple:
    """3x3 Gauss quadrature for every element at once.

    Returns (xq, yq, wq): xq, yq of shape (m, 9); wq of shape (9,) and
    shared by all elements (uniform mesh), including the Jacobian dx*dy/4.
    """
    g, w = gauss_1d(3)
    gx, gy = np.meshgrid(g, g)
    wx, wy = np.meshgrid(w, w)
    wq = (wx * wy).ravel() * (mesh.dx * mesh.dy / 4.0)
    xq = mesh.barycenters[:, 0:1] + gx.ravel()[None, :] * (mesh.dx / 2.0)
    yq = mesh.barycenters[:, 1:2] + gy.ravel()[None, :] * (mesh.dy / 2.0)
    return xq, yq, wq


def boundary_points(mesh) -> tuple:
    """Per-boundary-edge 3-point quadrature: (xq, yq, wq), each (n_bnd, 3)."""
    g, w = gauss_1d(3)
    p0, p1 = mesh.bnd_p0, mesh.bnd_p1
    cx = 0.5 * (p0[:, 0] + p1[:, 0])
    cy = 0.5 * (p0[:, 1] + p1[:, 1])
    hx = 0.5 * (p1[:, 0] - p0[:, 0])
    hy = 0.5 * (p1[:, 1] - p0[:, 1])
    xq = cx[:, None] + g[None, :] * hx[:, None]
    yq = cy[:, None] + g[None, :] * hy[:, None]
    wq = w[None, :] * (mesh.bnd_length[:, None] / 2.0)
    return xq, yq, wq
