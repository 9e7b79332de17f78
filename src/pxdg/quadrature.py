"""Tensor-product Gauss-Legendre quadrature on mesh elements."""

from __future__ import annotations

import numpy as np

__all__ = ["gauss_1d", "element_points"]


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

