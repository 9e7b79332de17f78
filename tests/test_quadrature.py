"""Gauss quadrature on elements and boundary edges."""

import numpy as np
import pytest

from edge_loop import edges
from pxdg import (Domain, ProblemData, build_uniform_mesh, gauss_points,
                  manufactured_exponent)


def test_element_points_shapes_and_weights():
    # the 3x3 Gauss points of every element, from gauss_points
    mesh = build_uniform_mesh(Domain(-1.0, 1.0, -1.0, 1.0), 4, 3)
    points = list(gauss_points(mesh))
    assert len(points) == 9
    xq = np.stack([x for x, _, _ in points], axis=-1)
    yq = np.stack([y for _, y, _ in points], axis=-1)
    wq = np.array([w for _, _, w in points])
    assert xq.shape == (3, 4, 9) and yq.shape == (3, 4, 9)
    assert wq.shape == (9,)
    assert wq.sum() * mesh.n_elements == pytest.approx(4.0)
    # points stay inside their element: cell (i, j) of the 4x3 grid
    for j in range(3):
        for i in range(4):
            x0, y0 = -1.0 + i * 0.5, -1.0 + j * 2.0 / 3.0
            assert np.all((xq[j, i] > x0) & (xq[j, i] < x0 + 0.5))
            assert np.all((yq[j, i] > y0) & (yq[j, i] < y0 + 2.0 / 3.0))


def test_element_points_integrate_polynomials_exactly():
    mesh = build_uniform_mesh(Domain(0.0, 2.0, -1.0, 1.0), 3, 2)

    def integrate(f):
        return float(sum(w * f(x, y).sum() for x, y, w in gauss_points(mesh)))

    assert integrate(lambda x, y: np.ones_like(x)) == pytest.approx(4.0)
    # int_0^2 x^4 dx * int_-1^1 y^2 dy = (32/5) * (2/3)
    assert integrate(lambda x, y: x**4 * y**2) == \
        pytest.approx(32.0 / 5.0 * 2.0 / 3.0, rel=1e-13)


def test_gauss_points_one_point_at_a_time():
    # each point in every element at once, on the (ny, nx) grid, along x
    # first, with its weight
    mesh = build_uniform_mesh(Domain(0.0, 2.0, -1.0, 1.0), 3, 2)
    bc = edges(mesh)["barycenters"].reshape(mesh.ny, mesh.nx, 2)
    points = list(gauss_points(mesh))
    assert len(points) == 9
    for x, y, w in points:
        assert x.shape == y.shape == (mesh.ny, mesh.nx) and np.ndim(w) == 0
        assert np.all(np.abs(x - bc[..., 0]) < mesh.dx / 2.0)
        assert np.all(np.abs(y - bc[..., 1]) < mesh.dy / 2.0)
    ys = [y[0, 0] for _, y, _ in points]
    assert ys[0] == ys[1] == ys[2] < ys[3] == ys[4] == ys[5] < ys[6]
    # int_0^2 x^4 dx * int_-1^1 y^2 dy = (32/5) * (2/3)
    total = sum(w * (x ** 4 * y ** 2).sum() for x, y, w in points)
    assert total == pytest.approx(32.0 / 5.0 * 2.0 / 3.0, rel=1e-13)


def record_points(fn, seen):
    def recorded(x, y):
        seen.append((np.asarray(x), np.asarray(y)))
        return fn(x, y)
    return recorded


def boundary_data(mesh, u_D, exponent=manufactured_exponent(0.0)):
    return ProblemData(mesh=mesh, exponent=exponent, u_D=u_D,
                       xi=lambda x, y: np.zeros_like(x))


def test_boundary_moments_cover_perimeter():
    mesh = build_uniform_mesh(Domain(-1.0, 1.0, -1.0, 1.0), 5, 3)
    seen = []
    ux, uy, spread = boundary_data(
        mesh, record_points(lambda x, y: np.ones_like(x), seen)
    ).boundary_moments
    xq = np.concatenate([x.ravel() for x, _ in seen])
    yq = np.concatenate([y.ravel() for _, y in seen])
    assert xq.shape == (3 * 16,)
    on_edge = (np.isclose(np.abs(xq), 1.0) | np.isclose(np.abs(yq), 1.0))
    assert np.all(on_edge)
    assert ux.shape == (3, 2) and uy.shape == (2, 5)
    # the means of 1 integrate |e| over the perimeter
    assert (ux * mesh.dy).sum() + (uy * mesh.dx).sum() == pytest.approx(8.0)
    assert spread == pytest.approx(0.0, abs=1e-15)


def test_boundary_moments_integrate_along_edges():
    mesh = build_uniform_mesh(Domain(-1.0, 1.0, -1.0, 1.0), 1, 1)
    ux, uy, _ = boundary_data(mesh, lambda x, y: x ** 2).boundary_moments
    # integral of x^2 over the four sides: 2*(2/3) + 2*2 = 16/3
    total = (ux * mesh.dy).sum() + (uy * mesh.dx).sum()
    assert total == pytest.approx(16.0 / 3.0, rel=1e-13)
    # the spread of x about its mean, 1/3 on the bottom and top sides and
    # 0 on the others, each priced at w |e| = 1 (p = 2)
    _, _, spread = boundary_data(mesh, lambda x, y: x).boundary_moments
    assert spread == pytest.approx(2.0 / 3.0, rel=1e-13)
