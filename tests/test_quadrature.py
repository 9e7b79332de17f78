"""Gauss quadrature on elements and boundary edges."""

import numpy as np
import pytest

from pxdg import Domain, boundary_points, build_uniform_mesh, element_points, gauss_1d


def test_gauss_1d_exact_for_degree_2n_minus_1():
    g, w = gauss_1d(3)
    assert w.sum() == pytest.approx(2.0)
    for deg in range(6):
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert (w * g**deg).sum() == pytest.approx(exact, abs=1e-14)


def test_element_points_shapes_and_weights():
    mesh = build_uniform_mesh(Domain(-1.0, 1.0, -1.0, 1.0), 4, 3)
    xq, yq, wq = element_points(mesh)
    assert xq.shape == (12, 9) and yq.shape == (12, 9)
    assert wq.shape == (9,)
    assert wq.sum() * mesh.n_elements == pytest.approx(4.0)
    # points stay inside their element: cell (i, j) of the 4x3 grid
    for k in range(mesh.n_elements):
        j, i = divmod(k, 4)
        x0, y0 = -1.0 + i * 0.5, -1.0 + j * 2.0 / 3.0
        assert np.all((xq[k] > x0) & (xq[k] < x0 + 0.5))
        assert np.all((yq[k] > y0) & (yq[k] < y0 + 2.0 / 3.0))


def test_element_points_integrate_polynomials_exactly():
    mesh = build_uniform_mesh(Domain(0.0, 2.0, -1.0, 1.0), 3, 2)
    xq, yq, wq = element_points(mesh)

    def integrate(f):
        return float((f(xq, yq) * wq[None, :]).sum())

    assert integrate(lambda x, y: np.ones_like(x)) == pytest.approx(4.0)
    # int_0^2 x^4 dx * int_-1^1 y^2 dy = (32/5) * (2/3)
    assert integrate(lambda x, y: x**4 * y**2) == \
        pytest.approx(32.0 / 5.0 * 2.0 / 3.0, rel=1e-13)


def test_boundary_points_cover_perimeter():
    mesh = build_uniform_mesh(Domain(-1.0, 1.0, -1.0, 1.0), 5, 3)
    xq, yq, wq = boundary_points(mesh)
    assert xq.shape == (16, 3)
    assert wq.sum() == pytest.approx(8.0)
    on_edge = (np.isclose(np.abs(xq), 1.0) | np.isclose(np.abs(yq), 1.0))
    assert np.all(on_edge)


def test_boundary_points_integrate_along_edges():
    mesh = build_uniform_mesh(Domain(-1.0, 1.0, -1.0, 1.0), 1, 1)
    xq, yq, wq = boundary_points(mesh)
    # integral of x^2 over the four sides: 2*(2/3) + 2*2 = 16/3
    total = float((wq * xq**2).sum())
    assert total == pytest.approx(16.0 / 3.0, rel=1e-13)
