"""Mesh construction: counts, geometry, orientation, and penalty weights."""

import dataclasses

import numpy as np
import pytest

from pxdg import (Domain, ExponentField, build_uniform_mesh, edge_weights,
                  manufactured_exponent)

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


def n_interior(mesh):
    return len(mesh.int_plus)


def n_boundary(mesh):
    return len(mesh.bnd_element)


def test_counts_10x10():
    mesh = build_uniform_mesh(SQUARE, 10, 10)
    assert mesh.n_elements == 100
    assert n_interior(mesh) == 180
    assert n_boundary(mesh) == 40


def test_counts_single_element():
    mesh = build_uniform_mesh(SQUARE, 1, 1)
    assert mesh.n_elements == 1
    assert n_interior(mesh) == 0
    assert n_boundary(mesh) == 4


def test_counts_two_elements():
    mesh = build_uniform_mesh(SQUARE, 2, 1)
    assert mesh.n_elements == 2
    assert n_interior(mesh) == 1
    assert mesh.int_length[0] == 2.0
    assert n_boundary(mesh) == 6


def test_counts_formula_general():
    mesh = build_uniform_mesh(Domain(0.0, 3.0, -1.0, 1.0), 5, 3)
    assert mesh.n_elements == 15
    assert n_interior(mesh) == 5 * 2 + 3 * 4
    assert n_boundary(mesh) == 2 * 5 + 2 * 3
    for name in ("int_plus", "int_minus", "int_length", "int_normal",
                 "int_mid"):
        assert len(getattr(mesh, name)) == n_interior(mesh)
    for name in ("bnd_element", "bnd_length", "bnd_p0", "bnd_p1"):
        assert len(getattr(mesh, name)) == n_boundary(mesh)


def test_area_partition():
    for dom, nx, ny in [(SQUARE, 7, 4), (Domain(0.0, 2.5, 1.0, 1.7), 3, 9)]:
        mesh = build_uniform_mesh(dom, nx, ny)
        assert mesh.areas.shape == (nx * ny,)
        assert abs(mesh.areas.sum() - dom.area) <= 1e-12 * dom.area


def test_element_geometry():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    # element 5 is row 1, col 1: the cell [-0.5, 0] x [-0.5, 0]
    assert tuple(mesh.barycenters[5]) == (-0.25, -0.25)
    assert (mesh.dx, mesh.dy) == (0.5, 0.5)
    assert mesh.areas[5] == pytest.approx(0.25)
    # shape regularity with fixed constants for these aspect ratios
    diameter = np.hypot(mesh.dx, mesh.dy)
    assert np.all(0.1 * diameter ** 2 <= mesh.areas)
    assert np.all(mesh.areas <= diameter ** 2)


def test_normal_points_plus_to_minus():
    mesh = build_uniform_mesh(SQUARE, 5, 4)
    d = mesh.barycenters[mesh.int_minus] - mesh.barycenters[mesh.int_plus]
    assert np.all((d * mesh.int_normal).sum(axis=1) > 0.0)
    assert np.all(mesh.int_plus < mesh.int_minus)


def test_normal_perpendicular_to_edge():
    # the edge through int_mid along the normal turned a quarter turn, with
    # length int_length, must end on grid vertices
    dom = Domain(0.3, 2.5, -1.2, -0.1)
    mesh = build_uniform_mesh(dom, 5, 3)
    assert np.allclose(np.hypot(*mesh.int_normal.T), 1.0, rtol=0, atol=1e-15)
    tangent = np.column_stack([-mesh.int_normal[:, 1], mesh.int_normal[:, 0]])
    half = 0.5 * mesh.int_length[:, None] * tangent
    for end in (mesh.int_mid - half, mesh.int_mid + half):
        grid = (end - [dom.x_min, dom.y_min]) / [mesh.dx, mesh.dy]
        assert np.allclose(grid, np.round(grid), rtol=0, atol=1e-12)


def test_boundary_normals_outward():
    # boundary edges run counterclockwise: the edge direction turned
    # clockwise is the outward normal
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    tangent = mesh.bnd_p1 - mesh.bnd_p0
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    normal /= mesh.bnd_length[:, None]
    mid = 0.5 * (mesh.bnd_p0 + mesh.bnd_p1)
    outward = mid + 0.1 * normal
    assert np.all(np.abs(outward).max(axis=1) > 1.0)
    inward = mid - 0.1 * normal
    assert np.all(np.abs(inward).max(axis=1) < 1.0)


def test_edge_element_incidence_symmetric():
    # each edge is a side of every element it names: an interior edge's
    # midpoint is halfway between its two barycenters, a boundary edge's
    # midpoint half a cell from its element's barycenter
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    plus = mesh.barycenters[mesh.int_plus]
    minus = mesh.barycenters[mesh.int_minus]
    assert np.allclose(mesh.int_mid, 0.5 * (plus + minus), rtol=0, atol=1e-15)
    step = np.abs(minus - plus)
    assert np.allclose(step, mesh.int_normal * [mesh.dx, mesh.dy],
                       rtol=0, atol=1e-15)
    offset = np.abs(0.5 * (mesh.bnd_p0 + mesh.bnd_p1)
                    - mesh.barycenters[mesh.bnd_element])
    half = [0.5 * mesh.dx, 0.5 * mesh.dy]
    on_side = (np.isclose(offset, half, rtol=0, atol=1e-15)
               & np.isclose(offset[:, ::-1], 0.0, rtol=0, atol=1e-15))
    assert np.all(on_side.any(axis=1))


def test_interior_count_of_incident_edges():
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    m = mesh.n_elements
    interior = np.bincount(np.concatenate([mesh.int_plus, mesh.int_minus]),
                           minlength=m)
    boundary = np.bincount(mesh.bnd_element, minlength=m)
    assert np.all(interior + boundary == 4)
    # corner element: 2 interior + 2 boundary edges; center: 4 interior
    assert (interior[0], boundary[0]) == (2, 2)
    assert (interior[4], boundary[4]) == (4, 0)
    # edge cell: 3 interior + 1 boundary
    assert (interior[1], boundary[1]) == (3, 1)


def test_deterministic_build():
    a = build_uniform_mesh(SQUARE, 6, 5)
    b = build_uniform_mesh(SQUARE, 6, 5)
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def grid_loop(domain, nx, ny):
    """The mesh arrays rebuilt cell by cell from the grid definition."""
    dx = (domain.x_max - domain.x_min) / nx
    dy = (domain.y_max - domain.y_min) / ny

    def x(i):
        return domain.x_min + i * dx

    def y(j):
        return domain.y_min + j * dy

    def cell(i, j):
        return j * nx + i

    areas, barycenters, vertical, horizontal = [], [], [], []
    for j in range(ny):
        for i in range(nx):
            areas.append(dx * dy)
            barycenters.append((x(i) + dx / 2, y(j) + dy / 2))
            if i + 1 < nx:  # the right side, shared with cell (i+1, j)
                vertical.append((cell(i, j), cell(i + 1, j), dy, (1.0, 0.0),
                                 (x(i + 1), y(j) + dy / 2)))
            if j + 1 < ny:  # the top side, shared with cell (i, j+1)
                horizontal.append((cell(i, j), cell(i, j + 1), dx,
                                   (0.0, 1.0), (x(i) + dx / 2, y(j + 1))))
    # counterclockwise from the bottom left corner
    boundary = (
        [(cell(i, 0), dx, (x(i), y(0)), (x(i + 1), y(0)))
         for i in range(nx)]
        + [(cell(nx - 1, j), dy, (x(nx), y(j)), (x(nx), y(j + 1)))
           for j in range(ny)]
        + [(cell(i, ny - 1), dx, (x(i + 1), y(ny)), (x(i), y(ny)))
           for i in reversed(range(nx))]
        + [(cell(0, j), dy, (x(0), y(j + 1)), (x(0), y(j)))
           for j in reversed(range(ny))])
    plus, minus, length, normal, mid = zip(*(vertical + horizontal))
    element, b_length, p0, p1 = zip(*boundary)
    return {"int_plus": plus, "int_minus": minus, "int_length": length,
            "int_normal": normal, "int_mid": mid, "bnd_element": element,
            "bnd_length": b_length, "bnd_p0": p0, "bnd_p1": p1,
            "areas": areas, "barycenters": barycenters}


def test_arrays_match_grid_loop_offset_rectangle():
    dom = Domain(0.3, 2.5, -1.2, -0.1)
    mesh = build_uniform_mesh(dom, 5, 3)
    want = grid_loop(dom, 5, 3)
    for name in ("int_plus", "int_minus", "bnd_element"):
        got = getattr(mesh, name)
        assert got.dtype.kind == "i", name
        assert np.array_equal(got, want[name]), name
    for name in ("int_length", "int_normal", "int_mid", "bnd_length",
                 "bnd_p0", "bnd_p1", "areas", "barycenters"):
        got, ref = getattr(mesh, name), np.array(want[name])
        assert got.shape == ref.shape, name
        assert np.allclose(got, ref, rtol=0, atol=1e-14), name


def test_edge_weight_values():
    mesh = build_uniform_mesh(SQUARE, 2, 1)
    p2 = manufactured_exponent(0.0)
    # the interior edge has diameter 2: 2^(-2/2) = 0.5
    assert edge_weights(mesh, p2)[0][0] == pytest.approx(0.5)
    fine = build_uniform_mesh(SQUARE, 10, 10)
    # any edge of the 10x10 square mesh has diameter 0.2: 0.2^(-1) = 5
    w_int, w_bnd = edge_weights(fine, p2)
    assert np.allclose(w_int, 5.0) and np.allclose(w_bnd, 5.0)
    unit = build_uniform_mesh(Domain(0.0, 2.0, 0.0, 1.0), 2, 1)
    # diameter-1 edge: weight 1 for any exponent; the manufactured p falls
    # to 1 + 1/2.25 at the corner (2, 1)
    assert unit.int_length[0] == 1.0
    field = ExponentField(manufactured_exponent(0.5).func, p1=1.0 + 1.0 / 2.25,
                          p2=2.0)
    assert edge_weights(unit, field)[0][0] == pytest.approx(1.0)


def test_edge_weights_vectorized_matches_scalar():
    mesh = build_uniform_mesh(SQUARE, 5, 3)
    field = manufactured_exponent(0.25)
    w_int, w_bnd = edge_weights(mesh, field)
    edges = [(w_int, mesh.int_mid, mesh.int_length),
             (w_bnd, 0.5 * (mesh.bnd_p0 + mesh.bnd_p1), mesh.bnd_length)]
    for weights, mids, lengths in edges:
        assert len(weights) == len(lengths)
        for k, ((xm, ym), le) in enumerate(zip(mids.tolist(), lengths.tolist())):
            pv = float(field(xm, ym))
            want = le ** (-2.0 * (pv - 1.0) / pv)
            assert weights[k] == pytest.approx(want, rel=1e-14)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        Domain(1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Domain(0.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        build_uniform_mesh(SQUARE, 0, 3)
    with pytest.raises(ValueError):
        build_uniform_mesh(SQUARE, 3, -1)
    inf, nan = float("inf"), float("nan")
    for bounds in [(0.0, inf, 0.0, 1.0), (-inf, 0.0, 0.0, 1.0),
                   (0.0, 1.0, -inf, inf), (0.0, 1.0, 0.0, nan),
                   (-1e308, 1e308, 0.0, 1.0)]:  # the width overflows
        with pytest.raises(ValueError):
            Domain(*bounds)
    for nx, ny in [(2.5, 3), (3, 2.5), (3.0, 3)]:
        with pytest.raises(ValueError):
            build_uniform_mesh(SQUARE, nx, ny)
    mesh = build_uniform_mesh(SQUARE, np.int64(3), np.int64(2))
    assert mesh.n_elements == 6
