"""Mesh construction: counts, geometry, orientation, and CSV dump."""

import csv

import numpy as np
import pytest

from pxdg import (Domain, build_uniform_mesh, edge_weights,
                  manufactured_exponent, write_mesh_csv)

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


def test_counts_10x10():
    mesh = build_uniform_mesh(SQUARE, 10, 10)
    assert mesh.n_elements == 100
    assert len(mesh.interior_edges) == 180
    assert len(mesh.boundary_edges) == 40


def test_counts_single_element():
    mesh = build_uniform_mesh(SQUARE, 1, 1)
    assert mesh.n_elements == 1
    assert len(mesh.interior_edges) == 0
    assert len(mesh.boundary_edges) == 4


def test_counts_two_elements():
    mesh = build_uniform_mesh(SQUARE, 2, 1)
    assert mesh.n_elements == 2
    assert len(mesh.interior_edges) == 1
    edge = mesh.interior_edges[0]
    assert edge.length == 2.0
    assert edge.diameter == 2.0
    assert len(mesh.boundary_edges) == 6


def test_counts_formula_general():
    mesh = build_uniform_mesh(Domain(0.0, 3.0, -1.0, 1.0), 5, 3)
    assert mesh.n_elements == 15
    assert len(mesh.interior_edges) == 5 * 2 + 3 * 4
    assert len(mesh.boundary_edges) == 2 * 5 + 2 * 3


def test_area_partition():
    for dom, nx, ny in [(SQUARE, 7, 4), (Domain(0.0, 2.5, 1.0, 1.7), 3, 9)]:
        mesh = build_uniform_mesh(dom, nx, ny)
        total = sum(e.area for e in mesh.elements)
        assert abs(total - dom.area) <= 1e-12 * dom.area
        assert np.allclose(mesh.areas.sum(), dom.area, rtol=1e-12)


def test_element_geometry():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    e = mesh.elements[5]  # row 1, col 1
    assert e.bounds == (-0.5, 0.0, -0.5, 0.0)
    assert e.barycenter == (-0.25, -0.25)
    assert e.area == pytest.approx(0.25)
    assert e.diameter == pytest.approx(np.hypot(0.5, 0.5))
    # shape regularity with fixed constants for these aspect ratios
    for el in mesh.elements:
        assert 0.1 * el.diameter ** 2 <= el.area <= el.diameter ** 2


def test_normal_points_plus_to_minus():
    mesh = build_uniform_mesh(SQUARE, 5, 4)
    for e in mesh.interior_edges:
        d = (mesh.barycenters[e.minus_element]
             - mesh.barycenters[e.plus_element])
        assert float(np.dot(d, e.nu_plus)) > 0.0


def test_boundary_normals_outward():
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    for e in mesh.boundary_edges:
        mid = np.array(e.midpoint)
        outward = mid + 0.1 * np.array(e.nu_plus)
        assert (abs(outward[0]) > 1.0 or abs(outward[1]) > 1.0)


def test_edge_element_incidence_symmetric():
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    off = len(mesh.interior_edges)
    for k in range(mesh.n_elements):
        for idx in mesh.element_edges(k):
            e = (mesh.interior_edges[idx] if idx < off
                 else mesh.boundary_edges[idx - off])
            assert k in (e.plus_element, e.minus_element)
    for e in mesh.interior_edges:
        assert e.index in mesh.element_edges(e.plus_element)
        assert e.index in mesh.element_edges(e.minus_element)
    for e in mesh.boundary_edges:
        assert off + e.index in mesh.element_edges(e.plus_element)


def test_interior_count_of_incident_edges():
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    # corner element: 2 interior + 2 boundary edges; center: 4 interior
    assert len(mesh.element_edges(0)) == 4
    assert len(mesh.element_edges(4)) == 4
    off = len(mesh.interior_edges)
    assert sum(1 for i in mesh.element_edges(4) if i < off) == 4
    assert sum(1 for i in mesh.element_edges(0) if i < off) == 2


def test_deterministic_build():
    a = build_uniform_mesh(SQUARE, 6, 5)
    b = build_uniform_mesh(SQUARE, 6, 5)
    assert [e.bounds for e in a.elements] == [e.bounds for e in b.elements]
    assert np.array_equal(a.int_plus, b.int_plus)
    assert np.array_equal(a.int_minus, b.int_minus)
    assert np.array_equal(a.bnd_element, b.bnd_element)
    assert [e.endpoints for e in a.interior_edges] == \
        [e.endpoints for e in b.interior_edges]


def test_edge_diameter_equals_length():
    mesh = build_uniform_mesh(SQUARE, 4, 7)
    for e in mesh.interior_edges + mesh.boundary_edges:
        assert e.diameter == e.length


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
    # diameter-1 edge: weight 1 for any exponent
    assert unit.interior_edges[0].diameter == 1.0
    assert edge_weights(unit, manufactured_exponent(0.5))[0][0] == \
        pytest.approx(1.0)


def test_edge_weights_vectorized_matches_scalar():
    mesh = build_uniform_mesh(SQUARE, 5, 3)
    field = manufactured_exponent(0.25)
    w_int, w_bnd = edge_weights(mesh, field)
    for weights, edges in ((w_int, mesh.interior_edges),
                           (w_bnd, mesh.boundary_edges)):
        for e in edges:
            pv = float(field(*e.midpoint))
            want = e.diameter ** (-2.0 * (pv - 1.0) / pv)
            assert weights[e.index] == pytest.approx(want, rel=1e-14)


def test_arrays_match_views_offset_rectangle():
    mesh = build_uniform_mesh(Domain(0.3, 2.5, -1.2, -0.1), 5, 3)
    dx, dy = 2.2 / 5, 1.1 / 3
    for e in mesh.elements:
        j, i = divmod(e.index, 5)
        assert e.bounds == pytest.approx(
            (0.3 + i * dx, 0.3 + (i + 1) * dx, -1.2 + j * dy, -1.2 + (j + 1) * dy),
            rel=1e-14, abs=1e-14)
        assert e.barycenter == tuple(mesh.barycenters[e.index])
        assert e.area == mesh.areas[e.index]
    for prefix, edges in (("int", mesh.interior_edges),
                          ("bnd", mesh.boundary_edges)):
        arrays = {name: getattr(mesh, f"{prefix}_{name}")
                  for name in ("p0", "p1", "mid", "length", "normal")}
        assert len(edges) == len(arrays["length"])
        for e in edges:
            k = e.index
            assert e.endpoints == (tuple(arrays["p0"][k]), tuple(arrays["p1"][k]))
            assert e.midpoint == tuple(arrays["mid"][k])
            assert e.length == e.diameter == arrays["length"][k]
            assert e.length == pytest.approx(
                np.hypot(*np.subtract(*e.endpoints)), rel=1e-14)
            assert e.nu_plus == tuple(arrays["normal"][k])
            # the unit normal is perpendicular to the edge
            tangent = np.subtract(*e.endpoints)
            assert abs(np.dot(tangent, e.nu_plus)) <= 1e-14
    for e in mesh.interior_edges:
        assert (e.plus_element, e.minus_element) == \
            (mesh.int_plus[e.index], mesh.int_minus[e.index])
        assert e.plus_element < e.minus_element
    for e in mesh.boundary_edges:
        assert e.is_boundary
        assert e.plus_element == mesh.bnd_element[e.index]
    # incidence: each element lists exactly the edges that name it
    off = len(mesh.interior_edges)
    want = [[] for _ in range(mesh.n_elements)]
    for e in mesh.interior_edges:
        want[e.plus_element].append(e.index)
        want[e.minus_element].append(e.index)
    for e in mesh.boundary_edges:
        want[e.plus_element].append(off + e.index)
    assert [mesh.element_edges(k) for k in range(mesh.n_elements)] == want


def test_invalid_inputs():
    with pytest.raises(ValueError):
        Domain(1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Domain(0.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        build_uniform_mesh(SQUARE, 0, 3)
    with pytest.raises(ValueError):
        build_uniform_mesh(SQUARE, 3, -1)


def test_write_mesh_csv(tmp_path):
    mesh = build_uniform_mesh(SQUARE, 3, 2)
    path = tmp_path / "mesh.csv"
    write_mesh_csv(mesh, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["element_index", "x_min", "x_max", "y_min", "y_max"]
    edge_header = rows.index(
        ["edge_index", "kind", "plus", "minus", "length"])
    assert edge_header == 1 + mesh.n_elements
    kinds = [r[1] for r in rows[edge_header + 1:]]
    assert kinds.count("interior") == len(mesh.interior_edges)
    assert kinds.count("boundary") == len(mesh.boundary_edges)
