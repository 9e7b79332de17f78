"""Mesh construction: counts, geometry, the edge oracle's orientation,
penalty weights on the edge grids, and the one sampler of p, xi, u_D and
the exact u."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from edge_loop import edges, grid_loop
from pxdg import (DgScalar, Domain, ExponentField, ManufacturedProblem, Mesh,
                  ProblemData, build_uniform_mesh, edge_weights, l2_error,
                  manufactured_exponent)
from pxdg.mesh import _sample

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


def edge_counts(mesh):
    """(interior, boundary) edge counts read off the two edge grids."""
    cx, cy = edge_weights(mesh, manufactured_exponent(0.0))
    assert cx.shape == (mesh.ny, mesh.nx + 1)
    assert cy.shape == (mesh.ny + 1, mesh.nx)
    return (cx[:, 1:-1].size + cy[1:-1].size,
            cx[:, [0, -1]].size + cy[[0, -1]].size)


def test_counts_10x10():
    mesh = build_uniform_mesh(SQUARE, 10, 10)
    assert mesh.n_elements == 100
    assert edge_counts(mesh) == (180, 40)


def test_counts_single_element():
    mesh = build_uniform_mesh(SQUARE, 1, 1)
    assert mesh.n_elements == 1
    assert edge_counts(mesh) == (0, 4)


def test_counts_two_elements():
    mesh = build_uniform_mesh(SQUARE, 2, 1)
    assert mesh.n_elements == 2
    assert edge_counts(mesh) == (1, 6)
    assert mesh.dy == 2.0  # the length of the interior edge


def test_counts_formula_general():
    mesh = build_uniform_mesh(Domain(0.0, 3.0, -1.0, 1.0), 5, 3)
    assert mesh.n_elements == 15
    assert edge_counts(mesh) == (5 * 2 + 3 * 4, 2 * 5 + 2 * 3)
    e = edges(mesh)
    for name in ("int_plus", "int_minus", "int_length", "int_normal",
                 "int_mid"):
        assert len(e[name]) == 5 * 2 + 3 * 4
    for name in ("bnd_element", "bnd_length", "bnd_p0", "bnd_p1"):
        assert len(e[name]) == 2 * 5 + 2 * 3


def test_mesh_derives_its_spacing():
    # the spacing is the domain's width over the count, and nothing else
    for dom in (SQUARE, Domain(0.3, 2.5, -1.2, -0.1),
                Domain(0.5, 2.0, -0.3, 0.9)):
        mesh = Mesh(dom, 4, 7)
        assert mesh.dx == (dom.x_max - dom.x_min) / 4
        assert mesh.dy == (dom.y_max - dom.y_min) / 7
        assert mesh == build_uniform_mesh(dom, 4, 7)
    for nx, ny in [(0, 4), (True, 3), (4, -1), (2.0, 3)]:
        with pytest.raises(ValueError):
            Mesh(SQUARE, nx, ny)
    # a spacing that disagrees with the domain cannot be passed in
    with pytest.raises(TypeError):
        Mesh(SQUARE, 4, 4, dx=1.0, dy=1.0)
    with pytest.raises(TypeError):
        Mesh(SQUARE, 4, 4, 1.0, 1.0)
    assert [f.name for f in dataclasses.fields(Mesh) if f.init] == [
        "domain", "nx", "ny"]


def test_mesh_holds_no_per_edge_arrays():
    # a Mesh keeps no arrays: its elements and edges are read off the grid
    # on demand, and nothing sized by them is kept, not even a cache
    mesh = build_uniform_mesh(Domain(0.3, 2.5, -1.2, -0.1), 7, 4)
    edge_weights(mesh, manufactured_exponent(0.0))
    mesh.axes()
    arrays = {name: a.shape for name, a in vars(mesh).items()
              if isinstance(a, np.ndarray)}
    assert arrays == {}


def test_mesh_build_allocates_no_per_element_arrays():
    # one element array of a 1000 x 1000 mesh is 8 MB
    tracemalloc.start()
    try:
        build_uniform_mesh(SQUARE, 1000, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_area_partition():
    for dom, nx, ny in [(SQUARE, 7, 4), (Domain(0.0, 2.5, 1.0, 1.7), 3, 9)]:
        mesh = build_uniform_mesh(dom, nx, ny)
        areas = np.full(mesh.n_elements, mesh.dx * mesh.dy)
        assert areas.shape == (nx * ny,)
        area = (dom.x_max - dom.x_min) * (dom.y_max - dom.y_min)
        assert abs(areas.sum() - area) <= 1e-12 * area


def test_element_geometry():
    mesh = build_uniform_mesh(SQUARE, 4, 4)
    # element 5 is row 1, col 1: the cell [-0.5, 0] x [-0.5, 0]
    _, _, xc, yc = mesh.axes()
    assert (xc[5 % 4], yc[5 // 4]) == (-0.25, -0.25)
    assert (mesh.dx, mesh.dy) == (0.5, 0.5)
    assert mesh.dx * mesh.dy == pytest.approx(0.25)
    # shape regularity with fixed constants for these aspect ratios
    diameter = np.hypot(mesh.dx, mesh.dy)
    assert np.all(0.1 * diameter ** 2 <= mesh.dx * mesh.dy)
    assert np.all(mesh.dx * mesh.dy <= diameter ** 2)


# the edge oracle's conventions, which the edge-by-edge tests rely on


def test_normal_points_plus_to_minus():
    mesh = build_uniform_mesh(SQUARE, 5, 4)
    e = edges(mesh)
    d = e["barycenters"][e["int_minus"]] - e["barycenters"][e["int_plus"]]
    assert np.all((d * e["int_normal"]).sum(axis=1) > 0.0)
    assert np.all(e["int_plus"] < e["int_minus"])


def test_normal_perpendicular_to_edge():
    # the edge through int_mid along the normal turned a quarter turn, with
    # length int_length, must end on grid vertices
    dom = Domain(0.3, 2.5, -1.2, -0.1)
    mesh = build_uniform_mesh(dom, 5, 3)
    e = edges(mesh)
    normal = e["int_normal"]
    assert np.allclose(np.hypot(*normal.T), 1.0, rtol=0, atol=1e-15)
    tangent = np.column_stack([-normal[:, 1], normal[:, 0]])
    half = 0.5 * e["int_length"][:, None] * tangent
    for end in (e["int_mid"] - half, e["int_mid"] + half):
        grid = (end - [dom.x_min, dom.y_min]) / [mesh.dx, mesh.dy]
        assert np.allclose(grid, np.round(grid), rtol=0, atol=1e-12)


def test_boundary_normals_outward():
    # boundary edges run counterclockwise: the edge direction turned
    # clockwise is the outward normal
    e = edges(build_uniform_mesh(SQUARE, 3, 3))
    tangent = e["bnd_p1"] - e["bnd_p0"]
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    normal /= e["bnd_length"][:, None]
    mid = 0.5 * (e["bnd_p0"] + e["bnd_p1"])
    outward = mid + 0.1 * normal
    assert np.all(np.abs(outward).max(axis=1) > 1.0)
    inward = mid - 0.1 * normal
    assert np.all(np.abs(inward).max(axis=1) < 1.0)


def test_edge_element_incidence_symmetric():
    # each edge is a side of every element it names: an interior edge's
    # midpoint is halfway between its two barycenters, a boundary edge's
    # midpoint half a cell from its element's barycenter
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    e = edges(mesh)
    plus = e["barycenters"][e["int_plus"]]
    minus = e["barycenters"][e["int_minus"]]
    assert np.allclose(e["int_mid"], 0.5 * (plus + minus), rtol=0, atol=1e-15)
    step = np.abs(minus - plus)
    assert np.allclose(step, e["int_normal"] * [mesh.dx, mesh.dy],
                       rtol=0, atol=1e-15)
    offset = np.abs(0.5 * (e["bnd_p0"] + e["bnd_p1"])
                    - e["barycenters"][e["bnd_element"]])
    half = [0.5 * mesh.dx, 0.5 * mesh.dy]
    on_side = (np.isclose(offset, half, rtol=0, atol=1e-15)
               & np.isclose(offset[:, ::-1], 0.0, rtol=0, atol=1e-15))
    assert np.all(on_side.any(axis=1))


def test_interior_count_of_incident_edges():
    mesh = build_uniform_mesh(SQUARE, 3, 3)
    e = edges(mesh)
    m = mesh.n_elements
    interior = np.bincount(np.concatenate([e["int_plus"], e["int_minus"]]),
                           minlength=m)
    boundary = np.bincount(e["bnd_element"], minlength=m)
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


def test_arrays_match_grid_loop_offset_rectangle():
    dom = Domain(0.3, 2.5, -1.2, -0.1)
    mesh = build_uniform_mesh(dom, 5, 3)
    want = grid_loop(dom, 5, 3)
    _, _, xc, yc = mesh.axes()
    bx, by = np.meshgrid(xc, yc)
    arrays = {"areas": np.full(mesh.n_elements, mesh.dx * mesh.dy),
              "barycenters": np.column_stack([bx.ravel(), by.ravel()])}
    for name, got in arrays.items():
        ref = want[name]
        assert got.shape == ref.shape, name
        assert np.allclose(got, ref, rtol=0, atol=1e-14), name


def priced_loop(mesh, exponent):
    """(cx, cy) priced edge by edge from grid_loop, one scalar call of p per
    edge, each edge placed on its grid by its midpoint."""
    e = edges(mesh)
    cx = np.full((mesh.ny, mesh.nx + 1), np.nan)
    cy = np.full((mesh.ny + 1, mesh.nx), np.nan)
    mids = np.concatenate([e["int_mid"], 0.5 * (e["bnd_p0"] + e["bnd_p1"])])
    lengths = np.concatenate([e["int_length"], e["bnd_length"]])
    dom = mesh.domain
    for (xm, ym), le in zip(mids.tolist(), lengths.tolist()):
        p = float(exponent(xm, ym))
        i = (xm - dom.x_min) / mesh.dx  # an integer on a vertical edge
        j = (ym - dom.y_min) / mesh.dy
        if abs(i - round(i)) < 1e-9:
            cx[round(j - 0.5), round(i)] = le ** (-2.0 * (p - 1.0) / p) * le
        else:
            cy[round(j), round(i - 0.5)] = le ** (-2.0 * (p - 1.0) / p) * le
    assert not (np.isnan(cx).any() or np.isnan(cy).any())  # every slot once
    return cx, cy


def test_edge_weight_values():
    # c = w |e| = |e|^(1 - 2/p'): 1 for every edge at p = 2
    mesh = build_uniform_mesh(SQUARE, 2, 1)
    cx, cy = edge_weights(mesh, manufactured_exponent(0.0))
    assert np.array_equal(cx, np.ones((1, 3)))
    assert np.array_equal(cy, np.ones((2, 2)))
    # at p = 1.5, c = |e|^(1/3): the vertical edges are 2 long, the
    # horizontal ones 1
    cx, cy = edge_weights(mesh, ExponentField(
        lambda x, y: np.full_like(x, 1.5), p1=1.5, p2=1.5))
    assert np.allclose(cx, 2.0 ** (1.0 / 3.0), rtol=1e-15, atol=0)
    assert np.allclose(cy, 1.0, rtol=1e-15, atol=0)
    unit = build_uniform_mesh(Domain(0.0, 2.0, 0.0, 1.0), 2, 1)
    # diameter-1 edge: 1 for any exponent; the manufactured p falls to
    # 1 + 1/2.25 at the corner (2, 1)
    field = ExponentField(manufactured_exponent(0.5).func, p1=1.0 + 1.0 / 2.25,
                          p2=2.0)
    assert edge_weights(unit, field)[0][0, 1] == pytest.approx(1.0)


def test_edge_weights_vectorized_matches_scalar():
    mesh = build_uniform_mesh(SQUARE, 5, 3)
    field = manufactured_exponent(0.25)
    for got, want in zip(edge_weights(mesh, field), priced_loop(mesh, field)):
        assert np.allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("domain, nx, ny", [
    (Domain(0.3, 2.5, -1.2, -0.1), 5, 3),
    (SQUARE, 1, 3),
    (SQUARE, 3, 1),
    (SQUARE, 1, 1),
], ids=["5x3-offset", "1x3", "3x1", "1x1"])
def test_edge_weights_match_grid_loop(domain, nx, ny):
    # the outer columns of cx and rows of cy are the boundary edges
    mesh = build_uniform_mesh(domain, nx, ny)
    func = manufactured_exponent(0.5).func
    field = ExponentField(func, p1=float(func(domain.x_max, domain.y_max)),
                          p2=2.0)
    for got, want in zip(edge_weights(mesh, field), priced_loop(mesh, field)):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-14, atol=0)


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
    # True is an int to isinstance, and once built a 1 x 3 mesh
    for nx, ny in [(2.5, 3), (3, 2.5), (3.0, 3), (True, 3), (3, False)]:
        with pytest.raises(ValueError):
            build_uniform_mesh(SQUARE, nx, ny)
    mesh = build_uniform_mesh(SQUARE, np.int64(3), np.int64(2))
    assert mesh.n_elements == 6


def test_sample_broadcasts_the_points_and_calls_once():
    calls = []

    def func(x, y):
        calls.append((x.shape, y.shape))
        return x + 10.0 * y

    got = _sample(func, np.arange(3.0), np.arange(2.0)[:, None])
    assert calls == [((2, 3), (2, 3))]
    assert got.dtype == float and got.shape == (2, 3)
    assert np.array_equal(got, [[0.0, 1.0, 2.0], [10.0, 11.0, 12.0]])


@pytest.mark.parametrize("value", [1.5, 2, np.float32(1.5), np.array(1.5)])
def test_sample_spreads_one_number_over_the_points(value):
    got = _sample(lambda x, y: value, np.zeros((3, 4)), 0.0)
    assert got.dtype == float and got.shape == (3, 4)
    assert np.all(got == float(value))


@pytest.mark.parametrize("shape", [(1,), (4,), (3, 1), (1, 4), (4, 3),
                                   (1, 3, 4)])
def test_sample_rejects_any_other_shape(shape):
    with pytest.raises(ValueError, match=re.escape(
            "points of shape (3, 4) returned shape " + str(shape))):
        _sample(lambda x, y: np.ones(shape), np.zeros((3, 4)), 0.0)


@pytest.mark.parametrize("datum", ["p", "xi", "u_D", "u"])
def test_every_datum_rejects_a_shape_off_the_contract(datum):
    # one value per grid column would be broadcast along the rows: p at
    # the barycenters, xi and u_D at their Gauss points and the exact u at
    # the L2 error's each raise, naming both shapes
    shapes = []

    def per_column(x, y):
        shapes.append(np.shape(x))
        return np.zeros(np.shape(x)[-1])

    given = dict.fromkeys(["p", "xi", "u_D", "u"], lambda x, y: 0.0)
    given[datum] = per_column
    mesh = build_uniform_mesh(SQUARE, 4, 3)
    exponent = ExponentField(lambda x, y: 1.5 + given["p"](x, y), 1.2, 2.0)
    data = ProblemData(mesh, exponent, xi=given["xi"], u_D=given["u_D"])
    prob = ManufacturedProblem(b=0.0, exponent=exponent,
                               exact_u=given["u"], grad_u=None)
    zero = DgScalar(mesh, np.zeros(mesh.n_elements))
    sample = {"p": lambda: data.p_bar, "xi": lambda: data.xi_moments,
              "u_D": lambda: data.boundary_moments,
              "u": lambda: l2_error(zero, prob)}[datum]
    with pytest.raises(ValueError) as info:
        sample()
    points = shapes[-1]
    assert (f"points of shape {points} returned shape ({points[-1]},)"
            in str(info.value))
