"""Test oracle: the mesh's edges enumerated cell by cell from the grid
definition, and the edge quantities written edge by edge from them.

The library keeps no per-edge or per-element arrays; it reads the
elements and edges off the grid.
Tests that check it edge by edge get the edges from `grid_loop` alone,
and tests that check it against a sparse matrix get D from `axis_lifting`
and the u-system A, which the library stores as its diagonal and upper
bands, as a sparse matrix from `sparse_system`.
"""

import functools

import numpy as np
import scipy.sparse as sp


@functools.lru_cache(maxsize=32)
def grid_loop(domain, nx, ny):
    """Per-edge and per-element arrays rebuilt in loops over the cells.

    Interior edges come vertical first, then horizontal; edge k joins
    int_plus[k] to the higher-indexed int_minus[k], has length
    int_length[k], unit normal int_normal[k] from plus to minus and
    midpoint int_mid[k]. Boundary edges run counterclockwise from the
    bottom left corner: edge k lies on element bnd_element[k], has length
    bnd_length[k] and runs from bnd_p0[k] to bnd_p1[k], so its outward
    normal is its direction turned clockwise. The arrays are read-only.
    """
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
    boundary = (
        [(cell(i, 0), dx, (x(i), y(0)), (x(i + 1), y(0)))
         for i in range(nx)]
        + [(cell(nx - 1, j), dy, (x(nx), y(j)), (x(nx), y(j + 1)))
           for j in range(ny)]
        + [(cell(i, ny - 1), dx, (x(i + 1), y(ny)), (x(i), y(ny)))
           for i in reversed(range(nx))]
        + [(cell(0, j), dy, (x(0), y(j + 1)), (x(0), y(j)))
           for j in reversed(range(ny))])
    out = {"areas": np.array(areas), "barycenters": np.array(barycenters)}
    for rows, columns in [
            (vertical + horizontal, [("int_plus", int, ()),
                                     ("int_minus", int, ()),
                                     ("int_length", float, ()),
                                     ("int_normal", float, (2,)),
                                     ("int_mid", float, (2,))]),
            (boundary, [("bnd_element", int, ()), ("bnd_length", float, ()),
                        ("bnd_p0", float, (2,)), ("bnd_p1", float, (2,))])]:
        for col, (name, kind, shape) in enumerate(columns):
            out[name] = np.array([row[col] for row in rows],
                                 kind).reshape(len(rows), *shape)
    for vals in out.values():
        vals.flags.writeable = False
    return out


def edges(mesh):
    """grid_loop of the mesh's domain and counts."""
    return grid_loop(mesh.domain, mesh.nx, mesh.ny)


def jump(u, e=None):
    """Vector jumps (u_plus - u_minus) * nu_plus, one row per interior
    edge of e (default: the mesh's edges)."""
    e = edges(u.mesh) if e is None else e
    du = u.values[e["int_plus"]] - u.values[e["int_minus"]]
    return du[:, None] * e["int_normal"]


def average(phi):
    """Means of the two neighbor values, one row per interior edge."""
    e = edges(phi.mesh)
    return 0.5 * (phi.values[e["int_plus"]] + phi.values[e["int_minus"]])


def penalty(exponent, length, mid):
    """Edge weights diam(e)^(-2/p'(x_e)), p' the conjugate exponent at
    the midpoints mid (n, 2) of edges of the given lengths."""
    p = exponent(mid[:, 0], mid[:, 1])
    return length ** (-2.0 * (p - 1.0) / p)


def weighted_jump_norm(u, exponent):
    """L2 norm over interior edges of diam(e)^(-1/p') |[u]|: the broken
    W^{1,p(.)} seminorm of a P0 field, whose gradient part vanishes."""
    e = edges(u.mesh)
    w = penalty(exponent, e["int_length"], e["int_mid"])
    du = u.values[e["int_plus"]] - u.values[e["int_minus"]]
    return float(np.sqrt((e["int_length"] * w * du ** 2).sum()))


def dense_lifting(mesh):
    """Dense (Bx, By) from R(u)|_k = -(1/|k|) sum_e (|e|/2) [u]_e."""
    e = edges(mesh)
    m = mesh.n_elements
    bx = np.zeros((m, m))
    by = np.zeros((m, m))
    for a, b, length, nu in zip(e["int_plus"], e["int_minus"],
                                e["int_length"], e["int_normal"]):
        for k in (a, b):
            coef = -(length / 2.0) / e["areas"][k]
            bx[k, a] += coef * nu[0]
            bx[k, b] -= coef * nu[0]
            by[k, a] += coef * nu[1]
            by[k, b] -= coef * nu[1]
    return bx, by


def axis_lifting(n, h):
    """The 1-D lifting D along one axis of n cells of width h as a CSR:
    (D u)[i] = (u[i+1] - u[i-1]) / (2h), with the half stencils
    (u[1] - u[0]) / (2h) and (u[n-1] - u[n-2]) / (2h) at the ends."""
    c = 1.0 / (2.0 * h)
    ends = np.bincount([0, n - 1], [-c, c], minlength=n)  # n = 1: zero
    return sp.diags([-c, ends, c], [-1, 0, 1], shape=(n, n), format="csr")


def sparse_system(matrix):
    """The u-system A of pxdg.solver as a scipy.sparse.dia_matrix of all
    its bands, offsets ascending: the stored diagonal and upper bands
    (indexed by column, band d holds A[c - d, c] at c), and each lower band
    -d read off band d, A[c + d, c] = A[c, c + d], so its last d entries
    are unused."""
    bands, offsets = matrix.bands, matrix.offsets
    m = bands.shape[1]
    lower = [np.concatenate([band[d:], np.zeros(d)])
             for d, band in zip(offsets[:0:-1], bands[:0:-1])]
    return sp.dia_matrix(
        (np.vstack([*lower, *bands]),
         [-d for d in offsets[:0:-1]] + list(offsets)), shape=(m, m))
