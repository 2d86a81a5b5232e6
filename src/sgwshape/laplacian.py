"""Cotangent stiffness matrix and lumped vertex-area mass matrix.

The stiffness matrix W has off-diagonal entries
``-(cot(alpha_ij) + cot(beta_ij)) / 2`` over the one or two triangles
opposite edge (i, j), and row sums of zero. The mass matrix A is diagonal,
holding one area patch per vertex. The default patch is the mixed scheme:
circumcentric corner areas inside non-obtuse triangles, and half (at the
obtuse corner) or a quarter (elsewhere) of the triangle area inside obtuse
ones. ``lumping="barycentric"`` assigns a flat third of each triangle
instead.

W is assembled in scipy CSR form and A in DIA form, from the triangle
geometry and the sorted edge keys that the mesh's validation computed
(see ``TriangleMesh``), with no second geometry pass and no sparse sort.
Assembly is deterministic, with every sum in a fixed order: an edge's
weight adds its one or two half cotangents with ``np.bincount``, the
diagonal adds a row's entries in column order with ``np.add.reduceat``
(as scipy's CSR row sum does), and a vertex's patch adds its corners in
triangle order with ``np.bincount``. An entry of W that comes out exactly
zero is not stored. Repeated runs on the same mesh are bitwise identical.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import DegenerateMass, InvalidParam
from .mesh_io import TriangleMesh, _triangle_geometry

__all__ = ["laplacian_matrices"]

LUMPING_SCHEMES = ("mixed", "barycentric")


def _corner_geometry(mesh: TriangleMesh):
    """Per-triangle corner cotangents, squared opposite edges, and areas.

    Corner order follows the triangle arrays: corner 0 is vertex
    ``triangles[:, 0]`` and its opposite edge is (1, 2), and so on. The edge
    vectors and lengths are the ones the mesh's degeneracy check computed,
    where it ran.
    """
    geometry = mesh._geometry
    if geometry is None:
        geometry = _triangle_geometry(mesh.vertices, mesh.triangles)
    (e0, e1, e2), edge_sq, double_area = geometry
    # cot at corner k = -e_{k+1} . e_{k+2} / (2 * area)
    dots = np.stack(
        [-(e1 * e2).sum(axis=1), -(e2 * e0).sum(axis=1), -(e0 * e1).sum(axis=1)], axis=1
    )
    cots = dots / double_area[:, None]
    return cots, edge_sq, 0.5 * double_area


def _stiffness(mesh: TriangleMesh, cots: np.ndarray) -> sparse.csr_matrix:
    """Symmetric positive semidefinite cotangent stiffness matrix, (m, m) CSR.

    Built on the mesh's sorted edge keys. Row i holds, in column order, its
    edges (j, i) with j < i, its diagonal and its edges (i, j) with j > i;
    an entry that comes out exactly zero is not stored.
    """
    m = mesh.m
    keys, side_edge = mesh._edges
    # a triangle's side (0, 1) is opposite its corner 2, (1, 2) corner 0 and
    # (2, 0) corner 1; each corner gives half its cotangent to the edge of
    # its opposite side, which has one or two such sides
    half = 0.5 * cots
    sides = np.concatenate((half[:, 2], half[:, 0], half[:, 1]))
    weights = -np.bincount(side_edge, weights=sides, minlength=keys.size)

    # edge (i, j), i < j, sits right of row i's diagonal and left of row j's
    lo, hi = np.divmod(keys, m)
    n_left = np.bincount(hi, minlength=m)
    n_right = np.bincount(lo, minlength=m)
    right_start = np.cumsum(n_right) - n_right
    left_end = np.cumsum(n_left)
    flip = np.argsort(hi * m + lo)
    # places in the row-major list of the off-diagonal entries, each row in
    # column order: the edges in key order fill the right parts, and in
    # (j, i) order the left parts
    edge = np.arange(keys.size)
    off_right = edge + left_end[lo]
    off_left = edge + right_start[hi[flip]]
    off = np.empty(2 * keys.size)
    off[off_right] = weights
    off[off_left] = weights[flip]
    # the diagonal makes each row sum to zero; scipy's CSR row sum is this
    # reduceat, and the diagonal keeps its order of additions (every vertex
    # has an edge, so no row is empty)
    diagonal = -np.add.reduceat(off, left_end - n_left + right_start)

    # in W an entry of row r also passes the diagonals of the r rows above,
    # and a right entry its own row's
    vertices = np.arange(m)
    right, left = off_right + lo + 1, off_left + hi[flip]
    at_diagonal = left_end + right_start + vertices
    vals = np.empty(2 * keys.size + m)
    vals[right], vals[left], vals[at_diagonal] = weights, weights[flip], diagonal
    cols = np.empty(vals.size, dtype=keys.dtype)
    cols[right], cols[left], cols[at_diagonal] = hi, lo[flip], vertices
    counts = n_left + 1 + n_right
    kept = vals != 0.0
    if not kept.all():
        counts = np.bincount(np.repeat(vertices, counts)[kept], minlength=m)
        vals, cols = vals[kept], cols[kept]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sparse.csr_matrix((vals, cols, indptr), shape=(m, m))


def _mass(mesh: TriangleMesh, lumping: str, geometry) -> sparse.dia_matrix:
    """Diagonal vertex-area mass matrix, (m, m), from the mesh's _corner_geometry.

    Raises DegenerateMass if any vertex patch comes out non-positive, which
    only happens on degenerate geometry.
    """
    if lumping not in LUMPING_SCHEMES:
        raise InvalidParam(f"unknown lumping {lumping!r}; expected one of {LUMPING_SCHEMES}")
    t = mesh.triangles
    cots, edge_sq, areas = geometry

    if lumping == "barycentric":
        corner_area = np.repeat(areas[:, None] / 3.0, 3, axis=1)
    else:
        # circumcentric corner area: sum of the two adjacent-edge wedges,
        # area at corner k = (|e_{k+1}|^2 cot_{k+1} + |e_{k+2}|^2 cot_{k+2}) / 8
        wedge = edge_sq * cots  # contribution indexed by the *opposite* corner
        corner_area = (wedge.sum(axis=1)[:, None] - wedge) / 8.0
        obtuse = cots < 0.0  # cot < 0 exactly when the corner angle is obtuse
        has_obtuse = obtuse.any(axis=1)
        if has_obtuse.any():
            split = np.where(obtuse, areas[:, None] / 2.0, areas[:, None] / 4.0)
            corner_area = np.where(has_obtuse[:, None], split, corner_area)

    # bincount adds each vertex's corners one at a time, in triangle order
    patch = np.bincount(t.ravel(), weights=corner_area.ravel(), minlength=mesh.m)
    if (patch <= 0.0).any() or not np.isfinite(patch).all():
        bad = int(np.flatnonzero((patch <= 0.0) | ~np.isfinite(patch))[0])
        raise DegenerateMass(f"vertex {bad} has non-positive area patch")
    return sparse.diags(patch, format="dia")


def laplacian_matrices(mesh: TriangleMesh, lumping: str = "mixed"):
    """Return (W, A): stiffness and mass matrices of the mesh, from one corner-geometry pass."""
    geometry = _corner_geometry(mesh)
    return _stiffness(mesh, geometry[0]), _mass(mesh, lumping, geometry)
