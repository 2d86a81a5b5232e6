"""Cotangent stiffness matrix and lumped vertex-area mass matrix.

The stiffness matrix W has off-diagonal entries
``-(cot(alpha_ij) + cot(beta_ij)) / 2`` over the one or two triangles
opposite edge (i, j), and row sums of zero. The mass matrix A is diagonal,
holding one area patch per vertex. The default patch is the mixed scheme:
circumcentric corner areas inside non-obtuse triangles, and half (at the
obtuse corner) or a quarter (elsewhere) of the triangle area inside obtuse
ones. ``lumping="barycentric"`` assigns a flat third of each triangle
instead.

Both matrices are assembled in scipy CSR form. Assembly is deterministic:
entries are emitted in triangle order and summed by the fixed COO-to-CSR
reduction, so repeated runs on the same mesh are bitwise identical.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import DegenerateMass, InvalidParam
from .mesh_io import TriangleMesh, _triangle_geometry

__all__ = [
    "stiffness_matrix",
    "mass_matrix",
    "laplacian_matrices",
]

LUMPING_SCHEMES = ("mixed", "barycentric")


def _corner_geometry(mesh: TriangleMesh):
    """Per-triangle corner cotangents, squared opposite edges, and areas.

    Corner order follows the triangle arrays: corner 0 is vertex
    ``triangles[:, 0]`` and its opposite edge is (1, 2), and so on.
    """
    (e0, e1, e2), edge_sq, double_area = _triangle_geometry(mesh.vertices, mesh.triangles)
    # cot at corner k = -e_{k+1} . e_{k+2} / (2 * area)
    dots = np.stack(
        [-(e1 * e2).sum(axis=1), -(e2 * e0).sum(axis=1), -(e0 * e1).sum(axis=1)], axis=1
    )
    cots = dots / double_area[:, None]
    return cots, edge_sq, 0.5 * double_area


def stiffness_matrix(mesh: TriangleMesh) -> sparse.csr_matrix:
    """Symmetric positive semidefinite cotangent stiffness matrix, (m, m) CSR."""
    return _stiffness(mesh, _corner_geometry(mesh)[0])


def _stiffness(mesh: TriangleMesh, cots: np.ndarray) -> sparse.csr_matrix:
    m = mesh.m
    t = mesh.triangles

    # each corner contributes half its cotangent to the opposite edge
    half = 0.5 * cots
    rows = np.concatenate([t[:, 1], t[:, 2], t[:, 2], t[:, 0], t[:, 0], t[:, 1]])
    cols = np.concatenate([t[:, 2], t[:, 1], t[:, 0], t[:, 2], t[:, 1], t[:, 0]])
    vals = np.concatenate([half[:, 0], half[:, 0], half[:, 1], half[:, 1], half[:, 2], half[:, 2]])

    off = sparse.coo_matrix((-vals, (rows, cols)), shape=(m, m)).tocsr()
    off.sum_duplicates()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sparse.diags(diag, format="csr")).tocsr()


def mass_matrix(mesh: TriangleMesh, lumping: str = "mixed") -> sparse.dia_matrix:
    """Diagonal vertex-area mass matrix, (m, m).

    Raises DegenerateMass if any vertex patch comes out non-positive, which
    only happens on degenerate geometry.
    """
    return _mass(mesh, lumping, _corner_geometry(mesh))


def _mass(mesh: TriangleMesh, lumping: str, geometry) -> sparse.dia_matrix:
    """mass_matrix, from the mesh's _corner_geometry."""
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

    patch = np.zeros(mesh.m)
    np.add.at(patch, t.ravel(), corner_area.ravel())
    if (patch <= 0.0).any() or not np.isfinite(patch).all():
        bad = int(np.flatnonzero((patch <= 0.0) | ~np.isfinite(patch))[0])
        raise DegenerateMass(f"vertex {bad} has non-positive area patch")
    return sparse.diags(patch, format="dia")


def laplacian_matrices(mesh: TriangleMesh, lumping: str = "mixed"):
    """Return (W, A): stiffness and mass matrices of the mesh, from one corner-geometry pass."""
    geometry = _corner_geometry(mesh)
    return _stiffness(mesh, geometry[0]), _mass(mesh, lumping, geometry)
