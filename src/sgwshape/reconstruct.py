"""Spectral reconstruction of mesh geometry and its error curve.

Projecting the three coordinate functions onto the first k eigenfunctions
(under the area-weighted inner product) gives a low-pass filtered version
of the shape. The error curve NMSE(k) is the area-weighted squared
residual normalized by the k = 1 residual, so it starts at exactly 1 and
decreases toward 0 as k grows. A reconstruction is a plain (m, 3) vertex
array, not a TriangleMesh: at k = 1 every vertex sits on the area-weighted
centroid, which no mesh may do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigen import EigenBasis
from .errors import InvalidParam, _integer
from .mesh_io import TriangleMesh
from .outputs import _atomic_write_bytes, _csv_bytes

__all__ = ["ReconstructionReport", "reconstruct_vertices", "nmse_curve"]


@dataclass(frozen=True)
class ReconstructionReport:
    """NMSE values over a list of basis sizes, optionally with each k's vertex positions."""

    ks: tuple
    nmse: tuple
    positions: dict = field(default_factory=dict, repr=False)

    def write_csv(self, path) -> None:
        rows = [["k", "nmse"], *([str(k), repr(val)] for k, val in zip(self.ks, self.nmse))]
        _atomic_write_bytes(path, _csv_bytes(rows))


def reconstruct_vertices(mesh: TriangleMesh, basis: EigenBasis, k: int) -> np.ndarray:
    """Vertex positions projected onto the first k eigenfunctions.

    Each coordinate x becomes Phi_k (Phi_k^T A x). The same projection code
    serves every k, so error curves are internally consistent.
    """
    if basis.m != mesh.m:
        raise InvalidParam(f"basis built on {basis.m} vertices, mesh has {mesh.m}")
    k = _integer("k", k)
    if not 1 <= k <= basis.k:
        raise InvalidParam(f"k must be in [1, {basis.k}], got {k}")
    phi = basis.eigenvectors[:, :k]
    coeffs = phi.T @ (basis.vertex_areas[:, None] * mesh.vertices)
    return phi @ coeffs


def _weighted_residual(mesh, basis, k, weighted):
    delta = mesh.vertices - reconstruct_vertices(mesh, basis, k)
    sq = (delta**2).sum(axis=1)
    if weighted:
        return float(basis.vertex_areas @ sq)
    return float(sq.sum())


def nmse_curve(
    mesh: TriangleMesh,
    basis: EigenBasis,
    ks,
    keep_meshes: bool = False,
    weighted: bool = True,
) -> ReconstructionReport:
    """Normalized reconstruction error over basis sizes.

    NMSE(k) is the (area-weighted by default) squared residual of the k-term
    reconstruction divided by that of the 1-term reconstruction. The 1-term
    reconstruction places every vertex at the area-weighted centroid, so the
    denominator is the total centered variance and NMSE(1) == 1.0 by
    construction (numerator and denominator are the same float).

    Parameters
    ----------
    ks : iterable of int, each in [1, basis.k]
    keep_meshes : bool
        Also return each k's reconstructed (m, 3) vertex positions, keyed by
        k, as ``positions``.
    weighted : bool
        Area-weighted norms (the default) or plain vertex sums.
    """
    ks = [_integer("k", k) for k in ks]
    if not ks:
        raise InvalidParam("need at least one basis size")
    for k in ks:
        if not 1 <= k <= basis.k:
            raise InvalidParam(f"k must be in [1, {basis.k}], got {k}")

    denom = _weighted_residual(mesh, basis, 1, weighted)
    if denom == 0.0:
        raise InvalidParam("mesh is a single point at the centroid; NMSE is undefined")
    values = tuple(_weighted_residual(mesh, basis, k, weighted) / denom for k in ks)
    positions = {k: reconstruct_vertices(mesh, basis, k) for k in ks} if keep_meshes else {}
    return ReconstructionReport(ks=tuple(ks), nmse=values, positions=positions)
