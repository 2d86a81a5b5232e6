"""Global shape descriptor: area-weighted aggregation of vertex signatures.

A shape's descriptor is g = S a, the signature matrix times the vertex
area vector. One length-p vector summarizes the whole mesh, comparable
across shapes computed at the same resolution.

Because the kernel bank acts on eigenvalues only, column j of S is
K phi(j)^2 a_j^2, with K the (p, k) kernel-row matrix. Summing over
vertices gives the closed form g = K w with w_l = sum_j a_j^3 phi_l(j)^2,
so the descriptor never needs the p x m signature matrix: a per-mesh
``SpectralSummary`` of k eigenvalues and k weights is enough.

Levels share scale fractions, so K has only 272 distinct rows at R = 30
for its p = 495 (see ``sgws``): with K_d those rows and index the map from
the p entries to them, g = (K_d w)[index], one dot product per distinct row.

``_descriptor_into`` is the one place that computes it. The public
``descriptor_from_summary`` calls it for one shape; a batch run of
``pipeline`` calls it for every (R, k) cell of a stratum, writing each row
of the cell's descriptor matrix in place. The distinct rows at R are the
first ones at any larger R (see ``sgws``), so the run evaluates each
shape's bank once per k, at the grid's largest R, and each cell's row
takes the product over the first rows of that bank, those of its own R.
Slicing the rows, not the product, keeps every entry bitwise equal to
``descriptor_from_summary`` at R: OpenBLAS blocks the matrix-vector product
by its row count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv

from .eigen import EigenBasis
from .errors import DimensionMismatch, InvalidParam, _integer
from .sgws import SignatureMatrix, _distinct_kernel_rows, _level_layout, signature_length

__all__ = [
    "GsgwVector",
    "SpectralSummary",
    "aggregate",
    "summarize",
    "descriptor_from_summary",
]


def _require_finite(g: np.ndarray) -> None:
    if not np.isfinite(g).all():
        raise InvalidParam("descriptor entries must be finite")


@dataclass(frozen=True)
class GsgwVector:
    """Global descriptor of one shape.

    Attributes
    ----------
    values : (p,) float64, finite and nonnegative
    R : int
        Resolution the signature was computed at.
    """

    values: np.ndarray
    R: int

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.values.shape != (signature_length(self.R),):
            raise InvalidParam(
                f"descriptor has length {self.values.shape}, "
                f"expected ({signature_length(self.R)},) for R={self.R}"
            )
        _require_finite(self.values)

    @property
    def p(self) -> int:
        return self.values.shape[0]


def aggregate(sig: SignatureMatrix, areas) -> GsgwVector:
    """Aggregate per-vertex signatures into one descriptor, g = S a.

    The pipeline gets the same vector from ``descriptor_from_summary``
    without building S; this is the definition it is tested against.

    Parameters
    ----------
    sig : SignatureMatrix
    areas : (m,) positive vertex areas
    """
    a = np.asarray(areas, dtype=np.float64)
    if a.shape != (sig.m,):
        raise DimensionMismatch(
            f"area vector has shape {a.shape}, signature matrix has {sig.m} columns"
        )
    if (a <= 0).any():
        raise InvalidParam("vertex areas must be positive")
    return GsgwVector(sig.values @ a, R=sig.R)


@dataclass(frozen=True)
class SpectralSummary:
    """What the global descriptor needs of one mesh's first K eigenpairs.

    Attributes
    ----------
    eigenvalues : (K,) float64, ascending
    w_area : (K,) float64
        sum_j a_j^3 phi_l(j)^2, the weights of the standard descriptor.
    total_area : float
        Sum of the vertex areas; its square is the divisor under ``normalize``.

    Without the a_j^2 area factor the weights are sum_j a_j phi_l(j)^2,
    the diagonal of Phi^T A Phi = I, so they are taken as exact ones and
    are not stored.

    Every entry of a prefix depends only on its own eigenpair, so a
    summary of K pairs serves any k <= K through ``truncate``.
    """

    eigenvalues: np.ndarray
    w_area: np.ndarray
    total_area: float

    def __post_init__(self):
        for arr in (self.eigenvalues, self.w_area):
            arr.setflags(write=False)

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[0]

    def truncate(self, k: int) -> "SpectralSummary":
        """Summary of the first k <= self.k pairs (self when k == self.k)."""
        k = _integer("k", k)
        if not 1 <= k <= self.k:
            raise InvalidParam(f"k must be in [1, {self.k}], got {k}")
        if k == self.k:
            return self
        return SpectralSummary(self.eigenvalues[:k], self.w_area[:k], self.total_area)


def summarize(basis: EigenBasis) -> SpectralSummary:
    """Spectral summary of a basis: eigenvalues plus the per-pair area weights."""
    a = basis.vertex_areas
    if (a <= 0).any():
        raise InvalidParam("vertex areas must be positive")
    # einsum's own loop, not a BLAS product: no call into numpy's OpenBLAS thread pool
    # (see the stats module), and no dependence on the thread count (the BLAS product
    # of this shape changed with it at m = 40962, k = 60)
    w_area = np.einsum("ij,i->j", basis.eigenvectors**2, a**3)
    return SpectralSummary(basis.eigenvalues, w_area, float(a.sum()))


def _descriptor_into(
    g: np.ndarray, rows: np.ndarray, R: int, summary: SpectralSummary, area_factor: bool,
    normalize: bool,
) -> None:
    """Write g = (K_d w)[index] at resolution R into the (p,) float64 array g.

    ``rows`` are the distinct kernel rows of the summary's first k pairs at R
    or at a larger R (see ``sgws._level_layout``); the product runs over the
    first ones, those of R alone. With ``area_factor`` the weights are the
    first k of w_area; without it they are ones, the diagonal of
    Phi^T A Phi = I, so that descriptor is a function of the eigenvalues
    alone. ``normalize`` divides by the total area squared: under the area
    factor g goes as length^4, so this removes surface size, but not the
    dependence on tessellation density. Raises InvalidParam when an entry is
    not finite.
    """
    a, _, index = _level_layout(R)
    k = rows.shape[1]
    weights = summary.w_area[:k] if area_factor else np.ones(k)
    # scipy's BLAS, not numpy's (see summarize); the transposed view of C-ordered
    # rows is Fortran-ordered, so nothing is copied, and each entry is one dot product
    distinct = dgemv(1.0, rows[: a.shape[0] + 1].T, weights, trans=1)
    if normalize:
        distinct /= summary.total_area**2
    _require_finite(distinct)
    np.take(distinct, index, out=g)


def descriptor_from_summary(
    summary: SpectralSummary, R: int, area_factor: bool = True, normalize: bool = False
) -> GsgwVector:
    """Closed-form g = (K_d w)[index]; equals ``aggregate(signature_matrix(...))``.

    The summary's eigenvalues set the kernel rows at resolution R; the
    weights and ``normalize`` are those of ``_descriptor_into``. Without the
    area factor there is no size to divide out, so ``normalize`` is refused.
    """
    if normalize and not area_factor:
        raise InvalidParam("normalize needs the area factor")
    g = np.empty(signature_length(R))
    _descriptor_into(
        g, _distinct_kernel_rows(summary.eigenvalues, R), R, summary, area_factor, normalize
    )
    return GsgwVector(g, R=R)
