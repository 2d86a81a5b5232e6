"""Global shape descriptor: area-weighted aggregation of vertex signatures.

A shape's descriptor is g = S a, the signature matrix times the vertex
area vector. One length-p vector summarizes the whole mesh, comparable
across shapes computed at the same resolution.

Because the kernel bank acts on eigenvalues only, column j of S is
K phi(j)^2 a_j^2, with K the (p, k) kernel-row matrix. Summing over
vertices gives the closed form g = K w with w_l = sum_j a_j^3 phi_l(j)^2,
so the descriptor never needs the p x m signature matrix: a per-mesh
``SpectralSummary`` of k eigenvalues and k weights is enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigen import EigenBasis
from .errors import DimensionMismatch, InvalidParam
from .sgws import KernelConfig, SignatureMatrix, _kernel_rows, signature_length

__all__ = [
    "GsgwVector",
    "SpectralSummary",
    "aggregate",
    "summarize",
    "descriptor_from_summary",
    "gsgw_distance",
]


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
        if not np.isfinite(self.values).all():
            raise InvalidParam("descriptor entries must be finite")

    @property
    def p(self) -> int:
        return self.values.shape[0]


def aggregate(sig: SignatureMatrix, areas, normalize: bool = False) -> GsgwVector:
    """Aggregate per-vertex signatures into one descriptor, g = S a.

    The pipeline gets the same vector from ``descriptor_from_summary``
    without building S; this is the definition it is tested against.

    Parameters
    ----------
    sig : SignatureMatrix
    areas : (m,) positive vertex areas
    normalize : bool
        Divide by the total area, making the descriptor comparable across
        tessellation densities. Off by default.
    """
    a = np.asarray(areas, dtype=np.float64)
    if a.shape != (sig.m,):
        raise DimensionMismatch(
            f"area vector has shape {a.shape}, signature matrix has {sig.m} columns"
        )
    if (a <= 0).any():
        raise InvalidParam("vertex areas must be positive")
    g = sig.values @ a
    if normalize:
        g = g / a.sum()
    return GsgwVector(g, R=sig.R)


@dataclass(frozen=True)
class SpectralSummary:
    """What the global descriptor needs of one mesh's first K eigenpairs.

    Attributes
    ----------
    eigenvalues : (K,) float64, ascending
    w_area : (K,) float64
        sum_j a_j^3 phi_l(j)^2, the weights of the standard descriptor.
    w_plain : (K,) float64
        sum_j a_j phi_l(j)^2, the weights without the a_j^2 area factor.
        These are the diagonal of Phi^T A Phi = I, so they equal 1 up to
        round-off and that descriptor depends on the eigenvalues alone.
    total_area : float
        Sum of the vertex areas, the divisor under ``normalize``.
    method : str
        Eigensolver route that produced the pairs.

    Every entry of a prefix depends only on its own eigenpair, so a
    summary of K pairs serves any k <= K through ``truncate``.
    """

    eigenvalues: np.ndarray
    w_area: np.ndarray
    w_plain: np.ndarray
    total_area: float
    method: str = field(default="dense", compare=False)

    def __post_init__(self):
        for arr in (self.eigenvalues, self.w_area, self.w_plain):
            arr.setflags(write=False)

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[0]

    def truncate(self, k: int) -> "SpectralSummary":
        """Summary of the first k <= self.k pairs (self when k == self.k)."""
        if not 1 <= k <= self.k:
            raise InvalidParam(f"cannot truncate a {self.k}-pair summary to k={k}")
        if k == self.k:
            return self
        return SpectralSummary(
            self.eigenvalues[:k],
            self.w_area[:k],
            self.w_plain[:k],
            self.total_area,
            method=self.method,
        )


def summarize(basis: EigenBasis) -> SpectralSummary:
    """Spectral summary of a basis: eigenvalues plus the per-pair weights."""
    a = basis.vertex_areas
    if (a <= 0).any():
        raise InvalidParam("vertex areas must be positive")
    phi_sq = basis.eigenvectors**2
    return SpectralSummary(
        basis.eigenvalues,
        phi_sq.T @ a**3,
        phi_sq.T @ a,
        float(a.sum()),
        method=basis.method,
    )


def descriptor_from_summary(
    summary: SpectralSummary, cfg: KernelConfig, normalize: bool = False
) -> GsgwVector:
    """Closed-form g = K w; equals ``aggregate(signature_matrix(...))``.

    The summary's k sets the kernel rows; ``cfg.area_factor`` picks w_area
    or w_plain and ``normalize`` divides by the total area, as in
    ``aggregate``.
    """
    weights = summary.w_area if cfg.area_factor else summary.w_plain
    g = _kernel_rows(summary.eigenvalues, cfg) @ weights
    if normalize:
        g = g / summary.total_area
    return GsgwVector(g, R=cfg.R)


def gsgw_distance(g1: GsgwVector, g2: GsgwVector) -> float:
    """Euclidean distance between two descriptors of equal resolution."""
    if g1.R != g2.R or g1.p != g2.p:
        raise DimensionMismatch(
            f"descriptors disagree: R={g1.R} p={g1.p} vs R={g2.R} p={g2.p}"
        )
    return float(np.linalg.norm(g1.values - g2.values))
