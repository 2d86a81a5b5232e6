"""Multiresolution spectral graph wavelet signatures on mesh vertices.

Each vertex j gets a vector built level by level. Level L contributes L
band-pass coefficients at scales log-equispaced between 2/lambda_min and
2/lambda_max, followed by one low-pass scaling coefficient:

    band-pass at scale t:  sum_l a_j^2 g(t lambda_l) phi_l(j)^2
    low-pass:              sum_l a_j^2 h(lambda_l)  phi_l(j)^2

with g the Mexican hat x exp(-x) and h(x) = gamma exp(-(x / (0.6
lambda_min))^4), gamma = 1/e so that h(0) = max g. This bank is fixed,
not a setting. Stacking levels 1..R yields a vector of length
p = (R+1)(R+2)/2 - 1. Only the squared eigenfunction
values enter, so the signature does not depend on eigenvector signs, nor
on the choice of basis inside a degenerate eigenspace.

The scale grid is a function of the spectrum, not a setting: lambda_max
is the largest of the k eigenvalues the kernels receive and lambda_min =
lambda_max / 20 (Hammond, Vandergheynst and Gribonval, "Wavelets on graphs
via spectral graph theory", ACHA 2011). ``spectrum_bounds`` is the one
place that derives it; every kernel function takes the eigenvalues and R.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .eigen import EigenBasis
from .errors import InvalidParam, NumericalError, _integer
from .outputs import _atomic_write_bytes, _csv_bytes

__all__ = [
    "SignatureMatrix",
    "mexican_hat",
    "scaling_kernel",
    "spectrum_bounds",
    "wavelet_scales",
    "signature_length",
    "signature_matrix",
    "write_signature_csv",
]

# gamma makes h(0) equal the Mexican hat peak g(1) = 1/e
_MEXICAN_HAT_PEAK = math.exp(-1.0)


def mexican_hat(x):
    """Band-pass generating kernel g(x) = x exp(-x); peaks at g(1) = 1/e."""
    return x * np.exp(-x)


def signature_length(R: int) -> int:
    """Signature dimension p = (R+1)(R+2)/2 - 1 for resolution R."""
    R = _integer("resolution R", R, 1)
    return (R + 1) * (R + 2) // 2 - 1


def wavelet_scales(L: int, lambda_min: float, lambda_max: float) -> np.ndarray:
    """L scales log-equispaced from 2/lambda_min down to 2/lambda_max.

    Endpoints are exact; the sequence is strictly decreasing. L = 1 returns
    just the coarsest scale 2/lambda_min.
    """
    L = _integer("L", L, 1)
    if not (0.0 < lambda_min < lambda_max):
        raise InvalidParam(
            f"need 0 < lambda_min < lambda_max, got ({lambda_min}, {lambda_max})"
        )
    t_coarse = 2.0 / lambda_min
    if L == 1:
        return np.array([t_coarse])
    t_fine = 2.0 / lambda_max
    t = np.exp(np.linspace(math.log(t_coarse), math.log(t_fine), L))
    t[0] = t_coarse
    t[-1] = t_fine
    return t


def spectrum_bounds(eigenvalues) -> tuple[float, float]:
    """Scale-grid bounds (lambda_max / 20, lambda_max) of an ascending spectrum.

    lambda_max is the largest given eigenvalue; lambda_min is pinned at a
    twentieth of it, which keeps the band-pass scales anchored to the
    resolved part of the spectrum. Needs at least 2 eigenvalues, otherwise
    lambda_max would be the trivial zero mode.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.shape[0] < 2:
        raise InvalidParam(f"spectrum bounds need k >= 2 eigenpairs, got {lam.shape[0]}")
    lam_max = float(lam[-1])
    if lam_max <= 0.0:
        raise NumericalError("largest eigenvalue is zero; spectrum carries no band to analyze")
    return lam_max / 20.0, lam_max


def scaling_kernel(x, lambda_min: float):
    """Low-pass kernel h(x) = gamma exp(-(x / (0.6 lambda_min))^4), gamma = 1/e."""
    x = np.asarray(x, dtype=np.float64)
    return _MEXICAN_HAT_PEAK * np.exp(-((x / (0.6 * lambda_min)) ** 4))


@dataclass(frozen=True)
class SignatureMatrix:
    """Per-vertex signatures stacked as columns of a p x m matrix.

    Row order is level-major: all entries of level 1, then level 2, up to
    level R; within a level, band-pass coefficients at scales t_1..t_L
    (coarse to fine) followed by the scaling coefficient.
    """

    values: np.ndarray
    R: int

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.values.shape[0] != signature_length(self.R):
            raise InvalidParam(
                f"signature matrix has {self.values.shape[0]} rows, "
                f"expected {signature_length(self.R)} for R={self.R}"
            )

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@functools.lru_cache(maxsize=32)
def _level_layout(R: int) -> tuple:
    """The index layout of ``_kernel_rows`` at resolution R, built once per R
    (for the 32 latest).

    (divisors, positions, triangle, fine, coarse, low_pass, band_pass), all
    read-only: each level's linspace divisor max(L - 1, 1) and the positions
    0 .. R - 1; the lower-triangle mask whose row L - 1 holds level L's L
    scales; the indices, among all scales, of every level's finest scale
    (levels >= 2) and coarsest scale; and the rows of the low-pass and
    band-pass kernels among the p rows. Level L holds L band-pass rows and
    then its low-pass row, which therefore sits at index L(L+3)/2 - 1.
    """
    levels = np.arange(1, R + 1)
    low_pass = levels * (levels + 3) // 2 - 1
    band_pass = np.ones(signature_length(R), dtype=bool)
    band_pass[low_pass] = False
    layout = (
        np.maximum(levels - 1, 1),
        np.arange(R),
        np.tri(R, dtype=bool),
        (levels * (levels + 1) // 2 - 1)[1:],
        levels * (levels - 1) // 2,
        low_pass,
        band_pass,
    )
    for array in layout:
        array.setflags(write=False)
    return layout


def _kernel_rows(eigenvalues, R: int) -> np.ndarray:
    """(p, k) matrix of kernel evaluations, one row per signature entry.

    Row r holds the weights applied to the k eigenvalue terms for entry r,
    so every vertex signature is this matrix times phi(j)^2. The scale grid
    comes from ``spectrum_bounds(eigenvalues)``. All band-pass rows come
    from one broadcast product; each entry is the same scalar arithmetic as
    evaluating the kernel row by row. No row depends on R, only on its
    level, so the rows at R are the first p(R) rows at any larger R.
    """
    p = signature_length(R)
    divisors, positions, triangle, fine, coarse, low_pass, band_pass = _level_layout(R)
    lam = np.asarray(eigenvalues, dtype=np.float64)
    lambda_min, lambda_max = spectrum_bounds(lam)
    t_coarse, t_fine = 2.0 / lambda_min, 2.0 / lambda_max
    start, stop = math.log(t_coarse), math.log(t_fine)
    # Every level's wavelet_scales in one pass of the same arithmetic: linspace's
    # i * ((stop - start) / (L - 1)) + start, one exp, then the endpoints pinned.
    step = (stop - start) / divisors
    scales = np.exp((positions * step[:, None] + start)[triangle])
    scales[fine] = t_fine
    scales[coarse] = t_coarse
    rows = np.empty((p, lam.shape[0]))
    rows[band_pass] = mexican_hat(scales[:, None] * lam)
    rows[low_pass] = scaling_kernel(lam, lambda_min)
    return rows


def signature_matrix(
    basis: EigenBasis, R: int, area_factor: bool = True
) -> SignatureMatrix:
    """Signatures of every vertex as one product: kernel rows times (phi^2)^T."""
    R = _integer("resolution R", R, 1)
    values = _kernel_rows(basis.eigenvalues, R) @ (basis.eigenvectors**2).T
    if area_factor:
        values = values * basis.vertex_areas**2
    return SignatureMatrix(values, R=R)


def write_signature_csv(sig: SignatureMatrix, path) -> None:
    """CSV export, p rows by m columns, 12 significant digits."""
    # Python floats format faster than numpy scalars, to the same digits
    _atomic_write_bytes(path, _csv_bytes([f"{x:.12g}" for x in row.tolist()] for row in sig.values))

