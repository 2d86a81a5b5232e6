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

Scale i of level L sits at the fraction i / (L - 1) of the way from
log(2/lambda_min) to log(2/lambda_max). Levels share fractions: 1/2 is
scale 1 of level 3 and scale 2 of level 5. So each scale is computed from
its fraction a/b in lowest terms, as exp(a * ((log t_fine - log t_coarse) /
b) + log t_coarse), with the endpoints 0/1 and 1/1 pinned at t_coarse and
t_fine: scales that are equal in exact arithmetic are bitwise equal, and so
are the signature and descriptor entries they give. At R = 30 the p = 495
entries hold 271 distinct band-pass fractions and one low-pass row, 272
distinct kernel rows; ``_level_layout`` maps the entries to them, and the
signature and descriptor evaluate each distinct row once.
"""

from __future__ import annotations

import functools
import math
import sys
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


def _fraction_scales(a, b, t_coarse: float, t_fine: float) -> np.ndarray:
    """The scales at the fractions a/b, in lowest terms, of the log axis from
    t_coarse to t_fine; 0/1 and 1/1 are the pinned endpoints."""
    start = math.log(t_coarse)
    scales = np.exp(a * ((math.log(t_fine) - start) / b) + start)
    scales[a == 0] = t_coarse
    scales[a == b] = t_fine
    return scales


def wavelet_scales(L: int, lambda_min: float, lambda_max: float) -> np.ndarray:
    """L scales log-equispaced from 2/lambda_min down to 2/lambda_max.

    Endpoints are exact; the sequence is strictly decreasing. L = 1 returns
    just the coarsest scale 2/lambda_min. Scale i is computed from the
    fraction i / (L - 1) in lowest terms (see the module docstring), so it is
    bitwise the scale of any level with the same fraction. InvalidParam
    unless 0 < lambda_min < lambda_max < inf and 2/lambda_min is finite.
    """
    L = _integer("L", L, 1)
    if not (0.0 < lambda_min < lambda_max < math.inf):
        raise InvalidParam(
            f"need 0 < lambda_min < lambda_max < inf, got ({lambda_min}, {lambda_max})"
        )
    t_coarse = 2.0 / float(lambda_min)
    if t_coarse == math.inf:
        raise InvalidParam(f"the coarsest scale 2/lambda_min overflows at lambda_min = {lambda_min}")
    i, b = np.arange(L), max(L - 1, 1)
    divisors = np.gcd(i, b)
    return _fraction_scales(i // divisors, b // divisors, t_coarse, 2.0 / float(lambda_max))


def spectrum_bounds(eigenvalues) -> tuple[float, float]:
    """Scale-grid bounds (lambda_max / 20, lambda_max) of an ascending spectrum.

    lambda_max is the largest given eigenvalue; lambda_min is pinned at a
    twentieth of it, which keeps the band-pass scales anchored to the
    resolved part of the spectrum. Needs at least 2 eigenvalues, otherwise
    lambda_max would be the trivial zero mode. NumericalError unless
    lambda_min is a positive normal float and the coarsest scale 2/lambda_min
    is finite, the grid ``wavelet_scales`` can represent.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.shape[0] < 2:
        raise InvalidParam(f"spectrum bounds need k >= 2 eigenpairs, got {lam.shape[0]}")
    lam_max = float(lam[-1])
    if lam_max <= 0.0:
        raise NumericalError("largest eigenvalue is zero; spectrum carries no band to analyze")
    lambda_min = lam_max / 20.0
    # a normal lambda_min is below inf, and 2 / lambda_min <= 2 / 2.2e-308 is finite
    if not sys.float_info.min <= lambda_min < math.inf:
        raise NumericalError(
            f"largest eigenvalue {lam_max!r} has no representable scale grid: "
            "lambda_max / 20 must be a positive normal float"
        )
    return lambda_min, lam_max


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
    """The distinct kernel rows at resolution R and the map from the p entries
    to them, built once per R (for the 32 latest).

    (a, b, index), all read-only. Distinct row 0 is the low-pass kernel;
    row r >= 1 is the band-pass kernel at the fraction a[r - 1] / b[r - 1],
    in lowest terms. The fractions are in order of first appearance, level
    by level, so the rows at R are the first ones at any larger R: level L
    adds the fractions whose denominator is L - 1. Entry e of the p
    signature entries (level-major, as in ``SignatureMatrix``) takes row
    index[e]. At R = 30 there are 272 rows.
    """
    rows: dict = {}  # (a, b) -> its distinct row
    index = []
    for level in range(1, R + 1):
        b = max(level - 1, 1)
        for i in range(level):
            divisor = math.gcd(i, b)
            index.append(rows.setdefault((i // divisor, b // divisor), len(rows) + 1))
        index.append(0)
    layout = (*map(np.array, zip(*rows)), np.array(index))
    for array in layout:
        array.setflags(write=False)
    return layout


def _distinct_kernel_rows(eigenvalues, R: int) -> np.ndarray:
    """(len(a) + 1, k) matrix of the distinct kernel rows of ``_level_layout(R)``.

    Row r holds the weights applied to the k eigenvalue terms; the scale
    grid comes from ``spectrum_bounds(eigenvalues)``. Each entry is the same
    scalar arithmetic as evaluating the kernel at one scale of
    ``wavelet_scales``, and no row depends on R, so the rows at R are the
    first rows at any larger R.
    """
    a, b, _ = _level_layout(R)
    lam = np.asarray(eigenvalues, dtype=np.float64)
    lambda_min, lambda_max = spectrum_bounds(lam)
    rows = np.empty((a.shape[0] + 1, lam.shape[0]))
    rows[0] = scaling_kernel(lam, lambda_min)
    scales = _fraction_scales(a, b, 2.0 / lambda_min, 2.0 / lambda_max)
    band = np.multiply(scales[:, None], lam, out=rows[1:])
    band *= np.exp(-band)  # mexican_hat, in place
    return rows


def _kernel_rows(eigenvalues, R: int) -> np.ndarray:
    """(p, k) matrix of kernel evaluations, one row per signature entry: the
    distinct rows spread over the entries by ``_level_layout(R)``'s index, so
    every vertex signature is this matrix times phi(j)^2."""
    return _distinct_kernel_rows(eigenvalues, R)[_level_layout(R)[2]]


def signature_matrix(
    basis: EigenBasis, R: int, area_factor: bool = True
) -> SignatureMatrix:
    """Signatures of every vertex as one product, (K_d (phi^2)^T)[index]: the
    distinct kernel rows times (phi^2)^T, spread over the p entries."""
    R = _integer("resolution R", R, 1)
    values = _distinct_kernel_rows(basis.eigenvalues, R) @ (basis.eigenvectors**2).T
    if area_factor:
        values *= basis.vertex_areas**2
    return SignatureMatrix(values[_level_layout(R)[2]], R=R)


def write_signature_csv(sig: SignatureMatrix, path) -> None:
    """CSV export, p rows by m columns, 12 significant digits."""
    # Python floats format faster than numpy scalars, to the same digits
    _atomic_write_bytes(path, _csv_bytes([f"{x:.12g}" for x in row.tolist()] for row in sig.values))

