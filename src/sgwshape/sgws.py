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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .eigen import EigenBasis, spectrum_bounds
from .errors import InvalidParam

__all__ = [
    "KernelConfig",
    "SignatureMatrix",
    "mexican_hat",
    "scaling_kernel",
    "wavelet_scales",
    "signature_length",
    "vertex_signature",
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
    if R < 1:
        raise InvalidParam(f"resolution must be >= 1, got {R}")
    return (R + 1) * (R + 2) // 2 - 1


def wavelet_scales(L: int, lambda_min: float, lambda_max: float) -> np.ndarray:
    """L scales log-equispaced from 2/lambda_min down to 2/lambda_max.

    Endpoints are exact; the sequence is strictly decreasing. L = 1 returns
    just the coarsest scale 2/lambda_min.
    """
    if L < 1:
        raise InvalidParam(f"need at least one scale, got L={L}")
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


@dataclass(frozen=True)
class KernelConfig:
    """Scale grid and area setting of the fixed kernel bank.

    Attributes
    ----------
    R : int
        Number of multiresolution levels, >= 1.
    lambda_min, lambda_max : float
        Spectrum bounds driving the scale grid and the low-pass cutoff.
    area_factor : bool
        Include the a_j^2 vertex-area factor (the default). Disabling it
        is a sensitivity knob, not part of the standard descriptor.
    """

    R: int
    lambda_min: float
    lambda_max: float
    area_factor: bool = True

    def __post_init__(self):
        if self.R < 1:
            raise InvalidParam(f"resolution must be >= 1, got {self.R}")
        if not (0.0 < self.lambda_min < self.lambda_max):
            raise InvalidParam(
                f"need 0 < lambda_min < lambda_max, got "
                f"({self.lambda_min}, {self.lambda_max})"
            )

    @classmethod
    def from_eigen(cls, basis: EigenBasis, R: int, **kwargs) -> "KernelConfig":
        """Config with bounds (lambda_max/20, lambda_max) from a basis.

        Only the eigenvalues are read, so a ``SpectralSummary`` serves too.
        """
        lam_min, lam_max = spectrum_bounds(basis)
        return cls(R=R, lambda_min=lam_min, lambda_max=lam_max, **kwargs)

    @property
    def p(self) -> int:
        return signature_length(self.R)


def scaling_kernel(x, cfg: KernelConfig):
    """Low-pass kernel h(x) = gamma exp(-(x / (0.6 lambda_min))^4), gamma = 1/e."""
    x = np.asarray(x, dtype=np.float64)
    return _MEXICAN_HAT_PEAK * np.exp(-((x / (0.6 * cfg.lambda_min)) ** 4))


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


def _kernel_rows(eigenvalues: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """(p, k) matrix of kernel evaluations, one row per signature entry.

    Row r holds the weights applied to the k eigenvalue terms for entry r,
    so every vertex signature is this matrix times phi(j)^2. All band-pass
    rows come from one broadcast product; each entry is the same scalar
    arithmetic as evaluating the kernel row by row.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    levels = range(1, cfg.R + 1)
    scales = np.concatenate(
        [wavelet_scales(level, cfg.lambda_min, cfg.lambda_max) for level in levels]
    )
    # level L holds L band-pass rows and then its low-pass row, which
    # therefore sits at index L(L+3)/2 - 1
    low_pass = np.array([level * (level + 3) // 2 - 1 for level in levels])
    band_pass = np.ones(cfg.p, dtype=bool)
    band_pass[low_pass] = False
    rows = np.empty((cfg.p, lam.shape[0]))
    rows[band_pass] = mexican_hat(scales[:, None] * lam)
    rows[low_pass] = scaling_kernel(lam, cfg)
    return rows


def vertex_signature(basis: EigenBasis, cfg: KernelConfig, j: int) -> np.ndarray:
    """Length-p signature of vertex j.

    Needs at least 2 eigenpairs; the constant zero mode alone carries no
    band-pass content.
    """
    if basis.k < 2:
        raise InvalidParam(f"signatures need k >= 2 eigenpairs, got {basis.k}")
    if not 0 <= j < basis.m:
        raise InvalidParam(f"vertex index {j} outside [0, {basis.m})")
    phi_sq = basis.eigenvectors[j] ** 2
    sig = _kernel_rows(basis.eigenvalues, cfg) @ phi_sq
    if cfg.area_factor:
        sig = sig * basis.vertex_areas[j] ** 2
    return sig


def signature_matrix(basis: EigenBasis, cfg: KernelConfig) -> SignatureMatrix:
    """Signatures of every vertex; column j equals vertex_signature(.., j).

    Column j is produced by the same kernel-row product as the single
    vertex path, so the two agree bitwise.
    """
    if basis.k < 2:
        raise InvalidParam(f"signatures need k >= 2 eigenpairs, got {basis.k}")
    rows = _kernel_rows(basis.eigenvalues, cfg)
    values = np.empty((cfg.p, basis.m))
    for j in range(basis.m):
        col = rows @ (basis.eigenvectors[j] ** 2)
        if cfg.area_factor:
            col = col * basis.vertex_areas[j] ** 2
        values[:, j] = col
    return SignatureMatrix(values, R=cfg.R)


def write_signature_csv(sig: SignatureMatrix, path) -> None:
    """CSV export, p rows by m columns, 12 significant digits."""
    lines = [",".join(f"{x:.12g}" for x in row) for row in sig.values]
    Path(path).write_text("\n".join(lines) + "\n")

