"""Generalized eigensolver for the pair (W, A) with a diagonal mass matrix.

Solves ``W phi = lambda A phi`` through the symmetric similarity transform
``B = A^{-1/2} W A^{-1/2}``, whose ordinary eigenvectors u map back as
``phi = A^{-1/2} u``. That keeps the problem symmetric, so eigenvalues are
real and the eigenvector matrix comes out A-orthonormal by construction.

Two routes share this reduction: a dense one (scipy.linalg.eigh on the full
B, used for small meshes and as the cross-check oracle) and a sparse
shift-invert Lanczos one (scipy.sparse.linalg.eigsh, used for large meshes
where only the low end of the spectrum is needed). ``method="auto"`` picks
dense at or below 600 vertices.

Determinism: the Lanczos starting vector is drawn from a fixed-seed
generator, and every eigenvector's sign is normalized so its
largest-magnitude entry is positive. Repeated solves on the same matrices
return bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from .errors import ConvergenceError, InvalidParam, NumericalError

__all__ = ["EigenBasis", "solve_eigen", "spectrum_bounds", "DENSE_CUTOFF"]

# largest vertex count solved densely under method="auto"
DENSE_CUTOFF = 600

_LANCZOS_SEED = 20230817

# extra eigenpairs solved (then discarded) beyond the requested k
_CLUSTER_BUFFER = 8

# eigenvalues are clamped to zero when negative but within this relative
# round-off band; anything more negative is a genuine failure
_NEGATIVE_REL_TOL = 1e-10

_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class EigenBasis:
    """First k eigenpairs of (W, A), ascending, A-orthonormal, sign-fixed.

    Attributes
    ----------
    eigenvalues : (k,) float64, nonnegative, ascending
    eigenvectors : (m, k) float64, ``Phi.T A Phi = I``
    vertex_areas : (m,) float64, diagonal of A
    method : str
        Route actually used, "dense" or "sparse".
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    vertex_areas: np.ndarray
    method: str = field(default="dense", compare=False)

    def __post_init__(self):
        for arr in (self.eigenvalues, self.eigenvectors, self.vertex_areas):
            arr.setflags(write=False)

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def m(self) -> int:
        return self.eigenvectors.shape[0]

    def truncate(self, k: int) -> "EigenBasis":
        """Basis of the first k <= self.k pairs (self when k == self.k)."""
        if not 1 <= k <= self.k:
            raise InvalidParam(f"cannot truncate a {self.k}-pair basis to k={k}")
        if k == self.k:
            return self
        return EigenBasis(
            self.eigenvalues[:k].copy(),
            self.eigenvectors[:, :k].copy(),
            self.vertex_areas,
            method=self.method,
        )


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return vectors * signs


def solve_eigen(stiffness, mass, k: int, method: str = "auto") -> EigenBasis:
    """Compute the k smallest eigenpairs of ``W phi = lambda A phi``.

    Parameters
    ----------
    stiffness : (m, m) symmetric sparse matrix
    mass : (m, m) diagonal sparse matrix with positive diagonal
    k : int, 1 <= k <= m
    method : {"auto", "dense", "sparse"}

    Raises
    ------
    ConvergenceError
        Lanczos failure, or a residual above 1e-8 on any returned pair.
    NumericalError
        Eigenvalues negative beyond round-off.
    """
    w = sparse.csr_matrix(stiffness)
    m = w.shape[0]
    if w.shape != (m, m):
        raise InvalidParam(f"stiffness must be square, got {w.shape}")
    areas = np.asarray(
        mass.diagonal() if sparse.issparse(mass) else np.diag(np.asarray(mass))
    ).astype(np.float64)
    if areas.shape != (m,):
        raise InvalidParam("mass matrix shape does not match the stiffness matrix")
    if (areas <= 0.0).any():
        raise InvalidParam("mass matrix diagonal must be positive")
    if not 1 <= k <= m:
        raise InvalidParam(f"k must be in [1, {m}], got {k}")
    if method not in ("auto", "dense", "sparse"):
        raise InvalidParam(f"unknown method {method!r}; expected auto/dense/sparse")
    if method == "auto":
        method = "dense" if m <= DENSE_CUTOFF else "sparse"

    inv_sqrt = 1.0 / np.sqrt(areas)
    scaling = sparse.diags(inv_sqrt)
    b = (scaling @ w @ scaling).tocsr()
    # symmetrize: assembly already makes paired entries equal, this guards
    # against CSR ordering artifacts at no cost to exactness
    b = (b + b.T) * 0.5

    if method == "dense":
        vals, vecs = eigh(b.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        if k >= m:
            raise InvalidParam(f"sparse route needs k < m, got k={k}, m={m}")
        # Solve past the requested window and with a generous Krylov space:
        # restarted Lanczos can drop members of a degenerate cluster sitting
        # exactly at the window edge, and both margins push that edge out.
        k_solve = min(k + _CLUSTER_BUFFER, m - 1)
        diag_scale = float(np.mean(b.diagonal()))
        rng = np.random.default_rng(_LANCZOS_SEED)
        v0 = rng.standard_normal(m)
        try:
            vals, vecs = eigsh(
                b,
                k=k_solve,
                sigma=-0.01 * diag_scale,
                which="LM",
                v0=v0,
                ncv=min(m, max(4 * k_solve + 1, 40)),
                tol=0,
                maxiter=max(1000, 50 * k_solve),
            )
        except Exception as exc:
            raise ConvergenceError(f"sparse eigensolver failed: {exc}") from exc
        order = np.argsort(vals)[:k]
        vals, vecs = vals[order], vecs[:, order]

    scale = max(abs(float(vals[0])), abs(float(vals[-1])), 1.0)
    if vals[0] < -_NEGATIVE_REL_TOL * scale:
        raise NumericalError(
            f"eigenvalue {vals[0]:.3e} is negative beyond round-off; "
            "the stiffness matrix is not positive semidefinite"
        )
    vals = np.maximum(vals, 0.0)

    phi = _fix_signs(inv_sqrt[:, None] * vecs)

    residual = w @ phi - (areas[:, None] * phi) * vals
    denom = np.linalg.norm(areas[:, None] * phi, axis=0)
    rel = np.linalg.norm(residual, axis=0) / np.maximum(denom, np.finfo(np.float64).tiny)
    worst = float(rel.max())
    if worst > _RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds {_RESIDUAL_TOL:.0e}", residual=worst
        )

    return EigenBasis(
        np.ascontiguousarray(vals),
        np.ascontiguousarray(phi),
        np.ascontiguousarray(areas),
        method=method,
    )


def spectrum_bounds(basis: EigenBasis) -> tuple[float, float]:
    """Kernel design bounds (lambda_max / 20, lambda_max) from a basis.

    Only ``k`` and ``eigenvalues`` are read, so a ``SpectralSummary`` of the
    same pairs gives the same bounds.

    lambda_max is the largest computed eigenvalue; lambda_min is pinned at
    a twentieth of it, which keeps the band-pass scales anchored to the
    resolved part of the spectrum. Needs at least 2 eigenpairs, otherwise
    lambda_max would be the trivial zero mode.
    """
    if basis.k < 2:
        raise InvalidParam(f"spectrum bounds need k >= 2 eigenpairs, got {basis.k}")
    lam_max = float(basis.eigenvalues[-1])
    if lam_max <= 0.0:
        raise NumericalError("largest eigenvalue is zero; spectrum carries no band to analyze")
    return lam_max / 20.0, lam_max
