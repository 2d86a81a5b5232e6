"""Generalized eigensolver for the pair (W, A) with a diagonal mass matrix.

Solves ``W phi = lambda A phi`` through the symmetric similarity transform
``B = A^{-1/2} W A^{-1/2}``, whose ordinary eigenvectors u map back as
``phi = A^{-1/2} u``. That keeps the problem symmetric, so eigenvalues are
real and the eigenvector matrix comes out A-orthonormal by construction.

B is built straight from W's CSR entries, rounded as scipy's sparse
products and sum would round them (see _similarity). W must have a
symmetric sparsity pattern (its values are symmetrized).

One route solves every mesh: shift-invert Lanczos
(scipy.sparse.linalg.eigsh), which solves only the low end of the spectrum.
Lanczos cannot return all m pairs, so k is in [1, m - 1]. The pairs are
checked against lambda_k, so no check depends on the length unit.

The solve returns the first k pairs of a window that depends on k only
through a rung (see _window): Lanczos's pairs move in the last bits with how
many it solves, so every k of one window gets, bitwise, a prefix of one
solve. It scales B by the 4^e that puts its mean diagonal in [1/2, 2),
exactly (the factor scales by 2^e), so Lanczos sees one magnitude at every
length scale.

The shift sigma is negative and B is positive semidefinite (W is the P1
finite-element stiffness matrix), so ``B - sigma I`` is positive definite.
The whole Lanczos solve runs in B's reverse Cuthill-McKee order, whose
narrow band holds one banded Cholesky factor (dpbtrf, see _shift_invert)
that serves every application of ``(B - sigma I)^{-1}``. No such factor
exists when B has an eigenvalue at or below sigma, or when B is zero (then
sigma is zero); the solve is then rejected as not positive semidefinite.

Threads: every solve sets every OpenBLAS loaded into the process to one
thread for its band factor and Lanczos loop, and puts back the thread
counts it found when it returns or raises. So a solve's pairs do not depend
on the thread count: a single command or library call returns bitwise the
pairs whose summaries a batch run, which is one ``_one_blas_thread`` region
from start to end (its descriptor products and SVDs too), stores in its
blobs. The libraries are found once per process, from ``/proc/self/maps``;
where none is found (another BLAS, another OS) the solve runs at the
default count.

Determinism: the Lanczos starting vector is drawn from a fixed-seed
generator, and every eigenvector's sign is normalized so its
largest-magnitude entry is positive. Repeated solves on the same matrices
return bitwise-identical results.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import ConvergenceError, InvalidParam, NumericalError, _integer

__all__ = ["EigenBasis", "solve_eigen"]

_LANCZOS_SEED = 20230817

# extra eigenpairs solved (then discarded) beyond the requested k, at least
_CLUSTER_BUFFER = 8

# eigenvalues are clamped to zero when negative but within this round-off band,
# relative to lambda_k; anything more negative is a genuine failure
_NEGATIVE_REL_TOL = 1e-10

# largest ||W phi - lambda A phi|| / (lambda_k ||A phi||); below 1e-8 / 40.4, so on
# the benchmark and acceptance meshes (lambda_k <= 40.4, worst pair 2.2e-14) it
# refuses all that the 1e-8 gate on ||W phi - lambda A phi|| / ||A phi|| refused
_RESIDUAL_TOL = 2e-10

# (prefix, suffix) of the thread-count symbols: the numpy and scipy wheels'
# OpenBLAS builds, then a plain OpenBLAS
_OPENBLAS_SYMBOLS = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", ""))

# thread counts are process-wide, and so is the state that restores them: the
# number of callers inside _one_blas_thread and the counts the first one found
_THREADS_LOCK = threading.Lock()
_one_thread_depth = 0
_saved_threads: tuple = ()


@dataclass(frozen=True)
class EigenBasis:
    """First k eigenpairs of (W, A), ascending, A-orthonormal, sign-fixed.

    Attributes
    ----------
    eigenvalues : (k,) float64, nonnegative, ascending
    eigenvectors : (m, k) float64, ``Phi.T A Phi = I``
    vertex_areas : (m,) float64, diagonal of A
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    vertex_areas: np.ndarray

    def __post_init__(self):
        for arr in (self.eigenvalues, self.eigenvectors, self.vertex_areas):
            arr.setflags(write=False)

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def m(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def method(self) -> str:
        """The eigensolver route, always "sparse"; kept for readers of the old field."""
        return "sparse"


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return vectors * signs


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS loaded into this process.

    Read once per process from ``/proc/self/maps``; empty where that file
    cannot be read or no mapped library is an OpenBLAS.
    """
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
    paths = sorted({
        parts[-1] for parts in (line.split() for line in maps.splitlines())
        if len(parts) == 6 and "openblas" in Path(parts[-1]).name
    })
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                controls.append((get, put))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Every loaded OpenBLAS at one thread while any caller is inside.

    The first caller in saves the counts it finds, and the last one out puts
    them back, so concurrent solves restore the counts from before either.
    """
    global _one_thread_depth, _saved_threads
    controls = _openblas_thread_controls()
    with _THREADS_LOCK:
        if _one_thread_depth == 0:
            _saved_threads = tuple(get() for get, _ in controls)
            for _, put in controls:
                put(1)
        _one_thread_depth += 1
    try:
        yield
    finally:
        with _THREADS_LOCK:
            _one_thread_depth -= 1
            if _one_thread_depth == 0:
                for (_, put), count in zip(controls, _saved_threads):
                    put(count)


def _similarity(w: sparse.csr_matrix, inv_sqrt: np.ndarray) -> sparse.csr_matrix:
    """B = A^{-1/2} W A^{-1/2}, symmetrized, as a canonical CSR matrix.

    With d = inv_sqrt, entry (i, j) is ``((d_i w_ij) d_j + (d_j w_ji) d_i) / 2``,
    taken straight from W's CSR entries and their transposes. An entry that
    comes out exactly zero is not stored. Raises InvalidParam when W's
    sparsity pattern is not symmetric.
    """
    if not w.has_canonical_format:
        w = w.copy()
        w.sum_duplicates()
    m = w.shape[0]
    transposed = w.T.tocsr()
    if not (
        np.array_equal(transposed.indptr, w.indptr)
        and np.array_equal(transposed.indices, w.indices)
    ):
        raise InvalidParam("stiffness matrix must have a symmetric sparsity pattern")
    rows = np.repeat(np.arange(m), np.diff(w.indptr))
    d_row, d_col = inv_sqrt[rows], inv_sqrt[w.indices]
    values = ((d_row * w.data) * d_col + (d_col * transposed.data) * d_row) * 0.5
    kept = values != 0.0
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[kept], minlength=m))))
    return sparse.csr_matrix((values[kept], w.indices[kept], indptr), shape=(m, m))


def _window(k: int) -> int:
    """Pairs solve_eigen solves for k, before the cap at m - 1: the least multiple
    of 39 (the default k = 31 plus the buffer) that holds k plus the buffer."""
    return 39 * -(-(k + _CLUSTER_BUFFER) // 39)


def _largest_k(m: int, window: int | None = None) -> int:
    """Largest k solve_eigen takes for m vertices (m - 1), or of a window."""
    return m - 1 if window is None else min(window - _CLUSTER_BUFFER, m - 1)


def _shift_invert(b, sigma: float) -> tuple[LinearOperator, np.ndarray]:
    """``x -> (B - sigma I)^{-1} x`` in band order, from one banded Cholesky factor.

    Returns the operator and the reverse Cuthill-McKee order ``perm`` of B:
    the operator acts on vectors indexed in that order, so band position i
    holds vertex ``perm[i]``. C is the shifted matrix in that order, stored in
    LAPACK upper band form ``ab[bw + i - j, j] = C[i, j]`` for i <= j and
    filled straight from B's CSR entries.
    """
    m = b.shape[0]
    perm = reverse_cuthill_mckee(b, symmetric_mode=True)
    rank = np.empty(m, dtype=np.intp)
    rank[perm] = np.arange(m)
    row = rank[np.repeat(np.arange(m), np.diff(b.indptr))]
    col = rank[b.indices]
    upper = row <= col
    row, col = row[upper], col[upper]
    bw = int(np.max(col - row, initial=0))
    ab = np.zeros((bw + 1, m))
    ab[bw + row - col, col] = b.data[upper]
    ab[bw] -= sigma
    factor, info = dpbtrf(ab, overwrite_ab=1)
    if info != 0:
        raise NumericalError(
            "the shifted matrix B - sigma I, sigma = -0.01 mean(diag B), has no Cholesky factor "
            f"(LAPACK dpbtrf info {info}); the stiffness matrix is not positive "
            "semidefinite, or is zero"
        )
    op = LinearOperator((m, m), matvec=lambda x: dpbtrs(factor, x)[0], dtype=np.float64)
    return op, perm


def solve_eigen(stiffness, mass, k: int) -> EigenBasis:
    """Compute the k smallest eigenpairs of ``W phi = lambda A phi``.

    Shift-invert Lanczos over one banded Cholesky factor, at one OpenBLAS
    thread (see the module docstring).

    Parameters
    ----------
    stiffness : (m, m) symmetric sparse matrix
        Its sparsity pattern must be symmetric; its values are symmetrized.
    mass : (m, m) diagonal sparse matrix with positive diagonal
    k : int, 1 <= k <= m - 1

    Raises
    ------
    InvalidParam
        A k out of that range, a mass diagonal that is not positive, or a
        stiffness matrix whose sparsity pattern is not symmetric.
    ConvergenceError
        Lanczos failure, or a residual ``||W phi - lambda A phi||`` above
        2e-10 lambda_k ``||A phi||`` on any returned pair.
    NumericalError
        An eigenvalue below -1e-10 lambda_k, or a shifted matrix
        ``B - sigma I`` with no Cholesky factor.
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
    k = _integer("k", k)
    limit = _largest_k(m)
    if not 1 <= k <= limit:
        raise InvalidParam(f"k must be in [1, {limit}], got {k}")

    inv_sqrt = 1.0 / np.sqrt(areas)
    b = _similarity(w, inv_sqrt)

    with _one_blas_thread():
        # Solve past the requested k: restarted Lanczos can drop members of a
        # degenerate cluster sitting exactly at the window edge, and the
        # oversolve buffer pushes that edge out. ARPACK's default Krylov size,
        # max(2 * k_solve + 1, 20), then finds every member of a cluster
        # inside it.
        k_solve = min(_window(k), m - 1)
        # 4^e puts the mean diagonal in [1/2, 2) (e = 0 for a zero B)
        scale = math.ldexp(1.0, -2 * (math.frexp(float(np.mean(b.diagonal())))[1] // 2))
        b.data *= scale
        sigma = -0.01 * float(np.mean(b.diagonal()))
        v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(m)
        op_inv, perm = _shift_invert(b, sigma)
        try:
            # Lanczos runs in band order; with OPinv given, eigsh reads only
            # the shape and dtype of its first argument
            vals, band_vecs = eigsh(
                op_inv,
                k=k_solve,
                sigma=sigma,
                which="LM",
                v0=v0[perm],
                tol=0,
                maxiter=max(1000, 50 * k_solve),
                OPinv=op_inv,
            )
        except Exception as exc:
            raise ConvergenceError(f"sparse eigensolver failed: {exc}") from exc
        order = np.argsort(vals)
        solved = vals[order] / scale
        vecs = np.empty((m, k))
        vecs[perm] = band_vecs[:, order[:k]]
    vals = solved[:k]

    # the checks' scale is lambda_k (lambda_2 at k = 1: lambda_1 of a closed mesh
    # is zero); under x -> c x, lambda goes as 1/c^2 and A phi as c
    scale = abs(float(solved[min(max(k, 2), solved.size) - 1]))
    if vals[0] < -_NEGATIVE_REL_TOL * scale:
        raise NumericalError(
            f"eigenvalue {vals[0]:.3e} is negative beyond round-off; "
            "the stiffness matrix is not positive semidefinite"
        )
    vals = np.maximum(vals, 0.0)

    phi = _fix_signs(inv_sqrt[:, None] * vecs)

    residual = w @ phi - (areas[:, None] * phi) * vals
    denom = scale * np.linalg.norm(areas[:, None] * phi, axis=0)
    rel = np.linalg.norm(residual, axis=0) / np.maximum(denom, np.finfo(np.float64).tiny)
    worst = float(rel.max())
    if worst > _RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} (relative to lambda_k) exceeds {_RESIDUAL_TOL:.0e}"
        )

    return EigenBasis(
        np.ascontiguousarray(vals),
        np.ascontiguousarray(phi),
        np.ascontiguousarray(areas),
    )
