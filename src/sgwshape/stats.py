"""Two-group comparison of shape descriptors.

``compare_groups`` is the one entry, and ``compare_cells`` its batch form
over several data matrices that share one label tuple. Each comparison
reduces the n x p descriptor matrix to its top ``pca_dims`` PCA scores,
tests group separation with a one-way two-group MANOVA (Wilks' lambda and
its exact F transform), and backs it with a nonparametric permutation test
that reshuffles group labels with one seeded generator per call.

Each comparison takes its basis from one SVD of the centred descriptor
matrix: its first d left singular vectors span the top-d PCA scores, and
Wilks' lambda is invariant under a rotation of that basis. The singular
values are the one rank check: those under 1e-8 of the largest are
round-off, and a d above the numerical rank raises SingularScatter. The SVD
is scipy's, as is every BLAS and LAPACK call of the eigensolver: the numpy
and scipy wheels each bundle an OpenBLAS with its own thread pool, and a
pool's worker left spinning after a call slows the other pool's calls. It
runs at one OpenBLAS thread (``eigen._one_blas_thread``): on a 2-core host
a 2-thread SVD of a 20 x 495 descriptor matrix took 40-56 ms in 6 of 10
fresh processes, and 0.34-1.0 ms at one thread.

Wilks' lambda is det(E) / det(E + H) with E the within-group and H the
between-group scatter matrix; smaller values mean stronger separation.
For two groups H has rank one: lambda = 1 - (n1 n2 / n) ||delta||^2 for any
split, with delta the difference of the group means of the rows of U, the
left singular vectors of the centred data (the Hotelling T^2 equivalence;
Anderson, *An Introduction to Multivariate Statistical Analysis*, ch. 5).
The F transform is exact for two groups, with (d, n - d - 1) degrees of freedom.

The permutation masks depend only on the labels, n_perm and the seed: one
generator shuffles the true mask row by row, or, when the label space is no
larger than n_perm, every split is enumerated. So ``compare_cells`` tests
several data matrices over one label tuple (the (R, k) cells of a sweep
stratum) in one walk: each block of masks is drawn once and scored against
every cell, and each cell's result equals its own ``compare_groups``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np
from scipy import linalg
from scipy.special import fdtrc

from .eigen import _one_blas_thread
from .errors import GroupCountError, InvalidParam, SgwError, SingularScatter, _integer

__all__ = [
    "DataMatrix",
    "GroupComparison",
    "compare_groups",
    "compare_cells",
]

# Masks scored per batch, so memory stays flat as n_perm grows.
_BLOCK = 1024

# Singular values below this fraction of the largest count as round-off, not rank.
_RANK_FLOOR = 1e-8


@dataclass(frozen=True)
class DataMatrix:
    """Feature matrix with one labeled row per shape.

    Attributes
    ----------
    X : (n, p) float64, finite
    labels : length-n tuple of group labels
    """

    X: np.ndarray
    labels: tuple

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        if x.ndim != 2:
            raise InvalidParam(f"X must be 2-dimensional, got shape {x.shape}")
        if x.shape[0] < 4:
            raise InvalidParam(f"need at least 4 rows, got {x.shape[0]}")
        if not np.isfinite(x).all():
            raise InvalidParam("X contains non-finite entries")
        labels = tuple(self.labels)
        if len(labels) != x.shape[0]:
            raise InvalidParam(f"{len(labels)} labels for {x.shape[0]} rows")
        for label in dict.fromkeys(labels):
            if labels.count(label) < 2:
                raise InvalidParam(f"group {label!r} has fewer than 2 members")
        x.setflags(write=False)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def two_group_mask(self) -> np.ndarray:
        """Boolean membership of the first-appearing group.

        Raises GroupCountError unless there are exactly two distinct labels.
        """
        distinct = list(dict.fromkeys(self.labels))
        if len(distinct) != 2:
            raise GroupCountError(
                f"two-group comparison needs exactly 2 groups, got {len(distinct)}: {distinct}"
            )
        return np.array([lab == distinct[0] for lab in self.labels])


@dataclass(frozen=True)
class GroupComparison:
    """Outcome of one two-group comparison."""

    statistic: float  # Wilks' lambda on the true labels
    manova_p: float
    permutation_p: float
    n_permutations: int

    def __post_init__(self):
        if not (0.0 <= self.manova_p <= 1.0 and 0.0 <= self.permutation_p <= 1.0):
            raise InvalidParam(
                f"p-values out of [0, 1]: manova={self.manova_p}, "
                f"permutation={self.permutation_p}"
            )


def _pca_dims(data: DataMatrix, d) -> int:
    """d as an int in [1, min(n - 1, p)], the PCA dimensions the data allow."""
    d = _integer("pca dimension", d)
    limit = min(data.n - 1, data.p)
    if not 1 <= d <= limit:
        raise InvalidParam(f"pca dimension must be in [1, {limit}], got {d}")
    return d


def _group_basis(X: np.ndarray, d: int) -> np.ndarray:
    """The first d left singular vectors of the centred, finite X.

    Raises SingularScatter when the numerical rank of X is below d.
    """
    with _one_blas_thread():
        u, s, _ = linalg.svd(X - X.mean(axis=0), full_matrices=False, check_finite=False)
    rank = int(np.count_nonzero(s > _RANK_FLOOR * s[0]))
    if rank < d:
        raise SingularScatter(
            f"numerical rank {rank} is below the dimension {d} (singular values under "
            f"{_RANK_FLOOR:g} of the largest are round-off); reduce the dimension"
        )
    return u[:, :d]


def _lambdas(U: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Wilks' lambda of each row of the (B, n) boolean `masks` over the basis U."""
    n_first = masks.sum(axis=1)
    n_second = U.shape[0] - n_first
    weights = np.where(masks, (1.0 / n_first)[:, None], (-1.0 / n_second)[:, None])
    # Exact by construction: elementwise sums in a fixed order over U's rows, then its
    # columns, so the true mask ties the observed lambda in any batch (BLAS may not).
    delta = sum(w[:, None] * u for w, u in zip(weights.T, U))
    lam = 1.0 - (n_first * n_second / U.shape[0]) * sum(c * c for c in delta.T)
    if np.any(lam <= 0.0):
        raise SingularScatter(
            "within-group scatter matrix is singular; reduce the feature dimension"
        )
    return lam


def _manova(data: DataMatrix, d: int) -> tuple:
    """(Wilks' lambda, its F-tail p-value) on the top-d PCA basis of the data, plus
    that basis, which a permutation walk scores."""
    mask = data.two_group_mask()
    n = data.n
    if d > n - 2:
        raise SingularScatter(
            f"feature dimension {d} exceeds within-group degrees of freedom {n - 2}; "
            "reduce the dimension"
        )
    basis = _group_basis(data.X, d)
    lam = float(_lambdas(basis, mask[None])[0])
    dof2 = n - d - 1
    # f_stat >= 0 because _lambdas gives lam <= 1; fdtrc (the F survival function, the
    # same call scipy.stats.f.sf makes) returns NaN, not 1, for a negative argument.
    f_stat = (dof2 / d) * (1.0 - lam) / lam
    return lam, float(fdtrc(d, dof2, f_stat)), basis


def _replicates(mask: np.ndarray, n_perm: int) -> tuple[int, bool]:
    """(masks scored, whether enumerated): all C(n, n1) splits when that is <= n_perm."""
    space = math.comb(len(mask), int(mask.sum()))
    return (space, True) if space <= n_perm else (n_perm, False)


def _mask_blocks(mask: np.ndarray, n_perm: int, seed: int):
    """The permutation masks of the split `mask`, as (B, n) boolean blocks of <= _BLOCK rows.

    Enumerated when _replicates says so (the seed is then ignored), else
    shuffled by one generator per call: ``permuted`` shuffles a block row by
    row, so the first masks depend neither on _BLOCK nor on n_perm.
    """
    n = len(mask)
    count, exhaustive = _replicates(mask, n_perm)
    splits = combinations(range(n), int(mask.sum()))
    rng = None if exhaustive else np.random.default_rng(seed)
    for start in range(0, count, _BLOCK):
        size = min(_BLOCK, count - start)
        if exhaustive:
            yield np.array([np.bincount(first, minlength=n) > 0 for first in islice(splits, size)])
        else:
            yield rng.permuted(np.tile(mask, (size, 1)), axis=1)


def _permutation_ps(cells: list, mask: np.ndarray, n_perm: int, seed: int) -> list:
    """Permutation p-value of each (basis, observed) cell, from one walk over the masks.

    Every cell is scored against each block as it is drawn, so one block is
    live at a time. An SgwError entry, or a cell whose scoring raises one,
    keeps that error and leaves the walk; the walk stops when no cell is left,
    and at least one must enter it. The p-value is
    ``(1 + #{permuted lambda <= observed}) / (n_perm + 1)``, or the exact
    fraction over an enumerated space.
    """
    outcomes = [cell if isinstance(cell, SgwError) else 0 for cell in cells]
    live = [i for i, cell in enumerate(cells) if not isinstance(cell, SgwError)]
    for block in _mask_blocks(mask, n_perm, seed):
        for i in live:
            basis, observed = cells[i]
            try:
                outcomes[i] += int(np.count_nonzero(_lambdas(basis, block) <= observed))
            except SgwError as exc:
                outcomes[i] = exc
        live = [i for i in live if not isinstance(outcomes[i], SgwError)]
        if not live:
            break
    count, exhaustive = _replicates(mask, n_perm)
    return [
        hits if isinstance(hits, SgwError)
        else (hits / count if exhaustive else (1 + hits) / (count + 1))
        for hits in outcomes
    ]


def compare_cells(datas, pca_dims: int, n_perm: int, seed: int) -> list:
    """compare_groups of each data matrix, all sharing one label tuple and one mask walk.

    Each matrix gets its basis (one SVD), MANOVA and observed lambda on its
    own; then every cell is scored against each block of masks as it is
    drawn, so the masks are drawn once for all of them. pca_dims, n_perm
    (>= 1) and seed (>= 0) must be integers. Returns one GroupComparison or
    SgwError per matrix, in order: a cell whose PCA range, MANOVA, rank
    check, counts or scoring raises keeps that error and the others go on.
    """
    datas = list(datas)
    if any(data.labels != datas[0].labels for data in datas):
        raise InvalidParam("compare_cells needs one label tuple for every data matrix")
    setups = []
    for data in datas:
        try:
            pca_dims = _pca_dims(data, pca_dims)
            lam, manova_p, basis = _manova(data, pca_dims)
            n_perm = _integer("n_perm", n_perm)
            if n_perm < 1:
                raise InvalidParam(f"need n_perm >= 1, got {n_perm}")
            seed = _integer("seed", seed, 0)
            setups.append((lam, manova_p, (basis, lam)))
        except SgwError as exc:
            setups.append(exc)
    if all(isinstance(setup, SgwError) for setup in setups):
        return setups  # no mask is drawn
    mask = datas[0].two_group_mask()  # a live cell has exactly two groups
    count = _replicates(mask, n_perm)[0]
    ps = _permutation_ps(
        [setup if isinstance(setup, SgwError) else setup[2] for setup in setups],
        mask, n_perm, seed,
    )
    return [
        p if isinstance(p, SgwError)
        else GroupComparison(
            statistic=setup[0], manova_p=setup[1], permutation_p=p, n_permutations=count
        )
        for setup, p in zip(setups, ps)
    ]


def compare_groups(data: DataMatrix, pca_dims: int, n_perm: int, seed: int) -> GroupComparison:
    """PCA reduction, MANOVA, and permutation test in one pass."""
    (result,) = compare_cells([data], pca_dims, n_perm, seed)
    if isinstance(result, SgwError):
        raise result
    return result
