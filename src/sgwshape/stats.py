"""Two-group comparison of shape descriptors.

``compare_groups`` is the one entry, and ``compare_cells`` its batch form
over several data matrices that share one label tuple. Each comparison
reduces the n x p descriptor matrix to its top ``pca_dims`` PCA scores,
tests group separation with a one-way two-group MANOVA (Wilks' lambda and
its exact F transform), and backs it with a nonparametric permutation test
that reshuffles group labels from one seeded PCG64 stream per call.

Each comparison takes its basis from the centred n x p descriptor matrix
X: its first d left singular vectors span the top-d PCA scores, and Wilks'
lambda is invariant under a rotation of that basis. They come from Chan's
R-SVD (ACM TOMS 8, 1982): a Householder QR of X^T, whose triangle R gives
X = R^T Q^T, then the SVD of the n x min(n, p) matrix R^T, which has the
left singular vectors and singular values of X. So no p-long right vector
is formed: on a 20 x 495 matrix, at one thread on a 2-core host, the basis
took 0.17 ms against 0.35-0.6 ms for the full SVD. The singular values are
the one rank check: those under 1e-8 of the largest are round-off, and a d
above the numerical rank raises SingularScatter. The QR and the SVD are
scipy's, as is every BLAS and LAPACK call of the eigensolver: the numpy and
scipy wheels each bundle an OpenBLAS with its own thread pool, and a pool's
worker left spinning after a call slows the other pool's calls. They run at
one OpenBLAS thread (``eigen._one_blas_thread``): on a 2-core host a
2-thread SVD of a 20 x 495 descriptor matrix took 40-56 ms in 6 of 10
fresh processes, and 0.34-1.0 ms at one thread. A library call sets and
puts back the counts around each basis; inside a ``pipeline`` run, which is
one such region from start to end, that is a nested no-op.

Wilks' lambda is det(E) / det(E + H) with E the within-group and H the
between-group scatter matrix; smaller values mean stronger separation.
For two groups H has rank one: lambda = 1 - (n1 n2 / n) ||delta||^2 for any
split, with delta the difference of the group means of the rows of U, the
left singular vectors of the centred data (the Hotelling T^2 equivalence;
Anderson, *An Introduction to Multivariate Statistical Analysis*, ch. 5).
The F transform is exact for two groups, with (d, n - d - 1) degrees of freedom.

A mask is scored from its two group sums of U's rows, S1 and S2, as
delta = S1 / n1 - S2 / n2. The sums come from subset tables, built once per
basis and walk (meet in the middle; Horowitz and Sahni, J. ACM 21, 1974):
each of the ceil(n / 8) tables holds the 256 subset sums of 8 rows of U,
filled in row order by in-place doubling, so entry c is exactly the sum of
the rows whose bits are set in c, added in row order. A block of masks is
packed once into one byte per 8 rows, for every cell, and a group's sum is
its bytes' table entries added in table order: ceil(n / 8) lookups, not n
adds. Every step is elementwise over the masks, the squares of delta are
summed column by column, and no BLAS call or reduction whose order depends
on the block is made, so lambda does not depend on B. A mask and its
complement swap S1 and S2 and so negate delta exactly: the true mask and
its complement tie the observed lambda bitwise in any block.

The permutation masks depend only on the labels, n_perm and the seed: each
sampled mask ranks n keys read from the raw stream of one PCG64 bit
generator (see _mask_blocks), or, when the label space is no larger than
n_perm, every split is enumerated. NumPy keeps a bit generator's raw stream
fixed across releases (NEP 19), but not the output of ``Generator`` methods
such as ``permuted``, so a sampled p-value does not move with a NumPy
upgrade. A 1000-mask block of n = 20 is drawn in 0.12-0.14 ms at one
thread, against 0.33-0.40 ms for ``permuted``. So ``compare_cells`` tests
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

# The number of bits set in each byte.
_BITS_SET = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


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
        # R-SVD (see the module docstring): the centred X is R^T Q^T
        (r,) = linalg.qr((X - X.mean(axis=0)).T, overwrite_a=True, mode="r", check_finite=False)
        u, s, _ = linalg.svd(r[: min(X.shape)].T, full_matrices=False, check_finite=False)
    rank = int(np.count_nonzero(s > _RANK_FLOOR * s[0]))
    if rank < d:
        raise SingularScatter(
            f"numerical rank {rank} is below the dimension {d} (singular values under "
            f"{_RANK_FLOOR:g} of the largest are round-off); reduce the dimension"
        )
    return u[:, :d]


def _subset_tables(U: np.ndarray) -> np.ndarray:
    """(ceil(n / 8), d, 256) subset sums of the n rows of U, 8 rows per table.

    Entry [t, :, c] is the sum, in row order, of the rows 8t + j whose bit j
    is set in c: for each bit j, every table's entry c + 2^j is filled as its
    entry c plus its row j, for every c < 2^j. A short last table is padded
    with zero rows, which no code selects.
    """
    n, d = U.shape
    rows = np.zeros((-(-n // 8) * 8, d))
    rows[:n] = U
    rows = rows.reshape(-1, 8, d)
    tables = np.zeros((rows.shape[0], d, 256))
    for bit in range(8):
        half = 1 << bit
        np.add(tables[:, :, :half], rows[:, bit, :, None], out=tables[:, :, half : 2 * half])
    return tables


def _coded(masks: np.ndarray) -> tuple:
    """(codes, complement codes, n1, n2) of the (B, n) boolean masks: codes[t, i]
    is the byte of mask i's rows 8t .. 8t + 7, bit j for row 8t + j, and the
    complement's byte has the other rows' bits."""
    n = masks.shape[1]
    codes = np.ascontiguousarray(np.packbits(masks, axis=1, bitorder="little").T)
    every_row = np.packbits(np.ones(n, dtype=bool), bitorder="little")
    n_first = _BITS_SET[codes].sum(axis=0)
    return codes, codes ^ every_row[:, None], n_first, n - n_first


def _group_sums(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """(d, B) sums over each coded group: its table entries added in table order."""
    sums = np.take(tables[0], codes[0], axis=1)
    for table, code in zip(tables[1:], codes[1:]):
        sums += np.take(table, code, axis=1)
    return sums


def _table_lambdas(tables: np.ndarray, coded: tuple) -> np.ndarray:
    """Wilks' lambda of each ``_coded`` mask over the subset tables of a basis."""
    codes, complements, n_first, n_second = coded
    delta = _group_sums(tables, codes) / n_first - _group_sums(tables, complements) / n_second
    squares = np.zeros(delta.shape[1])
    for c in delta:
        squares += c * c
    lam = 1.0 - (n_first * n_second / (n_first + n_second)) * squares
    if np.any(lam <= 0.0):
        raise SingularScatter(
            "within-group scatter matrix is singular; reduce the feature dimension"
        )
    return lam


def _lambdas(U: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Wilks' lambda of each row of the (B, n) boolean `masks` over the basis U."""
    return _table_lambdas(_subset_tables(U), _coded(masks))


def _manova(data: DataMatrix, d: int) -> tuple:
    """(Wilks' lambda, its F-tail p-value) on the top-d PCA basis of the data, plus
    that basis's subset tables, which a permutation walk scores."""
    mask = data.two_group_mask()
    n = data.n
    if d > n - 2:
        raise SingularScatter(
            f"feature dimension {d} exceeds within-group degrees of freedom {n - 2}; "
            "reduce the dimension"
        )
    tables = _subset_tables(_group_basis(data.X, d))
    lam = float(_table_lambdas(tables, _coded(mask[None]))[0])
    dof2 = n - d - 1
    # f_stat >= 0 because _table_lambdas gives lam <= 1; fdtrc (the F survival function, the
    # same call scipy.stats.f.sf makes) returns NaN, not 1, for a negative argument.
    f_stat = (dof2 / d) * (1.0 - lam) / lam
    return lam, float(fdtrc(d, dof2, f_stat)), tables


def _replicates(mask: np.ndarray, n_perm: int) -> tuple[int, bool]:
    """(masks scored, whether enumerated): all C(n, n1) splits when that is <= n_perm."""
    space = math.comb(len(mask), int(mask.sum()))
    return (space, True) if space <= n_perm else (n_perm, False)


def _mask_blocks(mask: np.ndarray, n_perm: int, seed: int):
    """The permutation masks of the split `mask`, as (B, n) boolean blocks of <= _BLOCK rows.

    Enumerated when _replicates says so (the seed is then ignored), else
    drawn from one PCG64 stream per call: each mask takes n raw 64-bit
    integers as the keys of its n rows, whose low ceil(log2 n) bits are
    replaced by the row's index so no two keys tie, and its first group is
    the rows of its n1 smallest keys, picked by a partition threshold. The
    stream is read in order, so the first masks depend neither on _BLOCK
    nor on n_perm.
    """
    n, n1 = len(mask), int(mask.sum())
    count, exhaustive = _replicates(mask, n_perm)
    splits = combinations(range(n), n1)
    stream = None if exhaustive else np.random.PCG64(seed)
    index_bits = np.uint64((1 << (n - 1).bit_length()) - 1)
    rows = np.arange(n, dtype=np.uint64)
    for start in range(0, count, _BLOCK):
        size = min(_BLOCK, count - start)
        if exhaustive:
            yield np.array([np.bincount(first, minlength=n) > 0 for first in islice(splits, size)])
        else:
            keys = stream.random_raw((size, n))
            keys &= ~index_bits
            keys |= rows
            yield keys <= np.partition(keys, n1 - 1, axis=1)[:, n1 - 1, None]


def _permutation_ps(cells: list, mask: np.ndarray, n_perm: int, seed: int) -> list:
    """Permutation p-value of each (subset tables, observed) cell, from one walk over
    the masks.

    Each block is coded once as it is drawn and scored against every cell,
    so one block is live at a time. An SgwError entry, or a cell whose scoring raises one,
    keeps that error and leaves the walk; the walk stops when no cell is left,
    and at least one must enter it. The p-value is
    ``(1 + #{permuted lambda <= observed}) / (n_perm + 1)``, or the exact
    fraction over an enumerated space.
    """
    outcomes = [cell if isinstance(cell, SgwError) else 0 for cell in cells]
    live = [i for i, cell in enumerate(cells) if not isinstance(cell, SgwError)]
    for block in _mask_blocks(mask, n_perm, seed):
        coded = _coded(block)
        for i in live:
            tables, observed = cells[i]
            try:
                outcomes[i] += int(np.count_nonzero(_table_lambdas(tables, coded) <= observed))
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
            lam, manova_p, tables = _manova(data, pca_dims)
            n_perm = _integer("n_perm", n_perm, 1)
            seed = _integer("seed", seed, 0)
            setups.append((lam, manova_p, (tables, lam)))
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
