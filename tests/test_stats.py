"""The one statistics entry: PCA basis, two-group MANOVA, and the permutation test."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import sgwshape as sg
from sgwshape.errors import GroupCountError, InvalidParam, SgwError, SingularScatter


def gaussian_two_groups(n_per=8, p=4, shift=0.0, seed=0):
    rng = np.random.default_rng(seed)
    first = rng.standard_normal((n_per, p))
    second = rng.standard_normal((n_per, p)) + shift
    labels = ["a"] * n_per + ["b"] * n_per
    return sg.DataMatrix(np.vstack([first, second]), labels)


class TestDataMatrix:
    def test_requires_four_rows(self):
        with pytest.raises(InvalidParam, match="4 rows"):
            sg.DataMatrix(np.ones((3, 2)), ["a", "a", "b"])

    def test_rejects_nonfinite(self):
        x = np.ones((4, 2))
        x[2, 1] = np.inf
        with pytest.raises(InvalidParam, match="finite"):
            sg.DataMatrix(x, ["a", "a", "b", "b"])

    def test_rejects_singleton_group(self):
        with pytest.raises(InvalidParam, match="fewer than 2"):
            sg.DataMatrix(np.ones((4, 2)), ["a", "a", "a", "b"])

    def test_label_count_mismatch(self):
        with pytest.raises(InvalidParam, match="labels"):
            sg.DataMatrix(np.ones((4, 2)), ["a", "a", "b"])

    def test_two_group_mask_marks_first_seen_group(self):
        data = sg.DataMatrix(np.eye(5), ["x", "y", "x", "y", "y"])
        np.testing.assert_array_equal(
            data.two_group_mask(), [True, False, True, False, False]
        )

    def test_three_groups_rejected(self):
        data = sg.DataMatrix(np.eye(6), ["a", "a", "b", "b", "c", "c"])
        with pytest.raises(GroupCountError):
            data.two_group_mask()


# (pca_dims, n_perm, seed) that are not counts, each with the InvalidParam it raises
BAD_COUNTS = [
    (2.5, 99, 0, "pca dimension must be an integer, got 2.5"),
    (True, 99, 0, "pca dimension must be an integer, got True"),
    (2, True, 0, "n_perm must be an integer, got True"),
    (2, 0, 0, "n_perm must be >= 1, got 0"),
    (2, 99, 0.5, "seed must be an integer, got 0.5"),
    (2, 99, -1, "seed must be >= 0, got -1"),
]
BAD_COUNT_IDS = [
    "float-pca-dims", "bool-pca-dims", "bool-n-perm", "zero-n-perm", "float-seed", "negative-seed",
]


def wilks(data, d):
    """Wilks' lambda of the data on its top-d PCA basis, from the one entry."""
    return sg.compare_groups(data, pca_dims=d, n_perm=1, seed=0).statistic


class TestWilksLambda:
    def test_univariate_hand_value(self):
        x = np.array([[1.0], [2.0], [5.0], [6.0]])
        within = 0.5 + 0.5
        between = 2 * (1.5 - 3.5) ** 2 + 2 * (5.5 - 3.5) ** 2
        expected = within / (within + between)
        assert wilks(sg.DataMatrix(x, "aabb"), 1) == pytest.approx(expected, rel=1e-12)

    def test_range(self):
        data = gaussian_two_groups(n_per=8, p=3, seed=6)
        assert 0.0 < wilks(data, 3) <= 1.0

    def test_affine_invariance(self):
        data = gaussian_two_groups(n_per=9, p=3, shift=0.8, seed=7)
        rng = np.random.default_rng(8)
        transform = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        offset = rng.standard_normal(3)
        moved = sg.DataMatrix(data.X @ transform + offset, data.labels)
        assert wilks(moved, 3) == pytest.approx(wilks(data, 3), abs=1e-8)

    def test_label_swap_symmetry(self):
        # reversed rows put a "b" row first, so the tested mask is the complement
        data = gaussian_two_groups(n_per=7, p=2, shift=1.0, seed=9)
        swapped = sg.DataMatrix(data.X[::-1], data.labels[::-1])
        assert np.array_equal(swapped.two_group_mask()[::-1], ~data.two_group_mask())
        assert wilks(swapped, 2) == pytest.approx(wilks(data, 2), rel=1e-12)

    def test_duplicate_feature_is_singular(self):
        data = gaussian_two_groups(n_per=6, p=2, seed=10)
        x = np.column_stack([data.X, data.X[:, 0]])
        with pytest.raises(SingularScatter):
            wilks(sg.DataMatrix(x, data.labels), 3)

    def test_rank_floor(self):
        # a third column equal to the first up to 1e-8 noise has its smallest singular
        # value at 5.2e-9 of the largest, under the floor; with 1e-6 noise it is 5.2e-7
        data = gaussian_two_groups(n_per=6, p=2, seed=10)
        noise = np.random.default_rng(0).standard_normal(data.n)

        def widened(scale):
            return sg.DataMatrix(np.column_stack([data.X, data.X[:, 0] + scale * noise]), data.labels)

        with pytest.raises(SingularScatter, match="numerical rank 2 is below the dimension 3"):
            wilks(widened(1e-8), 3)
        assert 0.0 < wilks(widened(1e-6), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_is_an_sgw_error(self, bad):
        data = gaussian_two_groups(n_per=6, p=3, seed=10)
        x = data.X.copy()
        x[4, 1] = bad
        with pytest.raises(SgwError):
            wilks(sg.DataMatrix(x, data.labels), 3)


class TestGroupBasis:
    """The PCA basis every comparison scores: a QR, then one SVD, of the centred
    descriptors."""

    def test_qr_and_svd_run_at_one_blas_thread(self, monkeypatch):
        controls = sg.eigen._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control found")
        counts = []

        def recording(name, call):
            def record(*args, **kwargs):
                counts.append((name, [get() for get, _ in controls]))
                return call(*args, **kwargs)
            return record

        monkeypatch.setattr(sg.stats.linalg, "qr", recording("qr", scipy.linalg.qr))
        monkeypatch.setattr(sg.stats.linalg, "svd", recording("svd", scipy.linalg.svd))
        before = [get() for get, _ in controls]
        sg.compare_groups(gaussian_two_groups(n_per=10, p=6, seed=1), 3, n_perm=10, seed=0)
        assert counts == [("qr", [1] * len(controls)), ("svd", [1] * len(controls))]
        assert [get() for get, _ in controls] == before

    @staticmethod
    def qr_first(monkeypatch, X, d):
        """(_group_basis of X at d, the singular values its SVD returned)."""
        values = []
        svd = scipy.linalg.svd

        def recording(*args, **kwargs):
            result = svd(*args, **kwargs)
            values.append(result[1])
            return result

        with monkeypatch.context() as patch:
            patch.setattr(sg.stats.linalg, "svd", recording)
            basis = sg.stats._group_basis(X, d)
        (s,) = values
        return basis, s

    @pytest.mark.parametrize("n, p", [(20, 495), (20, 20), (20, 2)])
    def test_matches_the_full_svd(self, monkeypatch, n, p):
        # the full SVD of the centred X, right vectors and all, is the reference
        rng = np.random.default_rng(p)
        X = rng.standard_normal((n, p)) * np.linspace(1.0, 0.05, p)
        u, s, _ = scipy.linalg.svd(X - X.mean(axis=0), full_matrices=False)
        for d in range(1, min(n - 1, p) + 1):
            basis, got = self.qr_first(monkeypatch, X, d)
            assert basis.shape == (n, d)
            np.testing.assert_allclose(got, s, rtol=0, atol=1e-13 * s[0])
            np.testing.assert_allclose(
                basis @ basis.T, u[:, :d] @ u[:, :d].T, rtol=0, atol=1e-12
            )

    def test_rank_check_matches_the_full_svd(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 495))  # rank 4 once centred
        s = scipy.linalg.svd(X - X.mean(axis=0), compute_uv=False)
        rank = int(np.count_nonzero(s > sg.stats._RANK_FLOOR * s[0]))
        assert rank == 4
        assert sg.stats._group_basis(X, rank).shape == (20, rank)
        with pytest.raises(SingularScatter, match=f"numerical rank {rank} is below the dimension 5"):
            sg.stats._group_basis(X, rank + 1)

    def test_shape_and_orthonormal_columns(self):
        data = gaussian_two_groups(n_per=10, p=6, seed=1)
        basis = sg.stats._group_basis(data.X, 3)
        assert basis.shape == (20, 3)
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)

    def test_columns_are_centred(self):
        # an uncentred X would put the mean direction into the first column
        data = gaussian_two_groups(n_per=10, p=6, shift=5.0, seed=2)
        basis = sg.stats._group_basis(data.X + 100.0, 4)
        np.testing.assert_allclose(basis.sum(axis=0), 0.0, atol=1e-12)

    def test_spans_the_top_pca_scores(self):
        data = gaussian_two_groups(n_per=10, p=6, seed=3)
        centred = data.X - data.X.mean(axis=0)
        variances, axes = np.linalg.eigh(centred.T @ centred)  # ascending
        scores = centred @ axes[:, ::-1][:, :3]
        basis = sg.stats._group_basis(data.X, 3)
        np.testing.assert_allclose(basis @ (basis.T @ scores), scores, atol=1e-10)
        assert np.all(np.diff(scores.var(axis=0)) <= 1e-12)

    def test_deterministic(self):
        data = gaussian_two_groups(seed=4)
        a = sg.stats._group_basis(data.X, 2)
        b = sg.stats._group_basis(data.X, 2)
        np.testing.assert_array_equal(a, b)


class TestManova:
    def test_univariate_matches_pooled_t_test(self):
        from scipy.stats import ttest_ind

        data = gaussian_two_groups(n_per=9, p=1, shift=0.7, seed=11)
        p = sg.compare_groups(data, pca_dims=1, n_perm=1, seed=0).manova_p
        mask = data.two_group_mask()
        t_p = ttest_ind(data.X[mask, 0], data.X[~mask, 0]).pvalue
        assert p == pytest.approx(t_p, abs=1e-12)

    def test_strong_separation_is_significant(self):
        data = gaussian_two_groups(n_per=10, p=3, shift=4.0, seed=12)
        result = sg.compare_groups(data, pca_dims=3, n_perm=1, seed=0)
        assert result.statistic < 0.2
        assert result.manova_p < 1e-6

    @pytest.mark.parametrize("n_per, p, d", [(5, 1, 1), (5, 3, 2), (8, 4, 4), (13, 6, 3)])
    @pytest.mark.parametrize("shift", [0.0, 0.8, 3.0])
    def test_p_value_is_the_f_tail(self, n_per, p, d, shift):
        from scipy.stats import f

        data = gaussian_two_groups(n_per=n_per, p=p, shift=shift, seed=n_per * p)
        result = sg.compare_groups(data, pca_dims=d, n_perm=1, seed=0)
        lam = result.statistic
        dof2 = data.n - d - 1
        f_stat = (dof2 / d) * (1.0 - lam) / lam
        assert result.manova_p == float(f.sf(f_stat, d, dof2))

    def test_coinciding_group_means_give_p_one(self):
        # both groups are centred on the origin, so Wilks' lambda is 1 and F is 0
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        data = sg.DataMatrix(np.vstack([x, 2.0 * x @ [[0.6, 0.8], [-0.8, 0.6]]]), "aaaabbbb")
        result = sg.compare_groups(data, pca_dims=2, n_perm=1, seed=0)
        assert result.statistic == 1.0
        assert result.manova_p == 1.0

    def test_dimension_guard(self):
        data = gaussian_two_groups(n_per=3, p=5, seed=13)  # d = 5 > n - 2 = 4
        with pytest.raises(SingularScatter, match="reduce the dimension"):
            sg.compare_groups(data, pca_dims=5, n_perm=1, seed=0)


class TestPermutationTest:
    def test_enumerates_small_space(self):
        data = gaussian_two_groups(n_per=3, p=2, seed=14)  # C(6, 3) = 20
        p = sg.compare_groups(data, pca_dims=2, n_perm=100, seed=0).permutation_p
        assert p * 20 == pytest.approx(round(p * 20), abs=1e-12)
        # enumeration ignores the seed entirely
        assert p == sg.compare_groups(data, pca_dims=2, n_perm=100, seed=99).permutation_p

    def test_enumeration_includes_identity(self):
        data = gaussian_two_groups(n_per=3, p=2, shift=50.0, seed=15)
        p = sg.compare_groups(data, pca_dims=2, n_perm=25, seed=0).permutation_p
        # identity and its complement are the only hits for huge separation
        assert p == pytest.approx(2 / 20, abs=1e-12)

    def test_sampled_path_uses_add_one_estimator(self):
        data = gaussian_two_groups(n_per=10, p=2, shift=8.0, seed=16)
        p = sg.compare_groups(data, pca_dims=2, n_perm=999, seed=3).permutation_p
        assert p == pytest.approx(1 / 1000, abs=1e-15)

    def test_sampled_determinism_and_seed_sensitivity(self):
        data = gaussian_two_groups(n_per=8, p=3, shift=0.5, seed=17)
        p1 = sg.compare_groups(data, pca_dims=3, n_perm=200, seed=5).permutation_p
        p2 = sg.compare_groups(data, pca_dims=3, n_perm=200, seed=5).permutation_p
        p3 = sg.compare_groups(data, pca_dims=3, n_perm=200, seed=6).permutation_p
        assert p1 == p2
        assert p1 != p3  # different draws, and n is large enough to show it

    def test_rejects_bad_n_perm(self):
        data = gaussian_two_groups()
        with pytest.raises(InvalidParam):
            sg.compare_groups(data, pca_dims=2, n_perm=0, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), shift=st.floats(0.0, 3.0))
    def test_p_value_always_in_unit_interval(self, seed, shift):
        data = gaussian_two_groups(n_per=5, p=2, shift=shift, seed=seed % 1000)
        p = sg.compare_groups(data, pca_dims=2, n_perm=50, seed=seed).permutation_p
        assert 0.0 < p <= 1.0


class TestCompareGroups:
    def test_separated_groups_detected(self):
        data = gaussian_two_groups(n_per=10, p=6, shift=3.0, seed=18)
        result = sg.compare_groups(data, pca_dims=3, n_perm=499, seed=0)
        assert result.manova_p < 0.01
        assert result.permutation_p < 0.01
        assert result.n_permutations == 499

    def test_enumerated_space_recorded(self):
        data = gaussian_two_groups(n_per=3, p=3, seed=19)
        result = sg.compare_groups(data, pca_dims=2, n_perm=1000, seed=0)
        assert result.n_permutations == 20

    def test_null_p_not_degenerate(self):
        data = gaussian_two_groups(n_per=8, p=4, shift=0.0, seed=20)
        result = sg.compare_groups(data, pca_dims=2, n_perm=199, seed=1)
        assert 0.0 < result.manova_p <= 1.0
        assert 0.0 < result.permutation_p <= 1.0

    def test_dimension_limits(self):
        data = gaussian_two_groups(n_per=3, p=10, seed=5)  # n = 6 caps d at 5
        with pytest.raises(InvalidParam, match=r"\[1, 5\]"):
            sg.compare_groups(data, pca_dims=6, n_perm=1, seed=0)
        with pytest.raises(InvalidParam):
            sg.compare_groups(data, pca_dims=0, n_perm=1, seed=0)

    @pytest.mark.parametrize("pca_dims, n_perm, seed, match", BAD_COUNTS, ids=BAD_COUNT_IDS)
    def test_counts_are_read_as_integers(self, pca_dims, n_perm, seed, match):
        data = gaussian_two_groups(n_per=10, p=6, seed=21)  # 20 x 6
        with pytest.raises(InvalidParam, match=match):
            sg.compare_groups(data, pca_dims, n_perm, seed)

    @pytest.mark.parametrize("labels", [("a", "a", "b", "b"), ("a", "b", "a", "b")],
                             ids=["split", "interleaved"])
    def test_zero_within_group_scatter_is_singular(self, labels):
        # split: each group is one point, so every lambda is 0. interleaved:
        # the observed lambda is 1 and passes, and the first enumerated split,
        # {0, 1}, scores 0 and ends the walk
        data = sg.DataMatrix([[0.0], [0.0], [1.0], [1.0]], labels)
        with pytest.raises(SingularScatter) as raised:
            sg.compare_groups(data, 1, 99, 0)
        assert str(raised.value) == (
            "within-group scatter matrix is singular; reduce the feature dimension"
        )


class TestBatchedLambda:
    """The one Wilks' lambda evaluator behind every caller."""

    @staticmethod
    def random_case(rng):
        n = int(rng.integers(8, 41))
        d = int(rng.integers(1, min(18, n - 3) + 1))
        return rng.standard_normal((n, d)), n

    @staticmethod
    def random_masks(rng, n, count):
        """`count` random splits of n rows, each group with at least 2 members."""
        sizes = rng.integers(2, n - 1, size=count)
        return np.array([rng.permutation(n) < size for size in sizes])

    @pytest.mark.parametrize("batch", [2, 3, 7, 64, 1000])
    def test_true_mask_ties_observed_bitwise(self, batch):
        rng = np.random.default_rng(batch)
        for _ in range(60):
            x, n = self.random_case(rng)
            mask = self.random_masks(rng, n, 1)[0]
            masks = self.random_masks(rng, n, batch)
            row = int(rng.integers(batch))
            masks[row] = mask
            lam = sg.stats._lambdas(sg.stats._group_basis(x, x.shape[1]), masks)[row]
            if not mask[0]:  # compare_groups tests the group of the first row
                mask = ~mask
            assert lam == wilks(sg.DataMatrix(x, mask.tolist()), x.shape[1])

    @staticmethod
    def chunk_sum(rows, picked, start, stop):
        """The sum of the picked rows start .. stop - 1, in row order from zero."""
        total = [0.0] * len(rows[0])
        for j in range(start, stop):
            if picked[j]:
                total = [x + y for x, y in zip(total, rows[j])]
        return total

    @classmethod
    def chunked_lambdas(cls, U, masks):
        """Wilks' lambda of each mask in pure Python, in the reference order of every
        sum: each group's rows summed in chunks of 8 rows, each in row order, the
        chunks added in order, delta = S1 / n1 - S2 / n2, and its squares summed
        column by column."""
        rows = U.tolist()
        n = len(rows)
        lams = []
        for mask in masks.tolist():
            sums = []
            for picked in (mask, [not bit for bit in mask]):
                chunks = [cls.chunk_sum(rows, picked, start, min(start + 8, n))
                          for start in range(0, n, 8)]
                total = chunks[0]
                for chunk in chunks[1:]:
                    total = [x + y for x, y in zip(total, chunk)]
                sums.append(total)
            n_first = sum(mask)
            n_second = n - n_first
            squares = 0.0
            for s1, s2 in zip(*sums):
                c = s1 / n_first - s2 / n_second
                squares += c * c
            lams.append(1.0 - (n_first * n_second / n) * squares)
        return np.array(lams)

    @pytest.mark.parametrize("batch", [1, 7, 1000])
    @pytest.mark.parametrize("exhaustive", [False, True], ids=["sampled", "enumerated"])
    def test_bitwise_the_chunked_formulation(self, batch, exhaustive):
        rng = np.random.default_rng(batch)
        cases = 0
        while cases < 30:
            x, n = self.random_case(rng)
            mask = self.random_masks(rng, n, 1)[0]
            space = math.comb(n, int(mask.sum()))
            if space < batch or (not exhaustive and space == batch):
                continue
            n_perm = space if exhaustive else batch
            block = next(sg.stats._mask_blocks(mask, n_perm, int(rng.integers(100))))[:batch]
            assert len(block) == batch and sg.stats._replicates(mask, n_perm)[1] == exhaustive
            basis = sg.stats._group_basis(x, x.shape[1])
            got = sg.stats._lambdas(basis, block)
            assert got.tobytes() == self.chunked_lambdas(basis, block).tobytes()
            cases += 1

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 70])
    def test_chunk_edges(self, n):
        # a full last table, a one-row one, and at n = 70 a code of 9 bytes
        rng = np.random.default_rng(n)
        U = sg.stats._group_basis(rng.standard_normal((n, 4)), 3)
        tables = sg.stats._subset_tables(U)
        assert tables.shape == (-(-n // 8), 3, 256)
        rows = U.tolist()
        for t in range(tables.shape[0]):
            stop = min(8 * t + 8, n)
            for code in range(1 << (stop - 8 * t)):
                picked = [False] * (8 * t) + [bool(code >> j & 1) for j in range(stop - 8 * t)]
                assert tables[t, :, code].tolist() == self.chunk_sum(rows, picked, 8 * t, stop)
        masks = self.random_masks(rng, n, 200)
        got = sg.stats._lambdas(U, masks)
        assert got.tobytes() == self.chunked_lambdas(U, masks).tobytes()
        # a mask and its complement tie bitwise
        assert got.tobytes() == sg.stats._lambdas(U, ~masks).tobytes()

    def test_matches_determinant_ratio(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            x, n = self.random_case(rng)
            masks = self.random_masks(rng, n, 20)
            lams = sg.stats._lambdas(sg.stats._group_basis(x, x.shape[1]), masks)
            for mask, lam in zip(masks, lams):
                first, second = x[mask], x[~mask]
                r1 = first - first.mean(axis=0)
                r2 = second - second.mean(axis=0)
                within = r1.T @ r1 + r2.T @ r2
                d1 = first.mean(axis=0) - x.mean(axis=0)
                d2 = second.mean(axis=0) - x.mean(axis=0)
                between = len(first) * np.outer(d1, d1) + len(second) * np.outer(d2, d2)
                expected = np.linalg.det(within) / np.linalg.det(within + between)
                assert lam == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "n_per, p, shift, data_seed, n_perm, seed, expected",
        [
            (8, 3, 0.5, 17, 200, 5, 0.4427860696517413),
            (10, 4, 0.3, 21, 999, 7, 0.772),
            (3, 2, 0.0, 14, 100, 0, 0.5),  # C(6, 3) = 20 <= 100: enumerated
            (10, 8, 0.3, 3, 3000, 11, 0.06664445184938354),  # spans 3 blocks of masks
        ],
    )
    def test_p_values_are_pinned(self, n_per, p, shift, data_seed, n_perm, seed, expected):
        data = gaussian_two_groups(n_per=n_per, p=p, shift=shift, seed=data_seed)
        assert sg.compare_groups(data, p, n_perm, seed).permutation_p == expected

    def test_memory_stays_flat_in_n_perm(self):
        import tracemalloc

        data = gaussian_two_groups(n_per=10, p=8, shift=0.2, seed=4)
        tracemalloc.start()
        try:
            sg.compare_groups(data, pca_dims=8, n_perm=100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestMaskStream:
    """Sampled masks come from one generator per call, shuffled row by row."""

    MASK = np.array([True] * 6 + [False] * 9)  # C(15, 6) = 5005 splits

    @staticmethod
    def masks(mask, n_perm, seed):
        return np.concatenate(list(sg.stats._mask_blocks(mask, n_perm, seed)))

    def test_first_masks_do_not_depend_on_block_size(self, monkeypatch):
        full = self.masks(self.MASK, 3000, 4)
        monkeypatch.setattr(sg.stats, "_BLOCK", 7)
        small = self.masks(self.MASK, 3000, 4)
        assert small.shape == full.shape == (3000, 15)
        assert np.array_equal(small, full)

    def test_first_masks_do_not_depend_on_n_perm(self):
        assert np.array_equal(self.masks(self.MASK, 500, 4), self.masks(self.MASK, 3000, 4)[:500])

    @pytest.mark.parametrize("mask", [MASK, MASK[::-1], np.arange(15) % 2 == 0])
    def test_every_row_keeps_the_group_sizes(self, mask):
        masks = self.masks(mask, 2500, 9)
        assert masks.dtype == bool and masks.shape == (2500, 15)
        assert (masks.sum(axis=1) == mask.sum()).all()
        assert len({row.tobytes() for row in masks}) > 1500  # about 1970 expected from 5005


class TestCompareCells:
    """Many data matrices over one label tuple, scored in one walk over the masks."""

    @staticmethod
    def cells():
        return [gaussian_two_groups(n_per=8, p=4, shift=0.3 * i, seed=40 + i) for i in range(3)]

    @pytest.mark.parametrize("n_per, n_perm", [(3, 100), (8, 300), (8, 3000)])
    def test_each_cell_equals_compare_groups(self, n_per, n_perm):
        # C(6, 3) = 20 is enumerated; 3000 masks span 3 blocks
        datas = [gaussian_two_groups(n_per=n_per, p=4, shift=0.3 * i, seed=i) for i in range(3)]
        results = sg.stats.compare_cells(datas, 2, n_perm, 7)
        assert results == [sg.compare_groups(data, 2, n_perm, 7) for data in datas]

    def test_setup_error_stays_on_its_cell(self):
        datas = self.cells()
        datas[1] = sg.DataMatrix(datas[1].X[:, :1], datas[1].labels)  # one column: no 2-d PCA
        results = sg.stats.compare_cells(datas, 2, 300, 0)
        assert isinstance(results[1], InvalidParam)
        with pytest.raises(InvalidParam) as raised:
            sg.compare_groups(datas[1], 2, 300, 0)
        assert str(results[1]) == str(raised.value)
        for i in (0, 2):
            assert results[i] == sg.compare_groups(datas[i], 2, 300, 0)

    def test_scoring_error_stays_on_its_cell(self, monkeypatch):
        datas = self.cells()
        expected = [sg.compare_groups(data, 2, 300, 0) for data in datas]
        doomed = sg.stats._subset_tables(sg.stats._group_basis(datas[1].X, 2))
        table_lambdas = sg.stats._table_lambdas

        def failing(tables, coded):
            if coded[0].shape[1] > 1 and np.array_equal(tables, doomed):
                raise SingularScatter("within-group scatter matrix is singular")
            return table_lambdas(tables, coded)

        monkeypatch.setattr(sg.stats, "_table_lambdas", failing)
        results = sg.stats.compare_cells(datas, 2, 300, 0)
        assert isinstance(results[1], SingularScatter)
        assert [results[0], results[2]] == [expected[0], expected[2]]

    def test_one_svd_per_live_cell(self, monkeypatch):
        calls = []
        svd = scipy.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "svd", counting)
        datas = self.cells()
        datas.append(sg.DataMatrix(datas[0].X[:, :1], datas[0].labels))  # no 2-d PCA: no SVD
        results = sg.stats.compare_cells(datas, 2, 300, 0)
        assert [isinstance(result, SgwError) for result in results] == [False] * 3 + [True]
        assert calls == [data.X.shape for data in datas[:3]]

    def test_no_call_reaches_numpys_lapack(self, monkeypatch):
        # numpy's and scipy's wheels bundle separate OpenBLAS thread pools; every
        # SVD goes through scipy's, the one the eigensolver uses
        expected = sg.stats.compare_cells(self.cells(), 2, 300, 0)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd was called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert sg.stats.compare_cells(self.cells(), 2, 300, 0) == expected

    @pytest.mark.parametrize(
        "d, groups, error, match",
        [
            (6, 3, InvalidParam, r"pca dimension must be in \[1, 5\], got 6"),
            (5, 3, GroupCountError, "exactly 2 groups"),
            (5, 2, SingularScatter, "exceeds within-group degrees of freedom 4"),
            (3, 2, SingularScatter, "numerical rank 2 is below the dimension 3"),
            (2, 2, InvalidParam, "n_perm must be >= 1, got 0"),
        ],
    )
    def test_setup_error_order(self, d, groups, error, match):
        # six rows of rank 2 in five columns, and n_perm = 0: each case passes the
        # checks before its own
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        labels = ["a", "a", "b", "b", "c", "c"] if groups == 3 else ["a"] * 3 + ["b"] * 3
        (result,) = sg.stats.compare_cells([sg.DataMatrix(x, labels)], d, 0, 0)
        assert isinstance(result, error)
        with pytest.raises(error, match=match):
            raise result

    @pytest.mark.parametrize("pca_dims, n_perm, seed, match", BAD_COUNTS, ids=BAD_COUNT_IDS)
    def test_counts_are_read_per_cell(self, monkeypatch, pca_dims, n_perm, seed, match):
        monkeypatch.setattr(sg.stats, "_mask_blocks", None)  # any walk would fail
        results = sg.stats.compare_cells(self.cells(), pca_dims, n_perm, seed)
        assert len(results) == 3
        for result in results:
            assert isinstance(result, InvalidParam)
            with pytest.raises(InvalidParam, match=match):
                raise result

    def test_no_live_cell_draws_no_mask(self, monkeypatch):
        monkeypatch.setattr(sg.stats, "_mask_blocks", None)  # any walk would fail
        datas = self.cells()
        results = sg.stats.compare_cells(datas, 9, 300, 0)
        assert all(isinstance(result, InvalidParam) for result in results)
        assert sg.stats.compare_cells([], 2, 300, 0) == []

    def test_rejects_mixed_labels(self):
        datas = self.cells()
        datas[2] = sg.DataMatrix(datas[2].X[::-1], datas[2].labels[::-1])
        with pytest.raises(InvalidParam, match="one label tuple"):
            sg.stats.compare_cells(datas, 2, 300, 0)
