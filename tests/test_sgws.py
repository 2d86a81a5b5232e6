"""Wavelet kernels, spectrum-derived scale grids, and per-vertex signatures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dgemv

import sgwshape as sg
from sgwshape.errors import InvalidParam, NumericalError
from sgwshape.gsgw import descriptor_from_summary, summarize
from sgwshape.sgws import _kernel_rows

PEAK = math.exp(-1.0)


def toy_basis():
    """Tiny hand-written spectrum; no claim of orthonormality needed here."""
    eigenvalues = np.array([0.0, 4.0])
    eigenvectors = np.array([[0.2, 0.5], [0.1, -0.3], [0.4, 0.25]])
    vertex_areas = np.array([0.6, 1.1, 0.8])
    return sg.EigenBasis(eigenvalues, eigenvectors, vertex_areas)


class TestKernels:
    def test_mexican_hat_values(self):
        assert sg.mexican_hat(0.0) == 0.0
        assert sg.mexican_hat(1.0) == pytest.approx(PEAK, rel=1e-15)
        assert sg.mexican_hat(5.0) == pytest.approx(5.0 * math.exp(-5.0), rel=1e-15)

    def test_mexican_hat_vectorized(self):
        x = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(sg.mexican_hat(x), x * np.exp(-x))

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_mexican_hat_bounded_by_peak(self, x):
        val = sg.mexican_hat(x)
        assert 0.0 <= val <= PEAK + 1e-16

    def test_scaling_kernel_matches_wavelet_peak(self):
        assert sg.scaling_kernel(0.0, 1.0) == pytest.approx(PEAK, rel=1e-15)

    def test_scaling_kernel_width(self):
        # quartic roll-off hits gamma/e exactly at 0.6 * lambda_min
        assert sg.scaling_kernel(0.6, 1.0) == pytest.approx(PEAK * math.exp(-1), rel=1e-14)
        assert sg.scaling_kernel(50.0, 1.0) < 1e-300


class TestWaveletScales:
    def test_single_scale(self):
        np.testing.assert_array_equal(sg.wavelet_scales(1, 1.0, 20.0), [2.0])

    def test_endpoints_are_exact(self):
        scales = sg.wavelet_scales(2, 1.0, 20.0)
        assert scales[0] == 2.0
        assert scales[-1] == 0.1

    def test_log_equispaced_midpoint(self):
        scales = sg.wavelet_scales(3, 1.0, 20.0)
        assert scales[1] == pytest.approx(math.sqrt(2.0 * 0.1), rel=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParam):
            sg.wavelet_scales(0, 1.0, 20.0)
        with pytest.raises(InvalidParam):
            sg.wavelet_scales(3, -1.0, 20.0)
        with pytest.raises(InvalidParam):
            sg.wavelet_scales(3, 5.0, 5.0)

    @settings(max_examples=60)
    @given(
        L=st.integers(min_value=2, max_value=12),
        lo=st.floats(min_value=1e-3, max_value=10.0),
        ratio=st.floats(min_value=1.5, max_value=1e4),
    )
    def test_grid_properties(self, L, lo, ratio):
        hi = lo * ratio
        scales = sg.wavelet_scales(L, lo, hi)
        assert scales.shape == (L,)
        assert scales[0] == 2.0 / lo
        assert scales[-1] == 2.0 / hi
        assert np.all(np.diff(scales) < 0)


class TestSignatureLength:
    @pytest.mark.parametrize("R,expected", [(1, 2), (2, 5), (3, 9), (30, 495)])
    def test_known_values(self, R, expected):
        assert sg.signature_length(R) == expected

    @given(st.integers(min_value=1, max_value=60))
    def test_counts_level_blocks(self, R):
        assert sg.signature_length(R) == sum(level + 1 for level in range(1, R + 1))

    def test_rejects_zero(self):
        with pytest.raises(InvalidParam):
            sg.signature_length(0)


class TestSpectrumBounds:
    def test_anchored_at_largest_eigenvalue(self):
        lo, hi = sg.spectrum_bounds(np.array([0.0, 1.0, 4.0, 20.0]))
        assert hi == 20.0
        assert lo == 1.0

    def test_requires_two_modes(self):
        with pytest.raises(InvalidParam):
            sg.spectrum_bounds(np.array([0.0]))

    def test_flat_spectrum_rejected(self):
        with pytest.raises(NumericalError):
            sg.spectrum_bounds(np.array([0.0, 0.0]))


def row_by_row(lam, R):
    """Kernel rows one scale at a time, on the grid spectrum_bounds gives."""
    lo, hi = sg.spectrum_bounds(lam)
    loop = []
    for level in range(1, R + 1):
        for t in sg.wavelet_scales(level, lo, hi):
            loop.append(sg.mexican_hat(t * lam))
        loop.append(sg.scaling_kernel(lam, lo))
    return np.array(loop)


class TestKernelRows:
    @pytest.mark.parametrize("R", [1, 2, 10, 20, 30])
    @pytest.mark.parametrize("k", [2, 11, 21, 31])
    def test_broadcast_equals_row_by_row(self, icosphere2_basis, R, k):
        lam = icosphere2_basis.eigenvalues[:k]
        np.testing.assert_array_equal(_kernel_rows(lam, R), row_by_row(lam, R))

    def test_truncated_spectrum_sets_its_own_grid(self, icosphere2_basis):
        # a prefix of k eigenvalues is anchored at its own lambda_k, not at
        # the largest eigenvalue of the full basis
        lam = icosphere2_basis.truncate(11).eigenvalues
        lo, hi = sg.spectrum_bounds(lam)
        assert (lo, hi) == (lam[-1] / 20.0, lam[-1])
        assert hi < icosphere2_basis.eigenvalues[-1]
        rows = _kernel_rows(lam, 4)
        assert rows.shape == (sg.signature_length(4), 11)
        # the finest band-pass scale of the last level is 2 / lambda_k, and
        # every level's low-pass row rolls off at 0.6 lambda_k / 20
        np.testing.assert_array_equal(rows[-2], sg.mexican_hat(2.0 / hi * lam))
        np.testing.assert_array_equal(rows[-1], sg.scaling_kernel(lam, lo))
        assert not np.array_equal(rows, _kernel_rows(icosphere2_basis.eigenvalues, 4)[:, :11])

    @pytest.mark.parametrize("k", [2, 11, 31])
    def test_rows_at_R_are_a_prefix_of_the_rows_at_a_larger_R(self, icosphere2_basis, k):
        # no row depends on R, so a sweep evaluates the bank once, at its
        # largest R; the product over a prefix of those rows is the descriptor
        summary = summarize(icosphere2_basis.truncate(k))
        largest = _kernel_rows(summary.eigenvalues, 30)
        for R in range(1, 31):
            prefix = largest[: sg.signature_length(R)]
            np.testing.assert_array_equal(_kernel_rows(summary.eigenvalues, R), prefix)
            g = dgemv(1.0, prefix.T, summary.w_area, trans=1)
            np.testing.assert_array_equal(g, descriptor_from_summary(summary, R).values)


class TestSignatureMatrix:
    def brute_force(self, basis, R, j, area_factor):
        phi_sq = basis.eigenvectors[j] ** 2
        out = np.array([float(np.sum(row * phi_sq)) for row in row_by_row(basis.eigenvalues, R)])
        if area_factor:
            out *= basis.vertex_areas[j] ** 2
        return out

    @pytest.mark.parametrize("area_factor", [True, False])
    def test_matches_brute_force(self, area_factor):
        basis = toy_basis()
        sig = sg.signature_matrix(basis, 3, area_factor=area_factor)
        for j in range(basis.m):
            want = self.brute_force(basis, 3, j, area_factor)
            np.testing.assert_allclose(sig.values[:, j], want, rtol=1e-13)

    def test_level_major_ordering_duplicates(self):
        # level 1 reuses the coarsest level 2 scale, so those rows coincide,
        # as do every level's scaling rows
        basis = toy_basis()
        sig = sg.signature_matrix(basis, 2).values
        np.testing.assert_array_equal(sig[0], sig[2])
        np.testing.assert_array_equal(sig[1], sig[4])
        assert not np.array_equal(sig[2], sig[3])

    def test_signature_is_nonnegative(self, icosphere2_basis):
        assert sg.signature_matrix(icosphere2_basis, 3).values.min() >= 0.0

    def test_rejects_zero_resolution(self):
        with pytest.raises(InvalidParam, match="resolution"):
            sg.signature_matrix(toy_basis(), 0)

    def test_rejects_single_mode(self):
        basis = sg.EigenBasis(np.array([0.0]), np.ones((3, 1)), np.ones(3))
        with pytest.raises(InvalidParam, match="k >= 2"):
            sg.signature_matrix(basis, 2)

    def test_matrix_is_readonly(self, icosphere2_basis):
        sig = sg.signature_matrix(icosphere2_basis, 2)
        with pytest.raises(ValueError):
            sig.values[0, 0] = 1.0


class TestCsvExport:
    def test_round_trip_12_digits(self, tmp_path, icosphere2_basis):
        sig = sg.signature_matrix(icosphere2_basis, 2)
        path = tmp_path / "sig.csv"
        sg.write_signature_csv(sig, path)
        lines = path.read_text().splitlines()
        assert len(lines) == sig.p  # one row per signature entry
        data = np.array([[float(tok) for tok in line.split(",")] for line in lines])
        assert data.shape == (sig.p, icosphere2_basis.m)
        np.testing.assert_allclose(data, sig.values, rtol=1e-11)

