"""Wavelet kernels, scale grids, and per-vertex signatures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgwshape as sg
from sgwshape.errors import InvalidParam
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
        cfg = sg.KernelConfig(R=3, lambda_min=1.0, lambda_max=20.0)
        assert sg.scaling_kernel(0.0, cfg) == pytest.approx(PEAK, rel=1e-15)

    def test_scaling_kernel_width(self):
        cfg = sg.KernelConfig(R=3, lambda_min=1.0, lambda_max=20.0)
        # quartic roll-off hits gamma/e exactly at 0.6 * lambda_min
        assert sg.scaling_kernel(0.6, cfg) == pytest.approx(PEAK * math.exp(-1), rel=1e-14)
        assert sg.scaling_kernel(50.0, cfg) < 1e-300


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


class TestKernelConfig:
    def test_from_eigen_uses_spectrum_bounds(self, icosphere2_basis):
        cfg = sg.KernelConfig.from_eigen(icosphere2_basis, R=4)
        lo, hi = sg.spectrum_bounds(icosphere2_basis)
        assert cfg.lambda_min == lo
        assert cfg.lambda_max == hi
        assert cfg.R == 4
        assert cfg.p == sg.signature_length(4)

    def test_validation(self):
        with pytest.raises(InvalidParam):
            sg.KernelConfig(R=0, lambda_min=1.0, lambda_max=2.0)
        with pytest.raises(InvalidParam):
            sg.KernelConfig(R=2, lambda_min=2.0, lambda_max=1.0)


class TestKernelRows:
    @pytest.mark.parametrize("R", [1, 2, 10, 20, 30])
    @pytest.mark.parametrize("k", [2, 11, 21, 31])
    def test_broadcast_equals_row_by_row(self, icosphere2_basis, R, k):
        lam = icosphere2_basis.eigenvalues[:k]
        cfg = sg.KernelConfig.from_eigen(icosphere2_basis.truncate(k), R=R)
        loop = []
        for level in range(1, R + 1):
            for t in sg.wavelet_scales(level, cfg.lambda_min, cfg.lambda_max):
                loop.append(sg.mexican_hat(t * lam))
            loop.append(sg.scaling_kernel(lam, cfg))
        np.testing.assert_array_equal(_kernel_rows(lam, cfg), np.array(loop))


class TestVertexSignature:
    def brute_force(self, basis, cfg, j):
        lam = basis.eigenvalues
        phi_sq = basis.eigenvectors[j] ** 2
        entries = []
        for level in range(1, cfg.R + 1):
            for t in sg.wavelet_scales(level, cfg.lambda_min, cfg.lambda_max):
                entries.append(float(np.sum(sg.mexican_hat(t * lam) * phi_sq)))
            entries.append(float(np.sum(sg.scaling_kernel(lam, cfg) * phi_sq)))
        out = np.array(entries)
        if cfg.area_factor:
            out *= basis.vertex_areas[j] ** 2
        return out

    @pytest.mark.parametrize("area_factor", [True, False])
    def test_matches_brute_force(self, area_factor):
        basis = toy_basis()
        cfg = sg.KernelConfig(
            R=3, lambda_min=0.2, lambda_max=4.0, area_factor=area_factor
        )
        for j in range(basis.m):
            got = sg.vertex_signature(basis, cfg, j)
            np.testing.assert_allclose(got, self.brute_force(basis, cfg, j), rtol=1e-13)

    def test_level_major_ordering_duplicates(self):
        # level 1 reuses the coarsest level 2 scale, so those rows coincide,
        # as do every level's scaling rows
        basis = toy_basis()
        cfg = sg.KernelConfig(R=2, lambda_min=0.2, lambda_max=4.0)
        sig = sg.signature_matrix(basis, cfg).values
        np.testing.assert_array_equal(sig[0], sig[2])
        np.testing.assert_array_equal(sig[1], sig[4])
        assert not np.array_equal(sig[2], sig[3])

    def test_matrix_columns_match_vertex_calls(self, icosphere2_basis):
        cfg = sg.KernelConfig.from_eigen(icosphere2_basis, R=3)
        sig = sg.signature_matrix(icosphere2_basis, cfg)
        for j in (0, 17, icosphere2_basis.m - 1):
            np.testing.assert_array_equal(
                sig.values[:, j], sg.vertex_signature(icosphere2_basis, cfg, j)
            )

    def test_signature_is_nonnegative(self, icosphere2_basis):
        cfg = sg.KernelConfig.from_eigen(icosphere2_basis, R=3)
        assert sg.signature_matrix(icosphere2_basis, cfg).values.min() >= 0.0

    def test_vertex_index_bounds(self):
        basis = toy_basis()
        cfg = sg.KernelConfig(R=2, lambda_min=0.2, lambda_max=4.0)
        with pytest.raises(InvalidParam, match="vertex index"):
            sg.vertex_signature(basis, cfg, 3)

    def test_matrix_is_readonly(self, icosphere2_basis):
        cfg = sg.KernelConfig.from_eigen(icosphere2_basis, R=2)
        sig = sg.signature_matrix(icosphere2_basis, cfg)
        with pytest.raises(ValueError):
            sig.values[0, 0] = 1.0


class TestCsvExport:
    def test_round_trip_12_digits(self, tmp_path, icosphere2_basis):
        cfg = sg.KernelConfig.from_eigen(icosphere2_basis, R=2)
        sig = sg.signature_matrix(icosphere2_basis, cfg)
        path = tmp_path / "sig.csv"
        sg.write_signature_csv(sig, path)
        lines = path.read_text().splitlines()
        assert len(lines) == sig.p  # one row per signature entry
        data = np.array([[float(tok) for tok in line.split(",")] for line in lines])
        assert data.shape == (sig.p, icosphere2_basis.m)
        np.testing.assert_allclose(data, sig.values, rtol=1e-11)

