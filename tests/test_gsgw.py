"""Area-weighted aggregation of signatures into one global descriptor, and its closed form."""

import numpy as np
import pytest

import sgwshape as sg
from sgwshape.errors import DimensionMismatch, InvalidParam
from sgwshape.gsgw import summarize
from sgwshape.sgws import _kernel_rows

from conftest import random_rotation


def toy_signature():
    values = np.array(
        [
            [1.0, 2.0, 3.0],
            [0.5, 0.0, 1.5],
            [2.0, 2.0, 2.0],
            [0.1, 0.2, 0.3],
            [4.0, 0.0, 1.0],
        ]
    )
    return sg.SignatureMatrix(values, R=2)


class TestAggregate:
    def test_hand_value(self):
        sig = toy_signature()
        areas = np.array([0.5, 1.0, 2.0])
        vec = sg.aggregate(sig, areas)
        np.testing.assert_allclose(vec.values, sig.values @ areas, rtol=1e-15)
        assert vec.R == 2

    def test_normalize_divides_by_total_area(self):
        sig = toy_signature()
        areas = np.array([0.5, 1.0, 2.0])
        plain = sg.aggregate(sig, areas)
        scaled = sg.aggregate(sig, areas, normalize=True)
        np.testing.assert_allclose(scaled.values, plain.values / areas.sum(), rtol=1e-15)

    def test_area_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sg.aggregate(toy_signature(), np.ones(4))

    def test_nonpositive_area_rejected(self):
        with pytest.raises(InvalidParam, match="positive"):
            sg.aggregate(toy_signature(), np.array([1.0, 0.0, 1.0]))

    def test_vector_length_checked(self):
        with pytest.raises(InvalidParam):
            sg.GsgwVector(np.ones(3), R=2)  # length 5 expected for R = 2

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParam, match="finite"):
            sg.GsgwVector(np.array([1.0, np.nan, 1.0, 1.0, 1.0]), R=2)


class TestDistance:
    def test_euclidean(self):
        a = sg.GsgwVector(np.array([0.0, 0.0, 0.0, 0.0, 0.0]), R=2)
        b = sg.GsgwVector(np.array([3.0, 4.0, 0.0, 0.0, 0.0]), R=2)
        assert sg.gsgw_distance(a, b) == pytest.approx(5.0, rel=1e-15)
        assert sg.gsgw_distance(a, a) == 0.0

    def test_resolution_mismatch(self):
        a = sg.GsgwVector(np.zeros(5), R=2)
        b = sg.GsgwVector(np.zeros(2), R=1)
        with pytest.raises(DimensionMismatch):
            sg.gsgw_distance(a, b)


class TestIsometryInvariance:
    def test_rigid_motion_leaves_descriptor_unchanged(self, icosphere2, icosphere2_basis):
        cfg = sg.KernelConfig.from_eigen(icosphere2_basis, R=4)
        sig = sg.signature_matrix(icosphere2_basis, cfg)
        ref = sg.aggregate(sig, icosphere2_basis.vertex_areas)

        rng = np.random.default_rng(12)
        moved = sg.rigid_transform(
            icosphere2, random_rotation(rng), rng.standard_normal(3)
        )
        stiffness, mass = sg.laplacian_matrices(moved)
        basis = sg.solve_eigen(stiffness, mass, 31)
        moved_cfg = sg.KernelConfig.from_eigen(basis, R=4)
        moved_vec = sg.aggregate(
            sg.signature_matrix(basis, moved_cfg), basis.vertex_areas
        )

        scale = np.linalg.norm(ref.values)
        assert sg.gsgw_distance(ref, moved_vec) < 1e-10 * scale


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestClosedForm:
    """gsgw_for_mesh uses g = K w; aggregate(signature_matrix(...)) is the reference."""

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    @pytest.mark.parametrize("area_factor", [True, False])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_signature_aggregate(self, bumpy2, method, area_factor, normalize):
        cfg = sg.RunConfig(
            k=31, R=6, method=method, area_factor=area_factor, normalize=normalize
        )
        got = sg.gsgw_for_mesh(bumpy2, cfg)

        stiffness, mass = sg.laplacian_matrices(bumpy2)
        basis = sg.solve_eigen(stiffness, mass, 31, method=method)
        kernel_cfg = sg.KernelConfig.from_eigen(basis, R=6, area_factor=area_factor)
        want = sg.aggregate(
            sg.signature_matrix(basis, kernel_cfg), basis.vertex_areas, normalize=normalize
        )
        assert got.values.shape == want.values.shape
        assert _relative_gap(got.values, want.values) <= 1e-14

    def test_prefix_of_stored_summary(self, bumpy2, tmp_path):
        cfg = sg.RunConfig(k=20, R=5, cache_dir=str(tmp_path / "cache"))
        sg.gsgw_for_mesh(bumpy2, cfg)
        diag = sg.RunDiagnostics()
        got = sg.gsgw_for_mesh(bumpy2, sg.RunConfig(k=9, R=5, cache_dir=cfg.cache_dir), diag)
        assert diag.eigensolves == 0 and diag.eigen_cache_hits == 1

        stiffness, mass = sg.laplacian_matrices(bumpy2)
        basis = sg.solve_eigen(stiffness, mass, 20).truncate(9)
        kernel_cfg = sg.KernelConfig.from_eigen(basis, R=5)
        want = sg.aggregate(sg.signature_matrix(basis, kernel_cfg), basis.vertex_areas)
        assert _relative_gap(got.values, want.values) <= 1e-14

    def test_plain_weights_are_one(self, bumpy2_basis):
        # w_plain is the diagonal of Phi^T A Phi = I
        summary = summarize(bumpy2_basis)
        assert np.abs(summary.w_plain - 1.0).max() <= 1e-14

    def test_no_area_factor_depends_on_eigenvalues_alone(self, bumpy2, bumpy2_basis):
        cfg = sg.RunConfig(k=31, R=6, area_factor=False)
        got = sg.gsgw_for_mesh(bumpy2, cfg)
        kernel_cfg = sg.KernelConfig.from_eigen(bumpy2_basis, R=6, area_factor=False)
        rows = _kernel_rows(bumpy2_basis.eigenvalues, kernel_cfg)
        assert _relative_gap(got.values, rows @ np.ones(31)) <= 1e-14

    def test_summary_truncate_is_a_prefix(self, bumpy2_basis):
        summary = summarize(bumpy2_basis)
        short = summary.truncate(7)
        assert short.k == 7 and summary.truncate(31) is summary
        np.testing.assert_array_equal(short.w_area, summary.w_area[:7])
        with pytest.raises(InvalidParam):
            summary.truncate(32)
