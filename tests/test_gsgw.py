"""Area-weighted aggregation of signatures into one global descriptor, and its closed form."""

import numpy as np
import pytest

import sgwshape as sg
from sgwshape.errors import DimensionMismatch, InvalidParam
from sgwshape.gsgw import descriptor_from_summary, summarize
from sgwshape.sgws import _kernel_rows

from conftest import first_pairs, folded_sheet, random_rotation, rigid_transform


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


class TestIsometryInvariance:
    def test_rigid_motion_leaves_descriptor_unchanged(self, icosphere2, icosphere2_basis):
        sig = sg.signature_matrix(icosphere2_basis, 4)
        ref = sg.aggregate(sig, icosphere2_basis.vertex_areas)

        rng = np.random.default_rng(12)
        moved = rigid_transform(
            icosphere2, random_rotation(rng), rng.standard_normal(3)
        )
        stiffness, mass = sg.laplacian_matrices(moved)
        basis = sg.solve_eigen(stiffness, mass, 31)
        moved_vec = sg.aggregate(sg.signature_matrix(basis, 4), basis.vertex_areas)

        scale = np.linalg.norm(ref.values)
        assert np.linalg.norm(moved_vec.values - ref.values) < 1e-10 * scale

    @pytest.mark.parametrize("lumping", ["mixed", "barycentric"])
    @pytest.mark.parametrize(
        "nx, ny, method, bound", [(21, 11, "dense", 2.4e-14), (41, 21, "sparse", 1.2e-14)]
    )
    def test_bending_leaves_descriptor_unchanged(self, nx, ny, method, bound, lumping):
        # a fold keeps every edge length, and the cotangent weights and both
        # lumpings depend on edge lengths alone: an isometry that is not rigid.
        # The largest gap was 2.7e-15 over eight diagonal draws (m = 231 and
        # 861), and a 1% stretch moved the descriptor by about 2e-2
        def descriptor(mesh):
            stiffness, mass = sg.laplacian_matrices(mesh, lumping=lumping)
            basis = sg.solve_eigen(stiffness, mass, 31, method=method)
            return descriptor_from_summary(summarize(basis), 30).values

        flat = descriptor(folded_sheet(nx, ny, 0.0))
        for angle in (0.5, 1.5, 2.5):
            assert _relative_gap(descriptor(folded_sheet(nx, ny, angle)), flat) <= bound
        assert _relative_gap(descriptor(folded_sheet(nx, ny, 0.0, stretch=1.01)), flat) > 1e-2


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.fixture
def bumpy2_file(bumpy2, tmp_path):
    """bumpy2 written as OFF. The file keeps 12 significant digits, so
    references are computed from the mesh read back from it."""
    path = tmp_path / "bumpy2.off"
    sg.write_mesh(bumpy2, path)
    return path


class TestClosedForm:
    """gsgw_for_mesh uses g = K w; aggregate(signature_matrix(...)) is the reference."""

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    # normalize needs the area factor (RunConfig refuses it alone)
    @pytest.mark.parametrize(
        "normalize, area_factor", [(False, True), (False, False), (True, True)]
    )
    def test_matches_signature_aggregate(self, bumpy2_file, method, area_factor, normalize):
        cfg = sg.RunConfig(
            k=31, R=6, method=method, area_factor=area_factor, normalize=normalize
        )
        got = sg.gsgw_for_mesh(bumpy2_file, cfg)

        stiffness, mass = sg.laplacian_matrices(sg.load_mesh(bumpy2_file))
        basis = sg.solve_eigen(stiffness, mass, 31, method=method)
        want = sg.aggregate(
            sg.signature_matrix(basis, 6, area_factor=area_factor), basis.vertex_areas
        )
        if normalize:
            want = sg.GsgwVector(want.values / basis.vertex_areas.sum() ** 2, R=6)
        assert got.values.shape == want.values.shape
        assert _relative_gap(got.values, want.values) <= 1e-14

    def test_prefix_of_stored_summary(self, bumpy2_file, tmp_path):
        cfg = sg.RunConfig(k=20, R=5, cache_dir=str(tmp_path / "cache"))
        sg.gsgw_for_mesh(bumpy2_file, cfg)
        diag = sg.RunDiagnostics()
        got = sg.gsgw_for_mesh(bumpy2_file, sg.RunConfig(k=9, R=5, cache_dir=cfg.cache_dir), diag)
        assert diag.eigensolves == 0 and diag.eigen_cache_hits == 1

        stiffness, mass = sg.laplacian_matrices(sg.load_mesh(bumpy2_file))
        basis = first_pairs(sg.solve_eigen(stiffness, mass, 20), 9)
        want = sg.aggregate(sg.signature_matrix(basis, 5), basis.vertex_areas)
        assert _relative_gap(got.values, want.values) <= 1e-14

    def test_plain_weights_are_one(self, bumpy2_basis):
        # without the area factor the weights are the diagonal of
        # Phi^T A Phi = I, which descriptor_from_summary takes as exact ones
        phi, a = bumpy2_basis.eigenvectors, bumpy2_basis.vertex_areas
        assert np.abs((phi**2).T @ a - 1.0).max() <= 1e-14

    def test_area_weights_equal_the_matrix_product(self, bumpy2_basis):
        # summarize sums without BLAS; the product (phi^2)^T a^3 is the reference
        phi, a = bumpy2_basis.eigenvectors, bumpy2_basis.vertex_areas
        got = summarize(bumpy2_basis).w_area
        np.testing.assert_allclose(got, (phi**2).T @ a**3, rtol=1e-13, atol=0)

    def test_no_area_factor_depends_on_eigenvalues_alone(self, bumpy2_file):
        cfg = sg.RunConfig(k=31, R=6, area_factor=False)
        got = sg.gsgw_for_mesh(bumpy2_file, cfg)
        stiffness, mass = sg.laplacian_matrices(sg.load_mesh(bumpy2_file))
        rows = _kernel_rows(sg.solve_eigen(stiffness, mass, 31).eigenvalues, 6)
        assert _relative_gap(got.values, rows @ np.ones(31)) <= 1e-14

    @pytest.mark.parametrize(
        "subdivisions, scales",
        [
            pytest.param(2, (2.0, 10.0, 1e-30, 1e30), id="2"),
            pytest.param(3, (2.0, 10.0, 1e30), id="3"),
        ],
    )
    def test_normalize_removes_size(self, subdivisions, scales):
        # under the area factor w_l = sum_j a_j^3 phi_l(j)^2 goes as c^4 for a
        # mesh scaled by c, and so does the total area squared; the kernel rows
        # are anchored at lambda_k and do not move. This holds across the
        # length scale range on the dense route (m = 162); the sparse route
        # (m = 642) fails its residual check from a scale of 1e-12 down
        mesh = sg.make_synthetic("bumpy_sphere", subdivisions, seed=0)

        def descriptors(c):
            scaled = sg.TriangleMesh(c * mesh.vertices, mesh.triangles)
            stiffness, mass = sg.laplacian_matrices(scaled)
            summary = summarize(sg.solve_eigen(stiffness, mass, 31))
            return [descriptor_from_summary(summary, 30, normalize=normalize).values
                    for normalize in (False, True)]

        plain, normalized = descriptors(1.0)
        for c in scales:
            scaled_plain, scaled_normalized = descriptors(c)
            assert _relative_gap(scaled_plain, c**4 * plain) <= 1e-12
            assert _relative_gap(scaled_normalized, normalized) <= 1e-12

    def test_normalize_needs_the_area_factor(self, bumpy2_basis):
        with pytest.raises(InvalidParam, match="normalize needs the area factor"):
            descriptor_from_summary(summarize(bumpy2_basis), 5, area_factor=False, normalize=True)

    def test_summary_truncate_is_a_prefix(self, bumpy2_basis):
        summary = summarize(bumpy2_basis)
        short = summary.truncate(7)
        assert short.k == 7 and summary.truncate(31) is summary
        np.testing.assert_array_equal(short.w_area, summary.w_area[:7])
        with pytest.raises(InvalidParam):
            summary.truncate(32)
