"""Truncated spectral reconstruction and the NMSE curve."""

import numpy as np
import pytest

import sgwshape as sg
from sgwshape.errors import InvalidParam, ValidationError

from conftest import random_rotation, rigid_transform


@pytest.fixture(scope="module")
def ico_full_basis():
    mesh = sg.make_synthetic("unit_sphere", 0)  # 12 vertices
    stiffness, mass = sg.laplacian_matrices(mesh)
    return mesh, sg.solve_eigen(stiffness, mass, mesh.m, method="dense")


class TestReconstruction:
    def test_full_basis_reproduces_vertices(self, ico_full_basis):
        mesh, basis = ico_full_basis
        rebuilt = sg.reconstruct_vertices(mesh, basis, mesh.m)
        np.testing.assert_allclose(rebuilt, mesh.vertices, atol=1e-10)

    def test_k1_gives_area_centroid(self, ico_full_basis):
        mesh, basis = ico_full_basis
        rebuilt = sg.reconstruct_vertices(mesh, basis, 1)
        areas = basis.vertex_areas
        centroid = (areas[:, None] * mesh.vertices).sum(axis=0) / areas.sum()
        np.testing.assert_allclose(rebuilt, np.tile(centroid, (mesh.m, 1)), atol=1e-12)

    def test_k1_positions_are_no_mesh(self, ico_full_basis):
        # every vertex on the centroid: a reconstruction stays a vertex array,
        # which no validated mesh could hold
        mesh, basis = ico_full_basis
        with pytest.raises(ValidationError):
            sg.TriangleMesh(sg.reconstruct_vertices(mesh, basis, 1), mesh.triangles)

    def test_rejects_bad_k(self, ico_full_basis):
        mesh, basis = ico_full_basis
        with pytest.raises(InvalidParam):
            sg.reconstruct_vertices(mesh, basis, 0)
        with pytest.raises(InvalidParam):
            sg.reconstruct_vertices(mesh, basis, basis.k + 1)

    def test_rejects_a_basis_of_another_mesh(self, ico_full_basis, bumpy2):
        _, basis = ico_full_basis
        with pytest.raises(InvalidParam) as raised:
            sg.reconstruct_vertices(bumpy2, basis, 1)
        assert str(raised.value) == f"basis built on 12 vertices, mesh has {bumpy2.m}"


class TestNmseCurve:
    def test_anchor_is_exactly_one(self, bumpy2, bumpy2_basis):
        report = sg.nmse_curve(bumpy2, bumpy2_basis, [1, 5, 10])
        assert report.nmse[0] == 1.0

    def test_monotone_decreasing(self, bumpy2, bumpy2_basis):
        ks = [1, 2, 4, 8, 16, 31]
        report = sg.nmse_curve(bumpy2, bumpy2_basis, ks)
        vals = np.array(report.nmse)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_near_zero_at_full_basis(self, ico_full_basis):
        mesh, basis = ico_full_basis
        report = sg.nmse_curve(mesh, basis, [1, mesh.m])
        assert report.nmse[-1] < 1e-12

    def test_weighting_flag_changes_values(self, bumpy2, bumpy2_basis):
        ks = [1, 7]
        weighted = sg.nmse_curve(bumpy2, bumpy2_basis, ks)
        flat = sg.nmse_curve(bumpy2, bumpy2_basis, ks, weighted=False)
        assert flat.nmse[0] == 1.0
        assert weighted.nmse[1] != flat.nmse[1]

    def test_keep_meshes(self, bumpy2, bumpy2_basis):
        report = sg.nmse_curve(bumpy2, bumpy2_basis, [1, 10], keep_meshes=True)
        assert set(report.positions) == {1, 10}
        for k in (1, 10):
            assert np.array_equal(
                report.positions[k], sg.reconstruct_vertices(bumpy2, bumpy2_basis, k)
            )
        assert sg.nmse_curve(bumpy2, bumpy2_basis, [1, 10]).positions == {}

    def test_validation(self, bumpy2, bumpy2_basis):
        with pytest.raises(InvalidParam):
            sg.nmse_curve(bumpy2, bumpy2_basis, [])
        with pytest.raises(InvalidParam):
            sg.nmse_curve(bumpy2, bumpy2_basis, [0, 5])
        with pytest.raises(InvalidParam):
            sg.nmse_curve(bumpy2, bumpy2_basis, [5, 99])

    def test_report_csv_round_trip(self, tmp_path, bumpy2, bumpy2_basis):
        report = sg.nmse_curve(bumpy2, bumpy2_basis, [1, 3, 9])
        path = tmp_path / "nmse.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,nmse"
        for line, k, val in zip(lines[1:], report.ks, report.nmse):
            tok_k, tok_v = line.split(",")
            assert int(tok_k) == k
            assert float(tok_v) == val  # repr round-trips exactly


class TestRigidEquivariance:
    def test_reconstruction_commutes_with_rigid_motion(self, bumpy2, bumpy2_basis):
        # pick k at the widest spectral gap so the projector is unambiguous
        gaps = np.diff(bumpy2_basis.eigenvalues)
        k = int(np.argmax(gaps[4:20])) + 5
        rng = np.random.default_rng(42)
        rot = random_rotation(rng)
        shift = rng.standard_normal(3)

        moved = rigid_transform(bumpy2, rot, shift)
        stiffness, mass = sg.laplacian_matrices(moved)
        moved_basis = sg.solve_eigen(stiffness, mass, 31)

        direct = sg.reconstruct_vertices(moved, moved_basis, k)
        mapped = sg.reconstruct_vertices(bumpy2, bumpy2_basis, k) @ rot.T + shift
        assert np.abs(direct - mapped).max() < 1e-8
