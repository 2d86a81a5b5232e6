"""Cotangent stiffness and lumped mass assembly."""

import numpy as np
import pytest

import sgwshape as sg
from sgwshape.errors import DimensionMismatch, InvalidParam

from conftest import planar_grid, random_rotation


def right_triangle_mesh():
    # right angle at vertex 0, legs of length 1 along x and y
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return sg.TriangleMesh(vertices, [[0, 1, 2]])


def obtuse_triangle_mesh():
    # obtuse at vertex 2, area 1
    vertices = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 0.5, 0.0]])
    return sg.TriangleMesh(vertices, [[0, 1, 2]])


class TestStiffness:
    def test_single_right_triangle_entries(self):
        stiffness = sg.stiffness_matrix(right_triangle_mesh()).toarray()
        # cot at the right angle is 0, at the two 45 degree corners it is 1
        expected = np.array(
            [
                [1.0, -0.5, -0.5],
                [-0.5, 0.5, 0.0],
                [-0.5, 0.0, 0.5],
            ]
        )
        np.testing.assert_allclose(stiffness, expected, atol=1e-15)

    def test_exactly_symmetric(self, bumpy2):
        stiffness = sg.stiffness_matrix(bumpy2)
        assert (stiffness != stiffness.T).nnz == 0

    def test_zero_row_sums(self, bumpy2):
        stiffness = sg.stiffness_matrix(bumpy2)
        row_sums = np.asarray(stiffness.sum(axis=1)).ravel()
        assert np.abs(row_sums).max() < 1e-12

    def test_positive_semidefinite(self, bumpy2):
        stiffness = sg.stiffness_matrix(bumpy2)
        rng = np.random.default_rng(0)
        for _ in range(100):
            vec = rng.standard_normal(bumpy2.m)
            quad = vec @ (stiffness @ vec)
            assert quad >= -1e-10 * (vec @ vec)

    def test_scale_invariance(self, bumpy2):
        scaled = bumpy2.with_vertices(bumpy2.vertices * 2.5)
        a = sg.stiffness_matrix(bumpy2)
        b = sg.stiffness_matrix(scaled)
        np.testing.assert_allclose(b.toarray(), a.toarray(), rtol=1e-12, atol=1e-15)

    def test_rigid_invariance(self, bumpy2):
        rng = np.random.default_rng(7)
        moved = sg.rigid_transform(bumpy2, random_rotation(rng), rng.standard_normal(3))
        a = sg.stiffness_matrix(bumpy2).toarray()
        b = sg.stiffness_matrix(moved).toarray()
        np.testing.assert_allclose(b, a, rtol=1e-10, atol=1e-12)

    def test_assembly_is_deterministic(self, bumpy2):
        a = sg.stiffness_matrix(bumpy2)
        b = sg.stiffness_matrix(bumpy2)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.indices, b.indices)


class TestMass:
    def test_right_triangle_circumcentric_split(self):
        mass = sg.mass_matrix(right_triangle_mesh())
        np.testing.assert_allclose(mass.diagonal(), [0.25, 0.125, 0.125], rtol=1e-14)

    def test_obtuse_triangle_split(self):
        mass = sg.mass_matrix(obtuse_triangle_mesh())
        # obtuse corner takes half the area, the others a quarter each
        np.testing.assert_allclose(mass.diagonal(), [0.25, 0.25, 0.5], rtol=1e-14)

    def test_barycentric_thirds(self):
        mass = sg.mass_matrix(right_triangle_mesh(), lumping="barycentric")
        np.testing.assert_allclose(mass.diagonal(), [1 / 6, 1 / 6, 1 / 6], rtol=1e-14)

    @pytest.mark.parametrize("lumping", ["mixed", "barycentric"])
    def test_total_mass_equals_surface_area(self, bumpy2, lumping):
        mass = sg.mass_matrix(bumpy2, lumping=lumping)
        assert mass.diagonal().sum() == pytest.approx(bumpy2.total_area(), rel=1e-12)

    def test_schemes_differ_on_irregular_mesh(self, bumpy2):
        mixed = sg.mass_matrix(bumpy2).diagonal()
        bary = sg.mass_matrix(bumpy2, lumping="barycentric").diagonal()
        assert np.abs(mixed - bary).max() > 1e-6

    def test_all_positive(self, bumpy2):
        assert sg.mass_matrix(bumpy2).diagonal().min() > 0

    def test_rejects_unknown_lumping(self, bumpy2):
        with pytest.raises(InvalidParam, match="lumping"):
            sg.mass_matrix(bumpy2, lumping="voronoi")


class TestApplyOperator:
    def test_annihilates_constants(self, bumpy2):
        stiffness, mass = sg.laplacian_matrices(bumpy2)
        out = sg.apply_operator(stiffness, mass, np.full(bumpy2.m, 3.7))
        assert np.abs(out).max() < 1e-10

    def test_linear_field_harmonic_in_interior(self, grid_mesh):
        stiffness, mass = sg.laplacian_matrices(grid_mesh)
        field = 2.0 * grid_mesh.vertices[:, 0] - 0.5 * grid_mesh.vertices[:, 1]
        out = sg.apply_operator(stiffness, mass, field)
        # boundary rows see a half neighborhood, so only check interior ones
        x, y = grid_mesh.vertices[:, 0], grid_mesh.vertices[:, 1]
        interior = (x > 0.5) & (x < 6.5) & (y > 0.5) & (y < 6.5)
        assert interior.sum() > 10
        assert np.abs(out[interior]).max() < 1e-10

    def test_reproduces_eigenpair(self, icosphere2, icosphere2_basis):
        stiffness, mass = sg.laplacian_matrices(icosphere2)
        phi = icosphere2_basis.eigenvectors[:, 5]
        lam = icosphere2_basis.eigenvalues[5]
        out = sg.apply_operator(stiffness, mass, phi)
        np.testing.assert_allclose(out, lam * phi, atol=1e-8 * lam)

    def test_wrong_length(self, bumpy2):
        stiffness, mass = sg.laplacian_matrices(bumpy2)
        with pytest.raises(DimensionMismatch):
            sg.apply_operator(stiffness, mass, np.ones(bumpy2.m + 1))

