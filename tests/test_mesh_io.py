"""Mesh container, file formats, synthetic generators."""

import numpy as np
import pytest

import sgwshape as sg
from sgwshape.errors import InvalidParam, ParseError, ValidationError

TET_VERTICES = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)
TET_TRIANGLES = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


def tetra():
    return sg.TriangleMesh(TET_VERTICES, TET_TRIANGLES)


class TestTriangleMesh:
    def test_basic_counts(self):
        mesh = tetra()
        assert mesh.m == 4
        assert mesh.g == 4
        assert mesh.vertices.dtype == np.float64
        assert mesh.triangles.dtype == np.int64

    def test_arrays_are_readonly(self):
        mesh = tetra()
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 99.0
        with pytest.raises(ValueError):
            mesh.triangles[0, 0] = 3

    def test_rejects_bad_vertex_shape(self):
        with pytest.raises(ValidationError, match="vertices"):
            sg.TriangleMesh(np.zeros((4, 2)), TET_TRIANGLES)

    def test_rejects_nonfinite_vertex(self):
        bad = TET_VERTICES.copy()
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            sg.TriangleMesh(bad, TET_TRIANGLES)

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ValidationError, match="index"):
            sg.TriangleMesh(TET_VERTICES, [[0, 1, 4], [0, 2, 1]])
        with pytest.raises(ValidationError, match="index"):
            sg.TriangleMesh(TET_VERTICES, [[0, 1, -1], [0, 2, 1]])

    def test_rejects_repeated_vertex_in_triangle(self):
        tris = TET_TRIANGLES.copy()
        tris[0] = [1, 1, 2]
        with pytest.raises(ValidationError, match="repeats"):
            sg.TriangleMesh(TET_VERTICES, tris)

    def test_rejects_degenerate_triangle(self):
        vertices = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [2.0, 0.0, 0.0],  # collinear with the first two
                [0.0, 1.0, 0.0],
            ]
        )
        with pytest.raises(ValidationError, match="zero area"):
            sg.TriangleMesh(vertices, [[0, 1, 2], [0, 1, 3], [1, 2, 3]])

    def test_rejects_edge_shared_by_three_triangles(self):
        vertices = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, -1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        tris = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
        with pytest.raises(ValidationError, match="edge"):
            sg.TriangleMesh(vertices, tris)

    def test_edge_error_names_first_pair_in_sorted_order(self):
        vertices = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 0.5],
                [0.3, -1.0, 0.2],
                [-1.0, 0.4, 0.7],
            ]
        )
        # edges (1, 2) and (0, 4) each carry three triangles; (1, 2) comes
        # first in the triangle list, (0, 4) first in sorted order
        tris = [[1, 2, 3], [1, 2, 5], [2, 1, 6], [0, 4, 3], [4, 0, 5], [0, 4, 6]]
        with pytest.raises(
            ValidationError, match=r"^edge \(0, 4\) is shared by more than two triangles$"
        ):
            sg.TriangleMesh(vertices, tris)

    def test_rejects_isolated_vertex(self):
        vertices = np.vstack([TET_VERTICES, [5.0, 5.0, 5.0]])
        with pytest.raises(ValidationError, match="isolated"):
            sg.TriangleMesh(vertices, TET_TRIANGLES)

    def test_triangle_areas(self):
        mesh = tetra()
        areas = mesh.triangle_areas()
        # three unit right triangles plus the diagonal face
        expected = np.array([0.5, 0.5, 0.5, np.sqrt(3) / 2])
        np.testing.assert_allclose(np.sort(areas), np.sort(expected), rtol=1e-14)
        assert np.isclose(mesh.total_area(), areas.sum())

    def test_content_hash_is_stable(self):
        assert tetra().content_hash == tetra().content_hash

    def test_content_hash_tracks_geometry_and_topology(self):
        base = tetra()
        moved = base.with_vertices(base.vertices + 1e-9)
        assert base.content_hash != moved.content_hash
        reordered = sg.TriangleMesh(TET_VERTICES, TET_TRIANGLES[::-1])
        assert base.content_hash != reordered.content_hash

    def test_with_vertices_keeps_topology(self):
        mesh = tetra()
        out = mesh.with_vertices(mesh.vertices * 2.0)
        np.testing.assert_array_equal(out.triangles, mesh.triangles)
        np.testing.assert_allclose(out.vertices, mesh.vertices * 2.0)


class TestOffFormat:
    def test_round_trip(self, tmp_path):
        mesh = sg.make_synthetic("bumpy_sphere", 1, seed=3)
        path = tmp_path / "bumpy.off"
        sg.write_mesh(mesh, path)
        back = sg.load_mesh(path)
        np.testing.assert_allclose(back.vertices, mesh.vertices, rtol=1e-11, atol=1e-14)
        np.testing.assert_array_equal(back.triangles, mesh.triangles)

    def test_counts_on_separate_line_and_comments(self, tmp_path):
        text = "\n".join(
            [
                "OFF",
                "# a comment",
                "4 4 0",
                "0 0 0",
                "1 0 0",
                "0 1 0",
                "0 0 1",
                "3 0 2 1",
                "3 0 1 3",
                "3 0 3 2",
                "3 1 2 3",
                "",
            ]
        )
        path = tmp_path / "tet.off"
        path.write_text(text)
        mesh = sg.load_mesh(path)
        assert mesh.m == 4 and mesh.g == 4

    def test_quad_face_is_fanned(self, tmp_path):
        text = "\n".join(
            [
                "OFF",
                "5 2 0",
                "0 0 0",
                "1 0 0",
                "1 1 0",
                "0 1 0",
                "0.5 0.5 1",
                "4 0 1 2 3",
                "3 0 1 4",
                "",
            ]
        )
        path = tmp_path / "quad.off"
        path.write_text(text)
        mesh = sg.load_mesh(path)
        assert mesh.g == 3
        np.testing.assert_array_equal(mesh.triangles[0], [0, 1, 2])
        np.testing.assert_array_equal(mesh.triangles[1], [0, 2, 3])

    def test_bad_coordinate_reports_line(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n4 4 0\n0 0 0\n1 0 zap\n0 1 0\n0 0 1\n")
        with pytest.raises(ParseError, match=r":4: non-numeric vertex"):
            sg.load_mesh(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.off"
        path.write_text("OFF\n4 4 0\n0 0 0\n")
        with pytest.raises(ParseError):
            sg.load_mesh(path)

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "nomagic.off"
        path.write_text("4 4 0\n")
        with pytest.raises(ParseError, match="OFF"):
            sg.load_mesh(path)


class TestObjFormat:
    def test_basic_load(self, tmp_path):
        text = "\n".join(
            [
                "# comment",
                "v 0 0 0",
                "v 1 0 0",
                "v 0 1 0",
                "v 0 0 1",
                "vn 0 0 1",
                "f 1 3 2",
                "f 1 2 4",
                "f 1 4 3",
                "f 2 3 4",
                "",
            ]
        )
        path = tmp_path / "tet.obj"
        path.write_text(text)
        mesh = sg.load_mesh(path)
        assert mesh.m == 4 and mesh.g == 4
        np.testing.assert_array_equal(mesh.triangles[0], [0, 2, 1])

    def test_slash_and_negative_references(self, tmp_path):
        text = "\n".join(
            [
                "v 0 0 0",
                "v 1 0 0",
                "v 0 1 0",
                "v 0 0 1",
                "f 1/1 3/3 2/2",
                "f -4//1 -3//2 -1//3",
                "f 1 4 3",
                "f 2 3 4",
                "",
            ]
        )
        path = tmp_path / "tet.obj"
        path.write_text(text)
        mesh = sg.load_mesh(path)
        np.testing.assert_array_equal(mesh.triangles[1], [0, 1, 3])

    def test_face_index_zero_rejected(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(ParseError, match=r":4: .*1-based"):
            sg.load_mesh(path)


class TestPlyFormat:
    def ply_text(self, extra_props=False):
        props = ["property float x", "property float y", "property float z"]
        if extra_props:
            props.append("property float confidence")
        lines = (
            ["ply", "format ascii 1.0", "comment synthetic", "element vertex 4"]
            + props
            + [
                "element face 4",
                "property list uchar int vertex_indices",
                "end_header",
            ]
        )
        coords = ["0 0 0", "1 0 0", "0 1 0", "0 0 1"]
        if extra_props:
            coords = [c + " 0.5" for c in coords]
        faces = ["3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3"]
        return "\n".join(lines + coords + faces) + "\n"

    def test_basic_load(self, tmp_path):
        path = tmp_path / "tet.ply"
        path.write_text(self.ply_text())
        mesh = sg.load_mesh(path)
        assert mesh.m == 4 and mesh.g == 4

    def test_extra_vertex_property_ignored(self, tmp_path):
        path = tmp_path / "tet.ply"
        path.write_text(self.ply_text(extra_props=True))
        mesh = sg.load_mesh(path)
        np.testing.assert_array_equal(mesh.vertices[1], [1.0, 0.0, 0.0])

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "bin.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(ParseError, match="ASCII"):
            sg.load_mesh(path)


class TestLoadDispatch:
    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "mesh.stl"
        path.write_text("whatever")
        with pytest.raises(ParseError, match="format"):
            sg.load_mesh(path)

    def test_explicit_fmt_overrides_extension(self, tmp_path):
        path = tmp_path / "mesh.dat"
        sg.write_mesh(tetra(), tmp_path / "tet.off")
        path.write_text((tmp_path / "tet.off").read_text())
        mesh = sg.load_mesh(path, fmt="off")
        assert mesh.m == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="no such file"):
            sg.load_mesh(tmp_path / "nope.off")


class TestSynthetic:
    @pytest.mark.parametrize("subdivisions", [0, 1, 2, 3])
    def test_sphere_vertex_count(self, subdivisions):
        mesh = sg.make_synthetic("unit_sphere", subdivisions)
        assert mesh.m == 10 * 4**subdivisions + 2
        assert mesh.g == 20 * 4**subdivisions

    def test_sphere_radii(self):
        mesh = sg.make_synthetic("unit_sphere", 3)
        radii = np.linalg.norm(mesh.vertices, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)

    def test_ellipsoid_scales_sphere(self):
        sphere = sg.make_synthetic("unit_sphere", 2)
        ell = sg.make_synthetic("ellipsoid", 2, axes=(1.3, 1.0, 0.8))
        np.testing.assert_allclose(ell.vertices, sphere.vertices * [1.3, 1.0, 0.8])
        np.testing.assert_array_equal(ell.triangles, sphere.triangles)

    def test_bumpy_radial_deviation_peaks_at_amplitude(self):
        amplitude = 0.07
        mesh = sg.make_synthetic("bumpy_sphere", 2, amplitude=amplitude, seed=11)
        radii = np.linalg.norm(mesh.vertices, axis=1)
        dev = np.abs(radii - 1.0)
        assert dev.max() == pytest.approx(amplitude, rel=1e-12)
        assert np.all(radii > 1.0 - amplitude - 1e-12)

    def test_bumpy_seed_determinism(self):
        a = sg.make_synthetic("bumpy_sphere", 1, seed=4)
        b = sg.make_synthetic("bumpy_sphere", 1, seed=4)
        c = sg.make_synthetic("bumpy_sphere", 1, seed=5)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        assert not np.array_equal(a.vertices, c.vertices)

    def test_invalid_params(self):
        with pytest.raises(InvalidParam, match="kind"):
            sg.make_synthetic("torus", 1)
        with pytest.raises(InvalidParam, match="subdivisions"):
            sg.make_synthetic("unit_sphere", -1)
        with pytest.raises(InvalidParam, match="axis lengths"):
            sg.make_synthetic("ellipsoid", 1, axes=(1.0, -1.0, 1.0))
        with pytest.raises(InvalidParam, match="amplitude"):
            sg.make_synthetic("bumpy_sphere", 1, amplitude=1.0)


class TestRigidTransform:
    def test_known_rotation(self):
        mesh = tetra()
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        shift = np.array([1.0, 2.0, 3.0])
        out = sg.rigid_transform(mesh, rot, shift)
        np.testing.assert_allclose(out.vertices, mesh.vertices @ rot.T + shift)
        np.testing.assert_array_equal(out.triangles, mesh.triangles)

    def test_reflection_allowed(self):
        mesh = tetra()
        flip = np.diag([-1.0, 1.0, 1.0])
        out = sg.rigid_transform(mesh, flip, np.zeros(3))
        assert out.vertices[1, 0] == -1.0

    def test_non_orthogonal_rejected(self):
        with pytest.raises(InvalidParam, match="orthogonal"):
            sg.rigid_transform(tetra(), np.diag([2.0, 1.0, 1.0]), np.zeros(3))

    def test_bad_translation_shape(self):
        rot = np.eye(3)
        with pytest.raises(InvalidParam, match="translation"):
            sg.rigid_transform(tetra(), rot, np.zeros(2))
