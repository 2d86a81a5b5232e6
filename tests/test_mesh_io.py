"""Mesh container, file formats, synthetic generators."""

import errno
import os
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgwshape as sg
import sgwshape.mesh_io as mesh_io
import sgwshape.pipeline as pipeline
from conftest import (
    make_unreadable,
    reference_icosphere,
    reference_off_bytes,
    reference_synthetic,
    triangle_areas,
    write_two_tetrahedra,
)
from sgwshape.cli import main
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

    @pytest.mark.parametrize("index", [2**63, 10**30, 10**400])
    def test_rejects_index_past_int64(self, index):
        with pytest.raises(ValidationError, match="triangle 0 references a vertex index"):
            sg.TriangleMesh(TET_VERTICES, [[0, 1, index], [0, 2, 1]])

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

    @pytest.mark.parametrize("c", [1e-60, 1e60])
    def test_rejects_a_length_scale_float64_cannot_carry(self, c):
        # at 1e-60 the a_j^3 weights underflowed to an all-zero descriptor; at
        # 1e60 they overflowed; both are refused before any arithmetic
        mesh = sg.make_synthetic("bumpy_sphere", 2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValidationError,
                match=r"^largest absolute coordinate \S+ is outside the length scale range "
                r"\[1e-40, 1e\+40\]$",
            ):
                sg.TriangleMesh(c * mesh.vertices, mesh.triangles)

    def test_rejects_an_edge_below_the_length_scale(self):
        # coordinates near 1e-39 are inside the range; edges of 1e-45 are not
        with pytest.raises(
            ValidationError,
            match=r"^shortest edge 1e-45 is outside the length scale range \[1e-40, 1e\+40\]$",
        ):
            sg.TriangleMesh(TET_VERTICES * 1e-45 + 1e-39, TET_TRIANGLES)

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

    def test_rejects_second_component(self):
        # a 12-vertex icosahedron floating beside the tetrahedron
        island = sg.make_synthetic("unit_sphere", 0)
        vertices = np.vstack([TET_VERTICES, island.vertices + 5.0])
        triangles = np.vstack([TET_TRIANGLES, island.triangles + 4])
        with pytest.raises(
            ValidationError, match=r"^mesh has 2 connected components \(vertex counts 12, 4\)$"
        ):
            sg.TriangleMesh(vertices, triangles)

    def test_component_sizes_shown_are_capped(self):
        vertices = np.random.default_rng(0).random((36, 3))
        triangles = np.arange(36).reshape(12, 3)  # twelve separate triangles
        with pytest.raises(
            ValidationError,
            match=r"^mesh has 12 connected components \(vertex counts 3(, 3){9} and 2 more\)$",
        ):
            sg.TriangleMesh(vertices, triangles)


class TestTriangleGeometry:
    def test_tetrahedron_areas(self):
        mesh = tetra()
        areas = triangle_areas(mesh)
        # three unit right triangles plus the diagonal face
        expected = np.array([0.5, 0.5, 0.5, np.sqrt(3) / 2])
        np.testing.assert_allclose(np.sort(areas), np.sort(expected), rtol=1e-14)

    @pytest.mark.parametrize("subdivisions", [2, 3])
    def test_lengths_and_area_match_the_textbook_expressions(self, subdivisions):
        # bit for bit: a sum over axis 1, and the cross product of two edges at corner 0
        mesh = sg.make_synthetic("bumpy_sphere", subdivisions, seed=1)
        p0, p1, p2 = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))
        edges, edge_sq, double_area = mesh_io._triangle_geometry(mesh.vertices, mesh.triangles)
        for got, want in zip(edges, (p2 - p1, p0 - p2, p1 - p0)):
            assert np.array_equal(got, want)
        assert np.array_equal(edge_sq, np.stack([(e**2).sum(axis=1) for e in edges], axis=1))
        assert np.array_equal(double_area, np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1))


class TestOffFormat:
    def test_round_trip(self, tmp_path):
        mesh = sg.make_synthetic("bumpy_sphere", 1, seed=3)
        path = tmp_path / "bumpy.off"
        sg.write_mesh(mesh, path)
        back = sg.load_mesh(path)
        np.testing.assert_allclose(back.vertices, mesh.vertices, rtol=1e-11, atol=1e-14)
        np.testing.assert_array_equal(back.triangles, mesh.triangles)

    def test_writer_bytes_equal_the_reference(self, tmp_path):
        mesh = sg.make_synthetic("bumpy_sphere", 3, seed=3)
        sg.write_mesh(mesh, tmp_path / "bumpy.off")
        assert (tmp_path / "bumpy.off").read_bytes() == reference_off_bytes(
            mesh.vertices, mesh.triangles
        )

    def test_encoder_bytes_equal_the_reference_on_awkward_floats(self):
        # no mesh has these coordinates; the encoder write_mesh uses takes any arrays
        vertices = np.array(
            [[-0.0, 1e-300, 1.5e300], [123456789012.5, -0.0, 1e-300], [1.5e300, 0.1, -2.5]]
        )
        written = mesh_io._off_bytes(vertices, np.array([[0, 1, 2]]))
        assert written == reference_off_bytes(vertices, [[0, 1, 2]])
        assert written.splitlines()[2:4] == [b"-0 1e-300 1.5e+300", b"123456789012 -0 1e-300"]

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


TET_VERTEX_LINES = ["0 0 0", "1 0 0", "0 1 0", "0 0 1"]
TET_FACE_LINES = ["3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3"]


def header_lines(ext, n_vertices, n_faces):
    """OFF or ASCII PLY header for an x/y/z vertex block and a face block."""
    if ext == ".off":
        return ["OFF", f"{n_vertices} {n_faces} 0"]
    return [
        "ply", "format ascii 1.0", f"element vertex {n_vertices}",
        "property float x", "property float y", "property float z",
        f"element face {n_faces}", "property list uchar int vertex_indices",
        "end_header",
    ]


def write_body(tmp_path, ext, vertex_lines, face_lines, n_vertices=None, n_faces=None):
    """Write a body under an OFF or PLY header; return (path, first body line number).

    The declared counts default to the numbers of lines given.
    """
    header = header_lines(
        ext,
        len(vertex_lines) if n_vertices is None else n_vertices,
        len(face_lines) if n_faces is None else n_faces,
    )
    path = tmp_path / f"mesh{ext}"
    path.write_text("\n".join(header + vertex_lines + face_lines) + "\n")
    return path, len(header) + 1


@pytest.mark.parametrize("ext", [".off", ".ply"])
class TestElementBody:
    """The vertex and face blocks OFF and PLY share, read by one reader."""

    def test_truncated_vertex_block(self, tmp_path, ext):
        path, _ = write_body(tmp_path, ext, TET_VERTEX_LINES[:2], [], n_vertices=4, n_faces=4)
        with pytest.raises(ParseError, match="truncated vertex data"):
            sg.load_mesh(path)

    def test_truncated_face_block(self, tmp_path, ext):
        path, _ = write_body(tmp_path, ext, TET_VERTEX_LINES, TET_FACE_LINES[:3], n_faces=4)
        with pytest.raises(ParseError, match="truncated face data"):
            sg.load_mesh(path)

    def test_face_count_mismatch(self, tmp_path, ext):
        faces = TET_FACE_LINES[:1] + ["4 0 1 3"] + TET_FACE_LINES[2:]
        path, first = write_body(tmp_path, ext, TET_VERTEX_LINES, faces)
        with pytest.raises(ParseError, match=rf":{first + 5}: face declares 4 indices, lists 3"):
            sg.load_mesh(path)

    def test_non_integer_face_index(self, tmp_path, ext):
        faces = TET_FACE_LINES[:2] + ["3 0 3 two"] + TET_FACE_LINES[3:]
        path, first = write_body(tmp_path, ext, TET_VERTEX_LINES, faces)
        with pytest.raises(ParseError, match=rf":{first + 6}: non-integer face index"):
            sg.load_mesh(path)

    @pytest.mark.parametrize("index", [2**63, 10**30])
    def test_face_index_past_int64(self, tmp_path, ext, index):
        # rejected as any other out-of-range index, with no cast warning
        errors = []
        for bad in (4, index):
            faces = TET_FACE_LINES[:2] + [f"3 0 3 {bad}"] + TET_FACE_LINES[3:]
            path, _ = write_body(tmp_path, ext, TET_VERTEX_LINES, faces)
            with pytest.raises(ValidationError, match="outside") as raised:
                sg.load_mesh(path)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    def test_short_vertex_line(self, tmp_path, ext):
        vertices = TET_VERTEX_LINES[:1] + ["1 0"] + TET_VERTEX_LINES[2:]
        path, first = write_body(tmp_path, ext, vertices, TET_FACE_LINES)
        with pytest.raises(ParseError, match=rf":{first + 1}: vertex line needs 3 values"):
            sg.load_mesh(path)

    def test_non_numeric_coordinate(self, tmp_path, ext):
        vertices = TET_VERTEX_LINES[:3] + ["0 0 one"]
        path, first = write_body(tmp_path, ext, vertices, TET_FACE_LINES)
        with pytest.raises(ParseError, match=rf":{first + 3}: non-numeric vertex coordinate"):
            sg.load_mesh(path)

    @pytest.mark.parametrize("counts", [(-1, 4), (4, -2)])
    def test_negative_count(self, tmp_path, ext, counts):
        path, _ = write_body(tmp_path, ext, TET_VERTEX_LINES, TET_FACE_LINES, *counts)
        with pytest.raises(ParseError, match=r":\d+: negative"):
            sg.load_mesh(path)


def ply_header(*declarations):
    return "\n".join(["ply", *declarations, "end_header", ""])


XYZ = ("property float x", "property float y", "property float z")
FACE = ("element face 4", "property list uchar int vertex_indices")
TET_BODY = "\n".join(TET_VERTEX_LINES + TET_FACE_LINES) + "\n"

# every input that once escaped load_mesh as a raw Python exception
MALFORMED = {
    "off-negative-count": ("bad.off", b"OFF\n-1 1 0\n"),
    "off-count-beyond-file": ("bad.off", b"OFF\n100000000000 1 0\n0 0 0\n"),
    "ply-negative-count": (
        "bad.ply", ply_header("format ascii 1.0", "element vertex -2", *XYZ).encode()
    ),
    "ply-bare-format": ("bad.ply", ply_header("format", "element vertex 4", *XYZ).encode()),
    "ply-bare-property": (
        "bad.ply", ply_header("format ascii 1.0", "element vertex 4", "property").encode()
    ),
    "ply-binary-body": (
        "bad.ply",
        ply_header("format binary_little_endian 1.0", "element vertex 3", *XYZ).encode()
        + np.arange(9, dtype="<f4").tobytes(),
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_parse_error(tmp_path, capsys, case):
    filename, content = MALFORMED[case]
    path = tmp_path / filename
    path.write_bytes(content)
    with pytest.raises(ParseError, match=r"only ASCII|malformed|negative|exceeds"):
        sg.load_mesh(path)
    assert main(["gsgw", str(path), "--out", str(tmp_path / "g.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_two_component_file_is_rejected(tmp_path, capsys):
    path = write_two_tetrahedra(tmp_path / "two.off")
    with pytest.raises(ValidationError, match=r"two.off: mesh has 2 connected components"):
        sg.load_mesh(path)
    assert main(["eigen", str(path), "--k", "2", "--out-dir", str(tmp_path / "e")]) == 2
    assert "2 connected components (vertex counts 4, 4)" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


class TestPlyHeader:
    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                ply_header("format ascii 1.0", "element vertex 4", "property float x",
                           "property float y", *FACE) + TET_BODY,
                "lacks x/y/z", id="vertex-without-z",
            ),
            pytest.param(
                ply_header("format ascii 1.0", "property float x", "element vertex 4", *XYZ)
                + TET_BODY,
                ":3: property before any element", id="property-before-element",
            ),
            pytest.param(
                "\n".join(["ply", "format ascii 1.0", "element vertex 4", *XYZ]) + "\n",
                "missing end_header", id="missing-end-header",
            ),
            pytest.param(
                ply_header("element vertex 4", *XYZ, *FACE) + TET_BODY,
                "missing format", id="missing-format",
            ),
            pytest.param(
                ply_header("format ascii 1.0", "element vertex 4 4", *XYZ) + TET_BODY,
                ":3: malformed element", id="element-extra-token",
            ),
            pytest.param(
                ply_header("format ascii 1.0", "element vertex four", *XYZ) + TET_BODY,
                ":3: non-integer element count", id="element-count-not-integer",
            ),
            pytest.param(
                ply_header("format ascii 1.0", "element edge 4", "property int a", *FACE)
                + TET_BODY,
                "no vertex element", id="no-vertex-element",
            ),
            pytest.param(
                ply_header("format ascii 1.0", "element vertex 4", *XYZ,
                           "element face 4", "property uchar flags") + TET_BODY,
                ":7: face element declares no list property", id="face-without-list",
            ),
            pytest.param(
                ply_header("format ascii 1.0", "element vertex 4", *XYZ,
                           "element face 4", "property uchar flags",
                           "property list uchar int vertex_indices")
                + "\n".join(TET_VERTEX_LINES + ["0 3 0 2 1", "0", "0 3 0 3 2", "0 3 1 2 3"]),
                ":16: face line needs 2 values", id="face-line-without-list",
            ),
            pytest.param(
                ply_header("format ascii 1.0", "element vertex 4",
                           "property list uchar float extra", *XYZ, *FACE)
                + "\n".join([f"1 9 {line}" for line in TET_VERTEX_LINES] + TET_FACE_LINES),
                ":3: vertex element declares a list property", id="vertex-list",
            ),
            pytest.param(
                ply_header("format ascii 1.0", "element vertex 4", *XYZ, "element vertex 4",
                           *XYZ, *FACE) + "\n".join(TET_VERTEX_LINES) + "\n" + TET_BODY,
                ":7: second vertex element", id="second-vertex-element",
            ),
            pytest.param(
                ply_header("format ascii 1.0", "element vertex 4", *XYZ, "element face 4",
                           "property list uchar") + TET_BODY,
                ":8: malformed property declaration", id="list-without-name",
            ),
            pytest.param(
                ply_header("format ascii 1.0", "element vertex 4", "property float x junk",
                           *XYZ[1:], *FACE) + TET_BODY,
                ":4: malformed property declaration", id="scalar-extra-token",
            ),
        ],
    )
    def test_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.ply"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            sg.load_mesh(path)

    def test_unknown_element_is_skipped(self, tmp_path):
        header = ply_header(
            "format ascii 1.0", "element vertex 4", *XYZ,
            "element edge 2", "property int vertex1", "property int vertex2", *FACE,
        )
        body = TET_VERTEX_LINES + ["0 1", "2 3"] + TET_FACE_LINES
        path = tmp_path / "edges.ply"
        path.write_text(header + "\n".join(body) + "\n")
        mesh = sg.load_mesh(path)
        np.testing.assert_array_equal(mesh.vertices, TET_VERTICES)
        np.testing.assert_array_equal(mesh.triangles, TET_TRIANGLES)


    @pytest.mark.parametrize(
        "properties, face_lines, one_call",
        [
            ((FACE[1],), TET_FACE_LINES, True),
            (("property uchar flags", FACE[1]), [f"0 {line}" for line in TET_FACE_LINES], False),
            ((FACE[1], "property uchar flags"), [f"{line} 7" for line in TET_FACE_LINES], False),
            (
                ("property uchar flags", FACE[1], "property list uchar float texcoord"),
                [f"1 {line} 2 0.5 0.5" for line in TET_FACE_LINES],
                False,
            ),
        ],
        ids=["list-alone", "scalar-before-list", "scalar-after-list", "two-lists"],
    )
    def test_face_list_is_read_at_its_position(
        self, tmp_path, monkeypatch, properties, face_lines, one_call
    ):
        # only a face element that declares its index list alone is read in one call
        header = ply_header("format ascii 1.0", "element vertex 4", *XYZ, FACE[0], *properties)
        path = tmp_path / "tet.ply"
        path.write_text(header + "\n".join(TET_VERTEX_LINES + face_lines) + "\n")
        taken = _fast_reader_spy(monkeypatch)
        mesh = sg.load_mesh(path)
        assert taken == [one_call]
        np.testing.assert_array_equal(mesh.vertices, TET_VERTICES)
        np.testing.assert_array_equal(mesh.triangles, TET_TRIANGLES)


@pytest.mark.parametrize(
    "filename, text",
    [
        ("flat.off", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n"),
        ("flat.ply", ply_header("format ascii 1.0", "element vertex 3", *XYZ, "element face 0",
                                FACE[1]) + "0 0 0\n1 0 0\n0 1 0\n"),
        ("flat.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"),
    ],
    ids=["off", "ply", "obj"],
)
def test_vertices_without_faces_need_a_triangle(tmp_path, filename, text):
    path = tmp_path / filename
    path.write_text(text)
    with pytest.raises(ValidationError) as raised:
        sg.load_mesh(path)
    assert str(raised.value) == f"{path}: need at least 1 triangle"


@pytest.mark.parametrize(
    "filename, text, message",
    [
        ("empty.off", "", ":1: empty file"),
        ("bare.off", "OFF\n", ":1: missing vertex/face counts"),
        ("short.off", "OFF\n3\n", ":2: expected 'nv nf ne' counts"),
        ("short.obj", "v 0 0\n", ":1: vertex record needs 3 coordinates"),
        ("text.obj", "v 0 0 x\n", ":1: non-numeric vertex coordinate"),
        ("ref.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf x/1 2 3\n", ":4: bad face reference 'x/1'"),
        ("normals.obj", "vn 0 0 1\n", ": no vertex records found"),
        ("magic.ply", "plyx\nformat ascii 1.0\n", ":1: expected 'ply' magic"),
        ("keyword.ply", ply_header("format ascii 1.0", "bogus") + TET_BODY,
         ":3: unexpected header keyword 'bogus'"),
        ("edges.ply", ply_header("format ascii 1.0", "element vertex 4", *XYZ, *FACE,
                                 "element edge 2", "property int vertex1",
                                 "property int vertex2") + TET_BODY + "0 1\n",
         ": truncated edge data"),
    ],
    ids=["empty", "no-counts", "one-count", "obj-short-vertex", "obj-text-coordinate",
         "obj-bad-reference", "obj-no-vertices", "ply-magic", "ply-keyword", "ply-edges"],
)
def test_parse_error_text(tmp_path, filename, text, message):
    path = tmp_path / filename
    path.write_text(text)
    with pytest.raises(ParseError) as raised:
        sg.load_mesh(path)
    assert str(raised.value) == f"{path}{message}"


def _outcome(path):
    """("ok", vertex bytes, triangle bytes) or (error type, message) of loading path."""
    try:
        mesh = sg.load_mesh(path)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", mesh.vertices.tobytes(), mesh.triangles.tobytes()


def _line_reader_outcome(path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(mesh_io, "_read_triangle_body", lambda body, elements: None)
        return _outcome(path)


def _fast_reader_spy(monkeypatch):
    """Record, per body, whether the one-call reader took it."""
    taken = []
    real = mesh_io._read_triangle_body

    def spy(body, elements):
        arrays = real(body, elements)
        taken.append(arrays is not None)
        return arrays

    monkeypatch.setattr(mesh_io, "_read_triangle_body", spy)
    return taken


class TestOneCallBody:
    """The one-call body reader returns the line reader's arrays or steps aside."""

    @pytest.mark.parametrize("ext, extra", [(".off", False), (".ply", False), (".ply", True)])
    def test_bitwise_equal_to_line_reader(self, tmp_path, monkeypatch, ext, extra):
        mesh = sg.make_synthetic("bumpy_sphere", 2, seed=4)
        rng = np.random.default_rng(0)
        coords = mesh.vertices * 10.0 ** rng.integers(-30, 30)
        formats = [repr, "{:.12g}".format, "{:.3e}".format]
        vertex_lines = [
            " ".join(formats[i % 3](float(x)) for x in row) + (" 0.5" if extra else "")
            for i, row in enumerate(coords)
        ]
        face_lines = ["3 {} {} {}".format(*tri) for tri in mesh.triangles]
        header = header_lines(ext, mesh.m, mesh.g)
        if extra:
            header.insert(6, "property float confidence")
        path = tmp_path / f"mesh{ext}"
        path.write_text("\n".join(header + vertex_lines + face_lines) + "\n")
        taken = _fast_reader_spy(monkeypatch)
        fast = _outcome(path)
        assert taken == [True]
        assert fast[0] == "ok"
        assert fast == _line_reader_outcome(path, monkeypatch)

    def test_every_generated_file_is_read_in_one_call(self, tmp_path, monkeypatch):
        taken = _fast_reader_spy(monkeypatch)
        # the spy records in this process, so the run's meshes are parsed here too
        monkeypatch.setattr(pipeline, "_pool_size", lambda misses: 1)
        manifest = sg.make_two_class_manifest(tmp_path, n_per_group=3, subdivisions=1)
        result = sg.run_group_comparison(
            sg.DatasetManifest.load(manifest), sg.RunConfig(k=10, R=3, pca_dims=2, n_perm=50)
        )
        assert result.strata[0].error is None
        for kind in mesh_io.SYNTHETIC_KINDS:
            for subdivisions in range(4):
                sg.write_mesh(sg.make_synthetic(kind, subdivisions), tmp_path / "one.off")
                sg.load_mesh(tmp_path / "one.off")
        assert taken == [True] * (6 + 3 * 4)

    def test_index_past_int64_gets_the_line_reader_error(self, monkeypatch):
        # numpy clamps it to the int64 maximum, int() keeps it whole: out of
        # range either way, which TriangleMesh judges for both readers
        elements = [("vertex", 4, ["x", "y", "z"], []), ("face", 4, [], [0])]
        body = TET_VERTEX_LINES + TET_FACE_LINES[:3] + [f"3 1 2 {2**63}"]
        assert mesh_io._read_triangle_body(TET_VERTEX_LINES + TET_FACE_LINES, elements)
        assert mesh_io._read_triangle_body(body, elements) is not None
        data = ("\n".join(header_lines(".off", 4, 4) + body) + "\n").encode()
        fast = _parse_outcome(data, "mesh.off")
        with monkeypatch.context() as patch:
            patch.setattr(mesh_io, "_read_triangle_body", lambda body, elements: None)
            assert fast == _parse_outcome(data, "mesh.off")
        assert fast == (
            "ValidationError", "mesh.off: triangle 3 references a vertex index outside [0, 4)"
        )

    # case -> ((vertex lines, face lines), outcome); the outcome is ("ok",) or
    # (error type, line of the error counted from the first body line or None,
    # message)
    CASES = {
        "comment": (
            (TET_VERTEX_LINES[:1] + ["1 0 0 # corner"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
            ("ok",),
        ),
        "comment-line": ((TET_VERTEX_LINES, ["# faces"] + TET_FACE_LINES), ("ok",)),
        "quad-face": (
            (TET_VERTEX_LINES, ["4 0 1 2 3"] + TET_FACE_LINES[1:]),
            ("ValidationError", None, "edge (0, 2) is shared by more than two triangles"),
        ),
        "float-face-index": (
            (TET_VERTEX_LINES, TET_FACE_LINES[:1] + ["3 0 1.0 3"] + TET_FACE_LINES[2:]),
            ("ParseError", 5, "non-integer face index"),
        ),
        "underscore-coordinate": (
            (TET_VERTEX_LINES[:1] + ["1_000 0 0"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
            ("ok",),
        ),
        "one-token-short": (
            (TET_VERTEX_LINES, TET_FACE_LINES[:3] + ["3 1 2"]),
            ("ParseError", 7, "face declares 3 indices, lists 2"),
        ),
        "one-token-long": ((TET_VERTEX_LINES, TET_FACE_LINES[:3] + ["3 1 2 3 0"]), ("ok",)),
        "trailing-junk": ((TET_VERTEX_LINES, TET_FACE_LINES + ["junk"]), ("ok",)),
        "binary-bytes": (
            (TET_VERTEX_LINES[:2] + ["\x00\xff\xfe"] + TET_VERTEX_LINES[3:], TET_FACE_LINES),
            ("ParseError", 2, "vertex line needs 3 values"),
        ),
        "nan-with-payload": (
            (TET_VERTEX_LINES[:1] + ["nan(1) 0 0"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
            ("ParseError", 1, "non-numeric vertex coordinate"),
        ),
        "vertex-break-moved": (
            (["0 0 0 1", "0 0"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
            ("ParseError", 1, "vertex line needs 3 values"),
        ),
        "face-break-moved": (
            (TET_VERTEX_LINES, ["3 0 2 1 3", "0 1 3"] + TET_FACE_LINES[2:]),
            ("ParseError", 5, "face with fewer than 3 vertices"),
        ),
        "glued-tokens": (
            (TET_VERTEX_LINES[:1] + ["1-0 0"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
            ("ParseError", 1, "vertex line needs 3 values"),
        ),
        "blank-and-tab": (
            (["0\t0  0"] + TET_VERTEX_LINES[1:] + [""], [""] + TET_FACE_LINES + [""]),
            ("ok",),
        ),
        "crlf": (
            ([line + "\r" for line in TET_VERTEX_LINES], [line + "\r" for line in TET_FACE_LINES]),
            ("ok",),
        ),
        "lone-cr": (
            (TET_VERTEX_LINES[:1] + ["1 0\r0"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
            ("ParseError", 1, "vertex line needs 3 values"),
        ),
        "vertical-tab": (
            (TET_VERTEX_LINES[:1] + ["1\v0 0"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
            ("ParseError", 1, "vertex line needs 3 values"),
        ),
        "form-feed": ((TET_VERTEX_LINES, TET_FACE_LINES[:1] + ["3 0 1 3\f"] + TET_FACE_LINES[2:]),
                      ("ok",)),
        "trailing-blanks": (
            ([line + "  " for line in TET_VERTEX_LINES], [line + " \t" for line in TET_FACE_LINES]),
            ("ok",),
        ),
        "plus-sign": ((TET_VERTEX_LINES[:1] + ["+1 0 0"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
                      ("ok",)),
        "inf-coordinate": (
            (TET_VERTEX_LINES[:1] + ["inf 0 0"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
            ("ValidationError", None, "vertex coordinates must be finite"),
        ),
        # latin-1 characters, written one byte each: this is UTF-8 for U+00A0,
        # which str.split reads as whitespace
        "no-break-space": (
            (TET_VERTEX_LINES[:1] + ["1\xc2\xa00 0"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
            ("ok",),
        ),
        "nul-byte": (
            (TET_VERTEX_LINES[:1] + ["1 0 0\x00"] + TET_VERTEX_LINES[2:], TET_FACE_LINES),
            ("ParseError", 1, "non-numeric vertex coordinate"),
        ),
    }

    @pytest.mark.parametrize("ext", [".off", ".ply"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_odd_body_keeps_line_reader_outcome(self, tmp_path, monkeypatch, ext, case):
        (vertex_lines, face_lines), expected = self.CASES[case]
        header = header_lines(ext, 4, 4)
        path = tmp_path / f"mesh{ext}"
        path.write_bytes(
            ("\n".join(header + vertex_lines + face_lines) + "\n").encode("latin-1")
        )
        got = _outcome(path)
        assert got == _line_reader_outcome(path, monkeypatch)
        if expected[0] == "ok":
            assert got[0] == "ok"
        else:
            kind, offset, text = expected
            where = "" if offset is None else f":{len(header) + 1 + offset}"
            assert got == (kind, f"{path}{where}: {text}")


def _parse_outcome(data, name):
    """_outcome of the file bytes `data`, parsed as if read from `name`."""
    try:
        mesh = mesh_io.parse_mesh(data, name)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", mesh.vertices.tobytes(), mesh.triangles.tobytes()


# whitespace str.split or str.splitlines reads, bytes numbers are made of,
# and bytes no number holds, one or more UTF-8 bytes each
_STRAY = st.sampled_from(
    [" ", "\t", "\r", "\n", "\v", "\f", "\x00", "\x85", "\xa0", "\u2028", "\ufffd",
     "#", "+", "-", ".", "e", "E", "1", "_", "x", "n"]
)
_EDIT = st.tuples(
    st.sampled_from(["drop", "duplicate", "join", "insert"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    _STRAY,
)


def _perturbed_body(ext, edits):
    """The file bytes of a bumpy sphere whose body lines took `edits`.

    Each edit drops, duplicates or joins body lines, or puts a stray byte
    into one.
    """
    mesh = sg.make_synthetic("bumpy_sphere", 0, seed=3)
    body = [" ".join(map(repr, row)) for row in mesh.vertices.tolist()]
    body += ["3 {} {} {}".format(*tri) for tri in mesh.triangles.tolist()]
    for op, at, offset, stray in edits:
        line = at % len(body) if body else 0
        if not body:
            body = [stray]
        elif op == "drop":
            del body[line]
        elif op == "duplicate":
            body.insert(line, body[line])
        elif op == "join":
            body[line : line + 2] = [stray.join(body[line : line + 2])]
        else:
            cut = offset % (len(body[line]) + 1)
            body[line] = body[line][:cut] + stray + body[line][cut:]
    return ("\n".join(header_lines(ext, mesh.m, mesh.g) + body) + "\n").encode()


def _both_readers_outcome(data, name):
    """_parse_outcome of `data`, after checking that the line reader gives it too."""
    fast = _parse_outcome(data, name)
    with mock.patch.object(mesh_io, "_read_triangle_body", lambda body, elements: None):
        assert fast == _parse_outcome(data, name)
    return fast


@settings(max_examples=300, deadline=None)
@given(ext=st.sampled_from([".off", ".ply"]), edits=st.lists(_EDIT, max_size=3))
def test_perturbed_body_keeps_line_reader_outcome(ext, edits):
    # the one-call reader must return the line reader's arrays or error, or step aside
    _both_readers_outcome(_perturbed_body(ext, edits), f"mesh{ext}")


def test_stray_exponent_is_refused_by_the_length_scale():
    # a stray "e" turns vertex 0's "-0.511228177003271" into -5.1e270, whose
    # squared edges overflowed in the geometry pass; the scale check comes first
    data = _perturbed_body(".off", [("insert", 0, 649629, "e")])
    assert data.splitlines()[2].startswith(b"-0.511228177003e271 ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = _both_readers_outcome(data, "mesh.off")
    assert outcome == (
        "ValidationError",
        "mesh.off: largest absolute coordinate 5.11e+270 is outside the length scale range "
        "[1e-40, 1e+40]",
    )


def test_one_tetrahedron_in_every_format(tmp_path):
    obj = ["v " + line for line in TET_VERTEX_LINES]
    obj += ["f " + " ".join(str(int(i) + 1) for i in line.split()[1:]) for line in TET_FACE_LINES]
    (tmp_path / "mesh.obj").write_text("\n".join(obj) + "\n")
    for ext in (".off", ".ply"):
        write_body(tmp_path, ext, TET_VERTEX_LINES, TET_FACE_LINES)
    meshes = [sg.load_mesh(tmp_path / f"mesh{ext}") for ext in (".off", ".ply", ".obj")]
    for mesh in meshes:
        assert mesh.vertices.dtype == np.float64 and mesh.triangles.dtype == np.int64
        np.testing.assert_array_equal(mesh.vertices, TET_VERTICES)
        np.testing.assert_array_equal(mesh.triangles, TET_TRIANGLES)


class TestLoadDispatch:
    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "mesh.stl"
        path.write_text("whatever")
        with pytest.raises(ParseError, match="format"):
            sg.load_mesh(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="no such file"):
            sg.load_mesh(tmp_path / "nope.off")

    @pytest.mark.parametrize("name", ["mesh.stl", "mesh"])
    def test_unknown_extension_keeps_its_message(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("whatever")
        with pytest.raises(ParseError) as raised:
            mesh_io.read_mesh_bytes(str(path))
        assert str(raised.value) == (
            f"{path}: cannot infer format from extension {Path(name).suffix!r}"
        )

    def test_directory_is_no_such_file(self, tmp_path):
        (tmp_path / "x.off").mkdir()
        with pytest.raises(ParseError) as raised:
            mesh_io.read_mesh_bytes(tmp_path / "x.off")
        assert str(raised.value) == f"{tmp_path / 'x.off'}: no such file"

    def test_nul_byte_is_no_such_file(self, tmp_path):
        path = f"{tmp_path}/x\0.off"
        with pytest.raises(ParseError) as raised:
            mesh_io.read_mesh_bytes(path)
        assert str(raised.value) == f"{Path(path)}: no such file"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_is_no_such_file_and_never_opened(self, tmp_path):
        fifo = tmp_path / "x.off"
        os.mkfifo(fifo)
        raised = []

        def read():
            try:
                mesh_io.read_mesh_bytes(fifo)
            except ParseError as exc:
                raised.append(str(exc))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(5.0)
        blocked = reader.is_alive()
        if blocked:  # it opened the FIFO and waits for a writer: let it go
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join()
        assert not blocked
        assert raised == [f"{fifo}: no such file"]

    def test_unsearchable_directory_cannot_be_read(self, tmp_path, monkeypatch):
        # as os.stat fails under a parent directory of mode 000, for any user but root
        path = tmp_path / "x.off"
        path.write_text("OFF\n")
        real_stat = os.stat

        def refusing(target, *args, **kwargs):
            if os.fspath(target) == str(path):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_stat(target, *args, **kwargs)

        monkeypatch.setattr(os, "stat", refusing)
        with pytest.raises(ParseError) as raised:
            mesh_io.read_mesh_bytes(str(path))
        assert str(raised.value) == f"{path}: cannot read (Permission denied)"

    def test_symlink_loop_cannot_be_read(self, tmp_path):
        path = tmp_path / "x.off"
        os.symlink(tmp_path / "y.off", path)
        os.symlink(path, tmp_path / "y.off")
        with pytest.raises(ParseError) as raised:
            mesh_io.read_mesh_bytes(path)
        assert str(raised.value) == f"{path}: cannot read ({os.strerror(errno.ELOOP)})"

    def test_unreadable_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.off"
        path.write_text("OFF\n")
        make_unreadable(monkeypatch, "x.off")
        with pytest.raises(ParseError) as raised:
            mesh_io.read_mesh_bytes(str(path))
        assert str(raised.value) == f"{path}: cannot read (Permission denied)"


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


class TestIcosphere:
    @pytest.mark.parametrize("subdivisions", [0, 1, 2, 3, 4, 5])
    def test_equals_the_face_loop_bitwise(self, subdivisions):
        vertices, faces = mesh_io._icosphere(subdivisions)
        old_vertices, old_faces = reference_icosphere(subdivisions)
        assert vertices.dtype == np.float64 and faces.dtype == np.int64
        assert np.array_equal(vertices, old_vertices)
        assert np.array_equal(faces, old_faces)


class TestSyntheticArguments:
    @pytest.mark.parametrize(
        "kind, kwargs, message",
        [
            ("bumpy_sphere", dict(seed=-1), "seed must be >= 0, got -1"),
            ("bumpy_sphere", dict(seed=1.5), "seed must be an integer, got 1.5"),
            ("bumpy_sphere", dict(seed=True), "seed must be an integer, got True"),
            ("bumpy_sphere", dict(subdivisions=1.5), "subdivisions must be an integer"),
            ("unit_sphere", dict(subdivisions=True), "subdivisions must be an integer"),
            ("bumpy_sphere", dict(amplitude=float("nan")), r"\|amplitude\| must be < 1, got nan"),
            ("bumpy_sphere", dict(amplitude=float("inf")), r"\|amplitude\| must be < 1, got inf"),
            ("bumpy_sphere", dict(axes=(float("inf"), 1, 1)), r"axes\) must be finite"),
            ("ellipsoid", dict(axes=(1, float("nan"), 1)), r"axes\) must be finite"),
            ("unit_sphere", dict(axes=(3, 1, 1)), "unit_sphere takes no axes"),
            ("unit_sphere", dict(amplitude=0.5), "unit_sphere takes no amplitude"),
            ("unit_sphere", dict(seed=7), "unit_sphere takes no seed"),
            ("ellipsoid", dict(amplitude=0.5), "ellipsoid takes no amplitude"),
            ("ellipsoid", dict(seed=7), "ellipsoid takes no seed"),
        ],
    )
    def test_refused(self, kind, kwargs, message):
        kwargs = {"subdivisions": 0, **kwargs}
        with pytest.raises(InvalidParam, match=message):
            sg.make_synthetic(kind, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(amplitude="0.1"), "amplitude must be a real number, got '0.1'"),
            (dict(axes=("a", 1, 1)), r"axes\[0\] must be a real number, got 'a'"),
            (dict(axes=(1, True, 1)), r"axes\[1\] must be a real number, got True"),
            (dict(amplitude=0.1 + 0j), r"amplitude must be a real number, got \(0.1\+0j\)"),
            (dict(amplitude=True), "amplitude must be a real number, got True"),
            (dict(axes=(1, 1, 10**400)), r"axes\[2\] must be finite, got 1000"),
        ],
        ids=[
            "str-amplitude", "str-axis", "bool-axis", "complex-amplitude", "bool-amplitude",
            "int-axis-past-float-range",
        ],
    )
    def test_non_real_refused(self, kwargs, message):
        with pytest.raises(InvalidParam, match=message):
            sg.make_synthetic("bumpy_sphere", 0, **kwargs)

    @pytest.mark.parametrize(
        "kind, kwargs",
        [
            ("unit_sphere", {}),
            ("ellipsoid", {}),
            ("ellipsoid", dict(axes=(1.3, 1.0, 0.8))),
            ("bumpy_sphere", {}),
            ("bumpy_sphere", dict(axes=(1.3, 1.0, 1.0), amplitude=0.1, seed=7)),
        ],
    )
    def test_mesh_is_unchanged(self, kind, kwargs):
        new, old = sg.make_synthetic(kind, 2, **kwargs), reference_synthetic(kind, 2, **kwargs)
        assert np.array_equal(new.vertices, old.vertices)
        assert np.array_equal(new.triangles, old.triangles)
