"""Shared fixtures: canonical meshes and their eigen decompositions."""

import errno
import os
from pathlib import Path

import numpy as np
import pytest

import sgwshape as sg
import sgwshape.mesh_io as mesh_io

# hypothesis's pytest plugin reads mypy_extensions.TypedDict while it reports
# a failing example, and under -W error that DeprecationWarning ends the whole
# session as an INTERNALERROR. pytest puts a command-line -W ahead of the ini
# filterwarnings entries, and a test's marks ahead of both, so the one
# third-party warning is ignored by a mark on every test
_TYPEDDICT_WARNING = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict:DeprecationWarning"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_TYPEDDICT_WARNING)


def planar_grid(nx=8, ny=8, spacing=1.0, seed=None):
    """Flat rectangular patch with boundary, split into right triangles.

    Each square is cut along the same diagonal or, given a seed, along either
    of its two diagonals at random.
    """
    rng = None if seed is None else np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.arange(nx) * spacing, np.arange(ny) * spacing)
    vertices = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(nx * ny)])
    triangles = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i
            b = a + 1
            c = a + nx
            d = c + 1
            if rng is None or rng.random() < 0.5:
                triangles += [(a, b, d), (a, d, c)]
            else:
                triangles += [(a, b, c), (b, d, c)]
    return sg.TriangleMesh(vertices, triangles)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def rigid_transform(mesh, rotation, translation):
    """The mesh moved by ``x -> R x + t``; connectivity is unchanged."""
    return sg.TriangleMesh(mesh.vertices @ rotation.T + translation, mesh.triangles)


def folded_sheet(nx, ny, angle, seed=0, stretch=1.0):
    """planar_grid(nx, ny, seed=seed), random diagonals, folded along a grid line.

    The part with x past the middle column of points turns by `angle` about
    that column, a line of the grid's edges that no triangle crosses, so every
    triangle keeps its edge lengths: an exact discrete isometry of the flat
    sheet (angle 0). `stretch` scales x before the fold, which is not an
    isometry.
    """
    sheet = planar_grid(nx, ny, seed=seed)
    x, y = stretch * sheet.vertices[:, 0], sheet.vertices[:, 1]
    fold = stretch * (nx // 2)
    past = np.maximum(x - fold, 0.0)
    vertices = np.column_stack(
        [np.minimum(x, fold) + past * np.cos(angle), y, past * np.sin(angle)]
    )
    return sg.TriangleMesh(vertices, sheet.triangles)


def triangle_areas(mesh):
    """Per-triangle areas of the mesh, from the geometry pass assembly uses."""
    return 0.5 * mesh_io._triangle_geometry(mesh.vertices, mesh.triangles)[2]


def first_pairs(basis, k):
    """The basis of the first k pairs of `basis`."""
    return sg.EigenBasis(
        basis.eigenvalues[:k].copy(), basis.eigenvectors[:, :k].copy(), basis.vertex_areas,
        method=basis.method,
    )


def apply_operator(stiffness, mass, f):
    """The discrete Laplacian ``A^{-1} W`` applied to the vertex function f."""
    return (stiffness @ f) / mass.diagonal()


def write_two_tetrahedra(path):
    """Write two disjoint tetrahedra, 4 vertices each, as one OFF file."""
    tet = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    faces = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]
    lines = ["OFF", "8 8 0"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in np.vstack([tet, tet + 3.0]).tolist()]
    lines += [f"3 {i + s} {j + s} {k + s}" for s in (0, 4) for i, j, k in faces]
    path.write_text("\n".join(lines) + "\n")
    return path


def make_unreadable(monkeypatch, name):
    """Make Path.read_bytes refuse every file called name, as a mode of 000 does
    for any user but root; forked workers inherit the patch."""
    read_bytes = Path.read_bytes

    def refusing(path):
        if path.name == name:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", refusing)


def reference_icosphere(subdivisions):
    """The icosphere as a loop over faces, one midpoint at a time.

    A frozen oracle for mesh_io._icosphere: each new vertex is numbered when
    its edge is first met and divided by its ``np.linalg.norm``.
    """
    vertices = [v / np.linalg.norm(v) for v in mesh_io._ICOSAHEDRON_VERTICES]
    faces = [tuple(f) for f in mesh_io._ICOSAHEDRON_FACES]
    for _ in range(subdivisions):
        midpoint = {}

        def split(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                mid = vertices[a] + vertices[b]
                vertices.append(mid / np.linalg.norm(mid))
                midpoint[key] = len(vertices) - 1
            return midpoint[key]

        next_faces = []
        for a, b, c in faces:
            ab, bc, ca = split(a, b), split(b, c), split(c, a)
            next_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = next_faces
    return np.asarray(vertices), np.asarray(faces, dtype=np.int64)


def reference_off_bytes(vertices, triangles):
    """The OFF bytes write_mesh writes for these arrays, one f-string per line."""
    lines = ["OFF", f"{len(vertices)} {len(triangles)} 0"]
    lines += [f"{x:.12g} {y:.12g} {z:.12g}" for x, y, z in np.asarray(vertices).tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in np.asarray(triangles).tolist()]
    return ("\n".join(lines) + "\n").encode()


def reference_synthetic(kind, subdivisions, axes=(1.0, 1.0, 1.0), amplitude=0.05, seed=0):
    """make_synthetic's mesh, by its arithmetic written out.

    unit_sphere uses none of the keyword arguments, ellipsoid only `axes`.
    """
    vertices, faces = reference_icosphere(subdivisions)
    if kind == "ellipsoid":
        vertices = vertices * np.asarray(axes, dtype=np.float64)
    elif kind == "bumpy_sphere":
        radius = 1.0 + amplitude * mesh_io._bump_field(vertices, seed)
        vertices = vertices * radius[:, None] * np.asarray(axes, dtype=np.float64)
    return sg.TriangleMesh(vertices, faces)


@pytest.fixture(scope="session")
def icosphere2():
    return sg.make_synthetic("unit_sphere", 2)


@pytest.fixture(scope="session")
def icosphere3():
    return sg.make_synthetic("unit_sphere", 3)


@pytest.fixture(scope="session")
def bumpy2():
    return sg.make_synthetic("bumpy_sphere", 2, seed=5)


@pytest.fixture(scope="session")
def icosphere2_basis(icosphere2):
    stiffness, mass = sg.laplacian_matrices(icosphere2)
    return sg.solve_eigen(stiffness, mass, 31)


@pytest.fixture(scope="session")
def icosphere3_basis(icosphere3):
    stiffness, mass = sg.laplacian_matrices(icosphere3)
    return sg.solve_eigen(stiffness, mass, 31)


@pytest.fixture(scope="session")
def bumpy2_basis(bumpy2):
    stiffness, mass = sg.laplacian_matrices(bumpy2)
    return sg.solve_eigen(stiffness, mass, 31)


@pytest.fixture
def grid_mesh():
    return planar_grid()
