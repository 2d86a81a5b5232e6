"""Triangle mesh data model, file parsers, writer, and synthetic generators.

Supported formats: ASCII OFF, Wavefront OBJ (``v``/``f`` records only) and
ASCII PLY. Non-triangular faces are fan-triangulated on load; binary PLY is
out of scope. All loaders validate the result: indices in range, no
degenerate (zero-area) triangles, no edge shared by more than two faces,
no isolated vertices. Meshes with boundary are accepted.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParam, ParseError, ValidationError

__all__ = [
    "MeshProvenance",
    "TriangleMesh",
    "load_mesh",
    "write_mesh",
    "make_synthetic",
    "rigid_transform",
]

MESH_FORMATS = ("off", "obj", "ply", "synthetic")
SYNTHETIC_KINDS = ("unit_sphere", "ellipsoid", "bumpy_sphere")

_EXTENSION_FORMATS = {".off": "off", ".obj": "obj", ".ply": "ply"}

# A triangle is degenerate when twice its area falls below this fraction of
# the squared longest edge (dimensionless, scale-invariant).
_DEGENERATE_REL_TOL = 1e-12

_ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class MeshProvenance:
    """Where a mesh came from: source path and format, verbatim."""

    source_path: str
    fmt: str

    def __post_init__(self):
        if self.fmt not in MESH_FORMATS:
            raise InvalidParam(f"unknown mesh format {self.fmt!r}; expected one of {MESH_FORMATS}")


class TriangleMesh:
    """Immutable triangle mesh: vertex positions plus triangle connectivity.

    Parameters
    ----------
    vertices : (m, 3) array_like of float
        Vertex positions, stored as float64.
    triangles : (g, 3) array_like of int
        Vertex index triples.
    provenance : MeshProvenance, optional
    check_degenerate : bool
        Reject zero-area triangles. Leave enabled for loaded and generated
        meshes; spectral reconstructions at small truncations are degenerate
        by design and disable it.

    Raises
    ------
    ValidationError
        Index out of range, repeated vertex inside a triangle, degenerate
        triangle, edge shared by more than two faces, or isolated vertex.
    """

    __slots__ = ("vertices", "triangles", "provenance", "_hash")

    def __init__(self, vertices, triangles, provenance=None, check_degenerate=True):
        v = np.ascontiguousarray(np.asarray(vertices, dtype=np.float64))
        t_raw = np.asarray(triangles)
        if not np.issubdtype(t_raw.dtype, np.integer):
            rounded = np.rint(t_raw)
            if not np.array_equal(rounded, t_raw):
                raise ValidationError("triangle indices must be integers")
            t_raw = rounded
        t = np.ascontiguousarray(t_raw.astype(np.int64))

        if v.ndim != 2 or v.shape[1] != 3:
            raise ValidationError(f"vertices must be (m, 3), got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValidationError(f"triangles must be (g, 3), got {t.shape}")
        if v.shape[0] < 3:
            raise ValidationError(f"need at least 3 vertices, got {v.shape[0]}")
        if t.shape[0] < 1:
            raise ValidationError("need at least 1 triangle")
        if not np.isfinite(v).all():
            raise ValidationError("vertex coordinates must be finite")

        m = v.shape[0]
        if t.min() < 0 or t.max() >= m:
            bad = int(np.flatnonzero((t < 0) | (t >= m)).ravel()[0] // 3)
            raise ValidationError(f"triangle {bad} references a vertex index outside [0, {m})")
        repeated = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 2] == t[:, 0])
        if repeated.any():
            raise ValidationError(f"triangle {int(np.flatnonzero(repeated)[0])} repeats a vertex")

        if check_degenerate:
            double_area, max_edge_sq = _triangle_shape_measures(v, t)
            degenerate = double_area <= _DEGENERATE_REL_TOL * max_edge_sq
            if degenerate.any():
                raise ValidationError(
                    f"triangle {int(np.flatnonzero(degenerate)[0])} has zero area"
                )

        edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
        # edge (i, j), i < j, as the key i*m + j: keys sort like the pairs,
        # and a 1-D unique is far cheaper than a row-wise one
        keys, counts = np.unique(edges[:, 0] * m + edges[:, 1], return_counts=True)
        if (counts > 2).any():
            i, j = divmod(int(keys[np.argmax(counts > 2)]), m)
            raise ValidationError(f"edge ({i}, {j}) is shared by more than two triangles")

        referenced = np.zeros(m, dtype=bool)
        referenced[t.ravel()] = True
        if not referenced.all():
            raise ValidationError(f"vertex {int(np.flatnonzero(~referenced)[0])} is isolated")

        v.setflags(write=False)
        t.setflags(write=False)
        self.vertices = v
        self.triangles = t
        self.provenance = provenance
        self._hash = None

    @property
    def m(self) -> int:
        """Vertex count."""
        return self.vertices.shape[0]

    @property
    def g(self) -> int:
        """Triangle count."""
        return self.triangles.shape[0]

    @property
    def content_hash(self) -> str:
        """SHA-256 over geometry and connectivity; identifies cached results."""
        if self._hash is None:
            h = hashlib.sha256()
            h.update(b"sgwshape.mesh.v1")
            h.update(np.int64([self.m, self.g]).tobytes())
            h.update(self.vertices.tobytes())
            h.update(self.triangles.tobytes())
            object.__setattr__(self, "_hash", h.hexdigest())
        return self._hash

    def triangle_areas(self) -> np.ndarray:
        """Per-triangle areas."""
        double_area, _ = _triangle_shape_measures(self.vertices, self.triangles)
        return 0.5 * double_area

    def total_area(self) -> float:
        return float(self.triangle_areas().sum())

    def with_vertices(self, vertices, check_degenerate=True) -> "TriangleMesh":
        """Same connectivity and provenance with replaced vertex positions."""
        return TriangleMesh(
            vertices, self.triangles, provenance=self.provenance, check_degenerate=check_degenerate
        )

    def __repr__(self):
        return f"TriangleMesh(m={self.m}, g={self.g})"


def _triangle_shape_measures(v, t):
    """Return (twice the area, squared longest edge) per triangle."""
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    double_area = np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)
    edge_sq = np.stack(
        [
            ((p1 - p0) ** 2).sum(axis=1),
            ((p2 - p1) ** 2).sum(axis=1),
            ((p0 - p2) ** 2).sum(axis=1),
        ]
    )
    return double_area, edge_sq.max(axis=0)


# ---------------------------------------------------------------------------
# parsing


def load_mesh(path, fmt: str | None = None) -> TriangleMesh:
    """Load and validate a triangle mesh from an OFF, OBJ, or ASCII PLY file.

    Parameters
    ----------
    path : str or Path
    fmt : {"off", "obj", "ply"}, optional
        Inferred from the file extension when omitted.

    Raises
    ------
    ParseError
        Malformed file; the message carries the offending line number.
    ValidationError
        Structurally invalid mesh (see TriangleMesh).
    """
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"{p}: no such file")
    if fmt is None:
        fmt = _EXTENSION_FORMATS.get(p.suffix.lower())
        if fmt is None:
            raise ParseError(f"{p}: cannot infer format from extension {p.suffix!r}")
    fmt = fmt.lower()
    lines = p.read_text().splitlines()
    name = str(p)
    if fmt == "off":
        vertices, triangles = _parse_off(lines, name)
    elif fmt == "obj":
        vertices, triangles = _parse_obj(lines, name)
    elif fmt == "ply":
        vertices, triangles = _parse_ply(lines, name)
    else:
        raise InvalidParam(f"unknown mesh format {fmt!r}; expected one of off/obj/ply")
    try:
        return TriangleMesh(vertices, triangles, provenance=MeshProvenance(name, fmt))
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def write_mesh(mesh: TriangleMesh, path) -> None:
    """Write a mesh as ASCII OFF with 12 significant digits."""
    lines = ["OFF", f"{mesh.m} {mesh.g} 0"]
    for x, y, z in mesh.vertices:
        lines.append(f"{x:.12g} {y:.12g} {z:.12g}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    Path(path).write_text("\n".join(lines) + "\n")


def _fan(indices, lineno, name):
    """Fan-triangulate a polygon given as an index list."""
    if len(indices) < 3:
        raise ParseError(f"{name}:{lineno}: face with fewer than 3 vertices")
    return [(indices[0], indices[i], indices[i + 1]) for i in range(1, len(indices) - 1)]


def _significant_lines(lines):
    """Yield (lineno, tokens) for non-empty lines with comments stripped."""
    for lineno, raw in enumerate(lines, 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _parse_off(lines, name):
    it = _significant_lines(lines)
    try:
        lineno, tokens = next(it)
    except StopIteration:
        raise ParseError(f"{name}:1: empty file") from None
    if tokens[0] != "OFF":
        raise ParseError(f"{name}:{lineno}: expected OFF header, got {tokens[0]!r}")
    counts = tokens[1:]
    if not counts:
        try:
            lineno, counts = next(it)
        except StopIteration:
            raise ParseError(f"{name}:{lineno}: missing vertex/face counts") from None
    if len(counts) < 2:
        raise ParseError(f"{name}:{lineno}: expected 'nv nf ne' counts")
    try:
        n_vertices, n_faces = int(counts[0]), int(counts[1])
    except ValueError:
        raise ParseError(f"{name}:{lineno}: non-integer counts {counts[:3]}") from None

    vertices = np.empty((n_vertices, 3))
    for i in range(n_vertices):
        try:
            lineno, tokens = next(it)
        except StopIteration:
            raise ParseError(f"{name}: truncated file, expected {n_vertices} vertices") from None
        if len(tokens) < 3:
            raise ParseError(f"{name}:{lineno}: vertex line needs 3 coordinates")
        try:
            vertices[i] = [float(tokens[0]), float(tokens[1]), float(tokens[2])]
        except ValueError:
            raise ParseError(f"{name}:{lineno}: non-numeric vertex coordinate") from None

    triangles = []
    for _ in range(n_faces):
        try:
            lineno, tokens = next(it)
        except StopIteration:
            raise ParseError(f"{name}: truncated file, expected {n_faces} faces") from None
        try:
            n = int(tokens[0])
            idx = [int(tok) for tok in tokens[1 : 1 + n]]
        except ValueError:
            raise ParseError(f"{name}:{lineno}: non-integer face index") from None
        if len(idx) != n:
            raise ParseError(f"{name}:{lineno}: face declares {n} vertices, lists {len(idx)}")
        triangles.extend(_fan(idx, lineno, name))
    return vertices, triangles


def _parse_obj(lines, name):
    vertices = []
    triangles = []
    for lineno, tokens in _significant_lines(lines):
        if tokens[0] == "v":
            if len(tokens) < 4:
                raise ParseError(f"{name}:{lineno}: vertex record needs 3 coordinates")
            try:
                vertices.append([float(tokens[1]), float(tokens[2]), float(tokens[3])])
            except ValueError:
                raise ParseError(f"{name}:{lineno}: non-numeric vertex coordinate") from None
        elif tokens[0] == "f":
            idx = []
            for tok in tokens[1:]:
                try:
                    ref = int(tok.split("/", 1)[0])
                except ValueError:
                    raise ParseError(f"{name}:{lineno}: bad face reference {tok!r}") from None
                if ref == 0:
                    raise ParseError(f"{name}:{lineno}: OBJ indices are 1-based, got 0")
                # negative references count back from the current vertex list
                idx.append(ref - 1 if ref > 0 else len(vertices) + ref)
            triangles.extend(_fan(idx, lineno, name))
        # all other record types (vn, vt, usemtl, ...) are ignored
    if not vertices:
        raise ParseError(f"{name}: no vertex records found")
    return np.asarray(vertices, dtype=np.float64), triangles


def _parse_ply(lines, name):
    it = _significant_lines(lines)
    try:
        lineno, tokens = next(it)
    except StopIteration:
        raise ParseError(f"{name}:1: empty file") from None
    if tokens != ["ply"]:
        raise ParseError(f"{name}:{lineno}: expected 'ply' magic")

    elements = []  # (name, count, scalar property names, has_list)
    current = None
    fmt_seen = False
    for lineno, tokens in it:
        key = tokens[0]
        if key == "format":
            if tokens[1] != "ascii":
                raise ParseError(f"{name}:{lineno}: only ASCII PLY is supported")
            fmt_seen = True
        elif key == "comment" or key == "obj_info":
            continue
        elif key == "element":
            if len(tokens) != 3:
                raise ParseError(f"{name}:{lineno}: malformed element declaration")
            try:
                count = int(tokens[2])
            except ValueError:
                raise ParseError(f"{name}:{lineno}: non-integer element count") from None
            current = {"name": tokens[1], "count": count, "props": [], "list": False}
            elements.append(current)
        elif key == "property":
            if current is None:
                raise ParseError(f"{name}:{lineno}: property before any element")
            if tokens[1] == "list":
                current["list"] = True
            else:
                current["props"].append(tokens[-1])
        elif key == "end_header":
            break
        else:
            raise ParseError(f"{name}:{lineno}: unexpected header keyword {key!r}")
    else:
        raise ParseError(f"{name}: missing end_header")
    if not fmt_seen:
        raise ParseError(f"{name}: missing format declaration")

    vertices = None
    triangles = []
    for element in elements:
        if element["name"] == "vertex":
            props = element["props"]
            try:
                cols = [props.index(axis) for axis in ("x", "y", "z")]
            except ValueError:
                raise ParseError(f"{name}: vertex element lacks x/y/z properties") from None
            vertices = np.empty((element["count"], 3))
            for i in range(element["count"]):
                try:
                    lineno, tokens = next(it)
                except StopIteration:
                    raise ParseError(f"{name}: truncated vertex data") from None
                if len(tokens) < len(props):
                    raise ParseError(f"{name}:{lineno}: short vertex line")
                try:
                    vertices[i] = [float(tokens[c]) for c in cols]
                except ValueError:
                    raise ParseError(f"{name}:{lineno}: non-numeric vertex coordinate") from None
        elif element["name"] == "face":
            for _ in range(element["count"]):
                try:
                    lineno, tokens = next(it)
                except StopIteration:
                    raise ParseError(f"{name}: truncated face data") from None
                try:
                    n = int(tokens[0])
                    idx = [int(tok) for tok in tokens[1 : 1 + n]]
                except ValueError:
                    raise ParseError(f"{name}:{lineno}: non-integer face index") from None
                if len(idx) != n:
                    raise ParseError(f"{name}:{lineno}: face declares {n} indices, lists {len(idx)}")
                triangles.extend(_fan(idx, lineno, name))
        else:
            # unknown element: its instances occupy one line each
            for _ in range(element["count"]):
                try:
                    next(it)
                except StopIteration:
                    raise ParseError(f"{name}: truncated {element['name']} data") from None
    if vertices is None:
        raise ParseError(f"{name}: no vertex element")
    return vertices, triangles


# ---------------------------------------------------------------------------
# synthetic shapes


_PHI = (1.0 + math.sqrt(5.0)) / 2.0

_ICOSAHEDRON_VERTICES = np.array(
    [
        [-1.0, _PHI, 0.0], [1.0, _PHI, 0.0], [-1.0, -_PHI, 0.0], [1.0, -_PHI, 0.0],
        [0.0, -1.0, _PHI], [0.0, 1.0, _PHI], [0.0, -1.0, -_PHI], [0.0, 1.0, -_PHI],
        [_PHI, 0.0, -1.0], [_PHI, 0.0, 1.0], [-_PHI, 0.0, -1.0], [-_PHI, 0.0, 1.0],
    ]
)

_ICOSAHEDRON_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)

# Exponent triples of the smooth radial bump basis (monomials of total
# degree 1..3 restricted to the unit sphere), in a fixed order.
_BUMP_EXPONENTS = [
    (a, b, c)
    for total in (1, 2, 3)
    for a in range(total + 1)
    for b in range(total - a + 1)
    for c in [total - a - b]
]


def _icosphere(subdivisions: int):
    """Icosahedron subdivided `subdivisions` times, projected to the unit sphere."""
    vertices = [v / np.linalg.norm(v) for v in _ICOSAHEDRON_VERTICES]
    faces = [tuple(f) for f in _ICOSAHEDRON_FACES]
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


def _bump_field(directions: np.ndarray, seed: int) -> np.ndarray:
    """Smooth seeded radial perturbation with values normalized to [-1, 1]."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(_BUMP_EXPONENTS))
    x, y, z = directions[:, 0], directions[:, 1], directions[:, 2]
    field = np.zeros(len(directions))
    for coeff, (a, b, c) in zip(coeffs, _BUMP_EXPONENTS):
        field += coeff * x**a * y**b * z**c
    peak = np.abs(field).max()
    return field / peak if peak > 0 else field


def make_synthetic(
    kind: str,
    subdivisions: int = 3,
    *,
    axes=(1.0, 1.0, 1.0),
    amplitude: float = 0.05,
    seed: int = 0,
) -> TriangleMesh:
    """Generate a deterministic synthetic test mesh.

    Parameters
    ----------
    kind : {"unit_sphere", "ellipsoid", "bumpy_sphere"}
        ``unit_sphere`` is an icosphere with ``10 * 4**subdivisions + 2``
        vertices on the unit sphere. ``ellipsoid`` scales the axes by
        `axes`. ``bumpy_sphere`` adds a smooth seeded radial perturbation
        of relative size `amplitude` before applying `axes`.
    subdivisions : int
        Icosphere refinement level, >= 0.
    axes : 3-tuple of positive floats
    amplitude : float
        Relative bump height, |amplitude| < 1.
    seed : int
        Bump field seed; the output is a pure function of all arguments.
    """
    if kind not in SYNTHETIC_KINDS:
        raise InvalidParam(f"unknown synthetic kind {kind!r}; expected one of {SYNTHETIC_KINDS}")
    if subdivisions < 0:
        raise InvalidParam(f"subdivisions must be >= 0, got {subdivisions}")
    axes = np.asarray(axes, dtype=np.float64)
    if axes.shape != (3,):
        raise InvalidParam(f"axes must be a 3-tuple, got shape {axes.shape}")
    if (axes <= 0).any():
        raise InvalidParam(f"axis lengths must be positive, got {tuple(axes)}")
    if abs(amplitude) >= 1.0:
        raise InvalidParam(f"|amplitude| must be < 1, got {amplitude}")

    vertices, faces = _icosphere(subdivisions)
    if kind == "unit_sphere":
        pass
    elif kind == "ellipsoid":
        vertices = vertices * axes
    else:
        radius = 1.0 + amplitude * _bump_field(vertices, seed)
        vertices = vertices * radius[:, None] * axes
    provenance = MeshProvenance(f"synthetic:{kind}:s{subdivisions}:seed{seed}", "synthetic")
    return TriangleMesh(vertices, faces, provenance=provenance)


def rigid_transform(mesh: TriangleMesh, rotation, translation) -> TriangleMesh:
    """Apply ``x -> R x + t`` to every vertex; connectivity is unchanged.

    `rotation` must be orthogonal to within 1e-10; reflections (det = -1)
    are accepted.
    """
    rot = np.asarray(rotation, dtype=np.float64)
    if rot.shape != (3, 3):
        raise InvalidParam(f"rotation must be 3x3, got {rot.shape}")
    defect = np.abs(rot.T @ rot - np.eye(3)).max()
    if defect > _ORTHOGONALITY_TOL:
        raise InvalidParam(f"rotation matrix is not orthogonal (defect {defect:.3e})")
    shift = np.asarray(translation, dtype=np.float64)
    if shift.shape != (3,):
        raise InvalidParam(f"translation must be a 3-vector, got shape {shift.shape}")
    return mesh.with_vertices(mesh.vertices @ rot.T + shift, check_degenerate=False)
