"""Triangle mesh data model, file parsers, writer, and synthetic generators.

Supported formats: ASCII OFF, Wavefront OBJ (``v``/``f`` records only) and
ASCII PLY, chosen by file extension. A PLY header must declare one vertex
element with scalar properties x, y and z and no list property, and an
index list in each face element; an OFF file is read as a PLY body under
such a header (``nv`` vertex lines of x y z, then ``nf`` face lines), so
both go through one element reader. It reads an all-triangle body in one
numpy call per block and any other body line by line, with line-numbered
errors; either way it judges only the layout. Non-triangular faces are
fan-triangulated on load; binary PLY is refused. Any malformed input
raises ParseError. TriangleMesh judges the values every loader reads, and
no mesh object skips it: finite coordinates, a length scale inside
[1e-40, 1e40], indices in range, no degenerate (zero-area) triangles, no
edge shared by more than two faces, no isolated vertices, one connected
component. Meshes with boundary are accepted.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import InvalidParam, ParseError, ValidationError, _integer, _real
from .outputs import _atomic_write_bytes

__all__ = [
    "TriangleMesh",
    "load_mesh",
    "read_mesh_bytes",
    "parse_mesh",
    "write_mesh",
    "make_synthetic",
]

# The keyword arguments each synthetic kind takes, with their defaults.
_SYNTHETIC_DEFAULTS = {
    "unit_sphere": {},
    "ellipsoid": {"axes": (1.0, 1.0, 1.0)},
    "bumpy_sphere": {"axes": (1.0, 1.0, 1.0), "amplitude": 0.05, "seed": 0},
}
SYNTHETIC_KINDS = tuple(_SYNTHETIC_DEFAULTS)

# A triangle is degenerate when twice its area falls below this fraction of
# the squared longest edge (dimensionless, scale-invariant).
_DEGENERATE_REL_TOL = 1e-12

# The largest absolute coordinate and the shortest edge lie in this range.
# The descriptor (length^4, with areas cubed inside) of bumpy spheres scaled
# by 1e-50 to 1e50 was right within 1.6e-14, and wrong past 1e-55 and 1e55
_LENGTH_SCALE = (1e-40, 1e40)

# A disconnected mesh's error names this many component sizes, largest first.
_SHOWN_COMPONENTS = 10

# The bytes a body read in one call may hold: numbers, blanks, tabs and the
# line breaks it is joined with
_BODY_BYTES = b"0123456789+-.eE \t\n"

# what a reader hands TriangleMesh for a file with no faces, so that its
# triangle count check speaks
_NO_TRIANGLES = np.empty((0, 3), dtype=np.int64)


class TriangleMesh:
    """Immutable triangle mesh: vertex positions plus triangle connectivity.

    Parameters
    ----------
    vertices : (m, 3) array_like of float
        Vertex positions, stored as float64.
    triangles : (g, 3) array_like of int
        Vertex index triples.

    Raises
    ------
    ValidationError
        Coordinate not finite, largest absolute coordinate or shortest edge
        outside [1e-40, 1e40], index out of range, repeated vertex inside a
        triangle, degenerate triangle, edge shared by more than two faces,
        isolated vertex, or more than one connected component.
    """

    # _geometry is _triangle_geometry(vertices, triangles); _edges is the
    # sorted unique edge keys i*m + j (i < j) and, per triangle side (sides
    # (0, 1), (1, 2), (2, 0) of every triangle, in three blocks), the index of
    # its edge among them. Validation computes both, and assembly reuses them
    __slots__ = ("vertices", "triangles", "_geometry", "_edges")

    def __init__(self, vertices, triangles):
        v = np.ascontiguousarray(np.asarray(vertices, dtype=np.float64))
        t_raw = np.asarray(triangles)
        # an index past int64 names no vertex; -1 keeps it out of range
        # without an invalid cast (numpy holds one past uint64 as a Python int)
        if t_raw.dtype == object:
            t_raw = np.frompyfunc(lambda x: -1 if abs(x) >= 2**63 else x, 1, 1)(t_raw)
            t_raw = t_raw.astype(np.float64)
        if not np.issubdtype(t_raw.dtype, np.integer):
            rounded = np.rint(t_raw)
            if not np.array_equal(rounded, t_raw):
                raise ValidationError("triangle indices must be integers")
            t_raw = np.where(np.abs(rounded) < 2.0**63, rounded, -1)
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
        # before any arithmetic on coordinates, which overflows past the range
        _check_length_scale("largest absolute coordinate", float(np.abs(v).max()))

        m = v.shape[0]
        if t.min() < 0 or t.max() >= m:
            bad = int(np.flatnonzero((t < 0) | (t >= m)).ravel()[0] // 3)
            raise ValidationError(f"triangle {bad} references a vertex index outside [0, {m})")
        repeated = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 2] == t[:, 0])
        if repeated.any():
            raise ValidationError(f"triangle {int(np.flatnonzero(repeated)[0])} repeats a vertex")

        geometry = _triangle_geometry(v, t)
        _, edge_sq, double_area = geometry
        degenerate = double_area <= _DEGENERATE_REL_TOL * edge_sq.max(axis=1)
        if degenerate.any():
            raise ValidationError(f"triangle {int(np.flatnonzero(degenerate)[0])} has zero area")
        # a zero edge is a degenerate triangle, named as such above
        _check_length_scale("shortest edge", math.sqrt(edge_sq.min()))

        # edge (i, j), i < j, of each triangle side as the key i*m + j, sides
        # (0, 1), (1, 2) and (2, 0) in three blocks: keys sort like the pairs,
        # and a 1-D sort is far cheaper than a row-wise one. np.unique gives the
        # sorted edge keys, each side's edge among them and each edge's sides
        g = t.shape[0]
        a = t.T.ravel()
        b = np.concatenate((a[g:], a[:g]))
        side_keys = np.minimum(a, b) * m + np.maximum(a, b)
        keys, side_edge, counts = np.unique(side_keys, return_inverse=True, return_counts=True)
        if (counts > 2).any():
            i, j = divmod(int(keys[np.argmax(counts > 2)]), m)
            raise ValidationError(f"edge ({i}, {j}) is shared by more than two triangles")

        referenced = np.zeros(m, dtype=bool)
        referenced[t.ravel()] = True
        if not referenced.all():
            raise ValidationError(f"vertex {int(np.flatnonzero(~referenced)[0])} is isolated")

        # an island adds its own spectrum to the solved window, so the
        # descriptor would change with no warning
        lo, hi = divmod(keys, m)
        adjacency = sparse.csr_matrix(
            (np.ones(keys.size), hi, np.append(0, np.cumsum(np.bincount(lo, minlength=m)))),
            shape=(m, m),
        )
        n_parts, labels = connected_components(adjacency, directed=False)
        if n_parts > 1:
            sizes = [str(size) for size in sorted(np.bincount(labels).tolist(), reverse=True)]
            shown = ", ".join(sizes[:_SHOWN_COMPONENTS])
            if n_parts > _SHOWN_COMPONENTS:
                shown += f" and {n_parts - _SHOWN_COMPONENTS} more"
            raise ValidationError(
                f"mesh has {n_parts} connected components (vertex counts {shown})"
            )

        v.setflags(write=False)
        t.setflags(write=False)
        self.vertices = v
        self.triangles = t
        self._geometry = geometry
        self._edges = (keys, side_edge)

    @property
    def m(self) -> int:
        """Vertex count."""
        return self.vertices.shape[0]

    @property
    def g(self) -> int:
        """Triangle count."""
        return self.triangles.shape[0]

    def __repr__(self):
        return f"TriangleMesh(m={self.m}, g={self.g})"


def _check_length_scale(what, value):
    """Raise ValidationError unless the length `value` lies in _LENGTH_SCALE."""
    low, high = _LENGTH_SCALE
    if not low <= value <= high:
        raise ValidationError(
            f"{what} {value:.3g} is outside the length scale range [{low:g}, {high:g}]"
        )


def _triangle_geometry(v, t):
    """Return (edges, squared edge lengths, twice the area) per triangle.

    Edge k is opposite corner k: e0 = p2 - p1, e1 = p0 - p2, e2 = p1 - p0,
    where corner k is vertex ``t[:, k]``. `edges` is that tuple of (g, 3)
    arrays, the lengths are (g, 3) with column k for edge k.
    """
    p0, p1, p2 = v[t.T]
    edges = (p2 - p1, p0 - p2, p1 - p0)
    # (x^2 + y^2) + z^2 is what a sum over axis 1 gives, in a fraction of its
    # time; column-major lengths make a reduction over each triangle cheap too
    edge_sq = np.stack([e[:, 0] ** 2 + e[:, 1] ** 2 + e[:, 2] ** 2 for e in edges]).T
    double_area = np.linalg.norm(np.cross(edges[1], edges[2]), axis=1)
    return edges, edge_sq, double_area


# ---------------------------------------------------------------------------
# parsing


def load_mesh(path) -> TriangleMesh:
    """Load and validate a triangle mesh from an OFF, OBJ, or ASCII PLY file.

    Parameters
    ----------
    path : str or Path
        The extension (``.off``, ``.obj`` or ``.ply``) picks the format.

    Raises
    ------
    ParseError
        Missing or unreadable file, unknown extension or malformed file;
        the message carries the offending line number where there is one.
    ValidationError
        Structurally invalid mesh (see TriangleMesh).
    """
    return parse_mesh(read_mesh_bytes(path), path)


def read_mesh_bytes(path) -> bytes:
    """The bytes of a mesh file whose extension names a known format."""
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"{p}: no such file")
    _parser_for(p)
    try:
        return p.read_bytes()
    except OSError as exc:
        raise ParseError(f"{p}: cannot read ({exc.strerror})") from None


def parse_mesh(data: bytes, path) -> TriangleMesh:
    """Parse and validate the bytes of a mesh file; see load_mesh.

    `path` picks the format by its extension and names the file in error
    messages; it is not read.
    """
    p = Path(path)
    parse = _parser_for(p)
    # undecodable bytes (a binary body) become malformed tokens, not a decode error
    lines = data.decode(errors="replace").splitlines()
    name = str(p)
    vertices, triangles = parse(lines, name)
    try:
        return TriangleMesh(vertices, triangles)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def write_mesh(mesh: TriangleMesh, path) -> None:
    """Write a mesh as ASCII OFF with 12 significant digits."""
    _atomic_write_bytes(path, _off_bytes(mesh.vertices, mesh.triangles))


def _off_bytes(vertices, triangles) -> bytes:
    """ASCII OFF of (m, 3) vertex positions on (g, 3) triangles, 12 significant digits.

    The positions need not make a valid mesh: a reconstruction may collapse to a point.
    """
    text = f"OFF\n{len(vertices)} {len(triangles)} 0\n"
    text += ("%.12g %.12g %.12g\n" * len(vertices)) % tuple(np.ravel(vertices).tolist())
    text += ("3 %d %d %d\n" * len(triangles)) % tuple(np.ravel(triangles).tolist())
    return text.encode()


def _fan(indices, lineno, name):
    """Fan-triangulate a polygon given as an index list."""
    if len(indices) < 3:
        raise ParseError(f"{name}:{lineno}: face with fewer than 3 vertices")
    return [(indices[0], indices[i], indices[i + 1]) for i in range(1, len(indices) - 1)]


def _significant_lines(lines, start=0):
    """Yield (lineno, tokens) for non-empty lines from `start` on, comments stripped."""
    for lineno, raw in enumerate(lines[start:], start + 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _first_line(it, name):
    """The first significant line of a file that must not be empty."""
    try:
        return next(it)
    except StopIteration:
        raise ParseError(f"{name}:1: empty file") from None


def _count(token, what, lineno, name, n_lines):
    """An element count in [0, n_lines]; each instance takes one line of the file."""
    try:
        count = int(token)
    except ValueError:
        raise ParseError(f"{name}:{lineno}: non-integer {what} count {token!r}") from None
    if count < 0:
        raise ParseError(f"{name}:{lineno}: negative {what} count {count}")
    if count > n_lines:
        raise ParseError(
            f"{name}:{lineno}: {what} count {count} exceeds the file's {n_lines} lines"
            " (truncated or corrupt file)"
        )
    return count


def _read_elements(lines, start, elements, name):
    """Read the element blocks a header declared; return (vertices, triangles).

    `lines` are the file's lines and the body starts at index `start`.
    `elements` lists (element name, count, scalar property names, positions
    of the list properties among all its properties) in file order, in the
    layout _parse_ply checks; every instance occupies one line. A vertex
    line holds its properties in declared order, of which x, y and z are
    read; a face line holds its first list property ``n i_1 .. i_n`` at its
    declared position, after the scalars declared before it, and is
    fan-triangulated; lines of other elements are skipped. An all-triangle body is read in one numpy call per
    block; any other body goes to the line reader.
    """
    arrays = _read_triangle_body(lines[start:], elements)
    if arrays is not None:
        return arrays
    return _read_element_lines(_significant_lines(lines, start), elements, name)


def _read_triangle_body(body, elements):
    """(vertices, triangles) of one vertex block and one all-triangle face block.

    `body` is the list of the body's lines. Returns None unless the face
    element declares its index list alone and the body is exactly that: no
    byte but the digits, signs, points and exponent letters of numbers,
    blanks and tabs (so no comment, no other whitespace and nothing
    str.split reads otherwise), every vertex line holding one value per
    declared property, every face line reading ``3 i j k``, nothing after
    the face block, and every value parsed by numpy as ``float()`` and
    ``int()`` would parse it. The lines are checked as one byte string: its
    tokens per line are counted with numpy, not split in Python. The line
    reader takes any other body, so whatever it rejects (with its line
    number) is unchanged. TriangleMesh judges the values, so an inf
    coordinate or an index out of range gets the line reader's error; an
    index past int64, which numpy clamps and int() keeps, is out of range
    either way.
    """
    if [kind for kind, *_ in elements] != ["vertex", "face"]:
        return None
    (_, n_vertices, props, _), (_, n_faces, face_props, face_lists) = elements
    if n_faces == 0 or face_props or face_lists != [0]:
        return None
    text = "\n".join(body).encode()
    if text.translate(None, _BODY_BYTES):
        return None
    raw = np.frombuffer(text, dtype=np.uint8)
    solid = raw > ord(" ")
    starts = solid.copy()
    starts[1:] &= ~solid[:-1]
    breaks = np.flatnonzero(raw == ord("\n"))
    per_line = np.diff(
        np.searchsorted(np.flatnonzero(starts), breaks), prepend=0, append=np.count_nonzero(starts)
    )
    filled = np.flatnonzero(per_line)
    if filled.size != n_vertices + n_faces:
        return None
    if (per_line[filled[:n_vertices]] != len(props)).any() or (
        per_line[filled[n_vertices:]] != 4
    ).any():
        return None
    split = 0 if filled[n_vertices] == 0 else breaks[filled[n_vertices] - 1] + 1
    vertex_text, face_text = text[:split], text[split:]
    with warnings.catch_warnings():
        # older numpy warns instead of raising when a block does not parse to its end
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(vertex_text, sep=" ")
            faces = np.fromstring(face_text, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    # a token numpy reads as two values changes the count
    if values.size != n_vertices * len(props) or faces.size != 4 * n_faces:
        return None
    faces = faces.reshape(n_faces, 4)
    if (faces[:, 0] != 3).any():
        return None
    return values.reshape(n_vertices, len(props))[:, [props.index(a) for a in "xyz"]], faces[:, 1:]


def _read_element_lines(it, elements, name):
    """The line reader behind _read_elements; `it` yields its (lineno, tokens)."""
    triangles = []
    # one line at a time: a block's token lists kept alive together set off
    # full-heap garbage collections
    for kind, count, props, lists in elements:
        if kind == "vertex":
            cx, cy, cz = (props.index(axis) for axis in "xyz")
            n_props = len(props)
            vertices = np.empty((count, 3))
            for i in range(count):
                lineno, tokens = _next_line(it, kind, name)
                if len(tokens) < n_props:
                    raise ParseError(f"{name}:{lineno}: vertex line needs {n_props} values")
                try:
                    vertices[i] = [float(tokens[cx]), float(tokens[cy]), float(tokens[cz])]
                except ValueError:
                    raise ParseError(f"{name}:{lineno}: non-numeric vertex coordinate") from None
        elif kind == "face":
            at = lists[0]
            for _ in range(count):
                lineno, tokens = _next_line(it, kind, name)
                if len(tokens) <= at:
                    raise ParseError(f"{name}:{lineno}: face line needs {at + 1} values")
                try:
                    n = int(tokens[at])
                    idx = [int(tok) for tok in tokens[at + 1 : at + 1 + n]]
                except ValueError:
                    raise ParseError(f"{name}:{lineno}: non-integer face index") from None
                if len(idx) != n:
                    raise ParseError(
                        f"{name}:{lineno}: face declares {n} indices, lists {len(idx)}"
                    )
                triangles.extend(_fan(idx, lineno, name))
        else:
            for _ in range(count):
                _next_line(it, kind, name)
    return vertices, triangles or _NO_TRIANGLES


def _next_line(it, kind, name):
    """The next (lineno, tokens) of a block of `kind` elements, which the file must hold."""
    try:
        return next(it)
    except StopIteration:
        raise ParseError(f"{name}: truncated {kind} data") from None


def _parse_off(lines, name):
    """OFF is a PLY body under an implicit header: 'OFF', then 'nv nf ne'."""
    it = _significant_lines(lines)
    lineno, tokens = _first_line(it, name)
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
    elements = [
        ("vertex", _count(counts[0], "vertex", lineno, name, len(lines)), ["x", "y", "z"], []),
        ("face", _count(counts[1], "face", lineno, name, len(lines)), [], [0]),
    ]
    return _read_elements(lines, lineno, elements, name)


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
    return np.asarray(vertices, dtype=np.float64), triangles or _NO_TRIANGLES


def _parse_ply(lines, name):
    it = _significant_lines(lines)
    lineno, tokens = _first_line(it, name)
    if tokens != ["ply"]:
        raise ParseError(f"{name}:{lineno}: expected 'ply' magic")

    elements = []  # (name, count, scalar property names, list property positions)
    declared_at = []  # the header line of each element
    fmt_seen = False
    for lineno, tokens in it:
        key = tokens[0]
        if key == "format":
            if len(tokens) < 2:
                raise ParseError(f"{name}:{lineno}: malformed format declaration")
            if tokens[1] != "ascii":
                raise ParseError(f"{name}:{lineno}: only ASCII PLY is supported")
            fmt_seen = True
        elif key == "comment" or key == "obj_info":
            continue
        elif key == "element":
            if len(tokens) != 3:
                raise ParseError(f"{name}:{lineno}: malformed element declaration")
            count = _count(tokens[2], "element", lineno, name, len(lines))
            elements.append((tokens[1], count, [], []))
            declared_at.append(lineno)
        elif key == "property":
            # property <type> <name>, or property list <count type> <item type> <name>
            if len(tokens) != (5 if tokens[1:2] == ["list"] else 3):
                raise ParseError(f"{name}:{lineno}: malformed property declaration")
            if not elements:
                raise ParseError(f"{name}:{lineno}: property before any element")
            _, _, props, lists = elements[-1]
            # a list property (the face indices) is read at its position
            if tokens[1] == "list":
                lists.append(len(props) + len(lists))
            else:
                props.append(tokens[-1])
        elif key == "end_header":
            break
        else:
            raise ParseError(f"{name}:{lineno}: unexpected header keyword {key!r}")
    else:
        raise ParseError(f"{name}: missing end_header")
    if not fmt_seen:
        raise ParseError(f"{name}: missing format declaration")
    # the layout both body readers assume: one vertex element of scalars
    # x, y and z among others, and an index list in each face element
    vertex_seen = False
    for (kind, _, props, lists), at in zip(elements, declared_at):
        if kind == "vertex":
            if vertex_seen:
                raise ParseError(f"{name}:{at}: second vertex element")
            if lists:
                raise ParseError(f"{name}:{at}: vertex element declares a list property")
            if not {"x", "y", "z"} <= set(props):
                raise ParseError(f"{name}:{at}: vertex element lacks x/y/z properties")
            vertex_seen = True
        elif kind == "face" and not lists:
            raise ParseError(f"{name}:{at}: face element declares no list property")
    if not vertex_seen:
        raise ParseError(f"{name}: no vertex element")
    return _read_elements(lines, lineno, elements, name)


_PARSERS = {".off": _parse_off, ".obj": _parse_obj, ".ply": _parse_ply}


def _parser_for(p: Path):
    parse = _PARSERS.get(p.suffix.lower())
    if parse is None:
        raise ParseError(f"{p}: cannot infer format from extension {p.suffix!r}")
    return parse


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
    """Icosahedron subdivided `subdivisions` times, projected to the unit sphere.

    Each level splits every face (a, b, c) into (a, ab, ca), (b, bc, ab),
    (c, ca, bc) and (ab, bc, ca), in face order. The midpoints of the edges
    (a, b), (b, c), (c, a), taken face by face, are numbered after the old
    vertices in order of first appearance, so an edge shared by two faces
    gets the number its first face gives it.

    Each point is divided by the square root of its BLAS dot product with
    itself, which is how ``np.linalg.norm`` measures one row; ``matmul`` of a
    (n, 1, 3) by a (n, 3, 1) stack makes that dot call once per row. An
    axis-wise norm, a sum of squares or ``einsum`` round differently in the
    last bit (OpenBLAS's 3-element dot fuses its multiply-adds): on 324 to
    556 of the 642 vertices at 3 subdivisions, which would change every
    generated file.
    """

    def project(x):
        return x / np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, :, 0]

    vertices = project(_ICOSAHEDRON_VERTICES)
    faces = _ICOSAHEDRON_FACES.copy()
    for _ in range(subdivisions):
        n = len(vertices)
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = edges.min(axis=1) * n + edges.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        # number the distinct edges by where each first appears
        rank = np.argsort(np.argsort(first))
        ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
        a, b, c = faces.T
        new = edges[np.sort(first)]
        vertices = np.concatenate([vertices, project(vertices[new[:, 0]] + vertices[new[:, 1]])])
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return vertices, faces


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
    axes=None,
    amplitude: float | None = None,
    seed: int | None = None,
) -> TriangleMesh:
    """Generate a deterministic synthetic test mesh.

    Parameters
    ----------
    kind : {"unit_sphere", "ellipsoid", "bumpy_sphere"}
        ``unit_sphere`` is an icosphere with ``10 * 4**subdivisions + 2``
        vertices on the unit sphere and takes none of the keyword
        arguments. ``ellipsoid`` scales the axes by `axes` and takes only
        `axes`. ``bumpy_sphere`` adds a smooth seeded radial perturbation of
        relative size `amplitude` before applying `axes`, and takes all
        three. A keyword argument the kind does not take is refused.
    subdivisions : int
        Icosphere refinement level, >= 0.
    axes : 3-tuple of finite positive floats, default (1, 1, 1)
    amplitude : finite float, default 0.05
        Relative bump height, |amplitude| < 1.
    seed : int, default 0
        Bump field seed, >= 0; the output is a pure function of all arguments.
    """
    settings = _synthetic_settings(kind, axes=axes, amplitude=amplitude, seed=seed)
    subdivisions = _integer("subdivisions", subdivisions, 0)
    vertices, faces = _icosphere(subdivisions)
    if kind == "bumpy_sphere":
        radius = 1.0 + settings["amplitude"] * _bump_field(vertices, settings["seed"])
        vertices = vertices * radius[:, None]
    if "axes" in settings:
        vertices = vertices * settings["axes"]
    return TriangleMesh(vertices, faces)


def _synthetic_settings(kind, axes=None, amplitude=None, seed=None) -> dict:
    """The keyword arguments `kind` takes, checked, with defaults for those not given.

    None means not given; a given argument that `kind` does not take is
    refused. See make_synthetic.
    """
    if kind not in SYNTHETIC_KINDS:
        raise InvalidParam(f"unknown synthetic kind {kind!r}; expected one of {SYNTHETIC_KINDS}")
    settings = dict(_SYNTHETIC_DEFAULTS[kind])
    for name, value in (("axes", axes), ("amplitude", amplitude), ("seed", seed)):
        if value is not None:
            if name not in settings:
                raise InvalidParam(f"{kind} takes no {name}, got {value!r}")
            settings[name] = value
    if "axes" in settings:
        given = np.asarray(settings["axes"], dtype=object)
        if given.shape != (3,):
            raise InvalidParam(f"axes must be a 3-tuple, got shape {given.shape}")
        settings["axes"] = tuple(_real(f"axes[{i}]", a) for i, a in enumerate(given))
        if not all(0.0 < a < math.inf for a in settings["axes"]):  # refuses NaN too
            raise InvalidParam(
                f"axis lengths (axes) must be finite and positive, got {settings['axes']}"
            )
    if "amplitude" in settings:
        settings["amplitude"] = _real("amplitude", settings["amplitude"])
        if not abs(settings["amplitude"]) < 1.0:  # refuses NaN too
            raise InvalidParam(f"|amplitude| must be < 1, got {settings['amplitude']}")
    if "seed" in settings:
        settings["seed"] = _integer("seed", settings["seed"], 0)
    return settings
