"""Batch orchestration: manifest in, per-stratum comparison report out.

A manifest CSV (header ``path,subject,group,bone,side``) lists one mesh
per row. Rows sharing a (bone, side) pair form a stratum; each stratum is
analyzed independently: global descriptors of its meshes, then the PCA +
MANOVA + permutation chain. Failures stay local to their stratum and are
recorded in the report instead of aborting the run.

Each mesh file is loaded, eigensolved and reduced to its spectral summary
(eigenvalues plus two weight vectors, see ``gsgw``) once per run; every
descriptor then follows in closed form from a summary, so a sweep over
(R, k) costs O(pk) per shape and cell after that single pass. Summaries are
cached under a content-addressed scheme (mesh geometry hash plus lumping),
with atomic write-then-rename updates; a summary stored at K pairs serves
any k <= K. A rerun against a warm cache performs no eigensolves and
produces byte-identical reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import stats
from .eigen import solve_eigen
from .errors import (
    NUMERICAL_ERRORS,
    InvalidParam,
    SgwError,
    ValidationError,
)
from .gsgw import GsgwVector, SpectralSummary, descriptor_from_summary, summarize
from .laplacian import laplacian_matrices
from .mesh_io import TriangleMesh, load_mesh, make_synthetic, write_mesh
from .sgws import KernelConfig

__all__ = [
    "ManifestEntry",
    "DatasetManifest",
    "RunConfig",
    "StratumResult",
    "RunResult",
    "SweepCell",
    "SweepResult",
    "RunDiagnostics",
    "run_group_comparison",
    "parameter_sweep",
    "gsgw_for_mesh",
    "make_two_class_manifest",
    "make_null_manifest",
]

SIDES = ("left", "right")

MANIFEST_HEADER = ["path", "subject", "group", "bone", "side"]

SIGNIFICANCE_LEVEL = 0.05

_CACHE_MAGIC = b"SGWCACHE1\n"


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    subject: str
    group: str
    bone: str
    side: str


@dataclass(frozen=True)
class DatasetManifest:
    """Validated dataset listing; every path resolves at load time."""

    entries: tuple
    root: str

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        p = Path(path)
        if not p.is_file():
            raise ValidationError(f"{p}: no such manifest file")
        root = p.parent
        with p.open(newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{p}: empty manifest") from None
            if [h.strip() for h in header] != MANIFEST_HEADER:
                raise ValidationError(
                    f"{p}: header must be {','.join(MANIFEST_HEADER)}, got {','.join(header)}"
                )
            entries = []
            for lineno, row in enumerate(reader, 2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != 5:
                    raise ValidationError(f"{p}:{lineno}: expected 5 fields, got {len(row)}")
                mesh_path, subject, group, bone, side = (cell.strip() for cell in row)
                if side not in SIDES:
                    raise ValidationError(
                        f"{p}:{lineno}: side must be one of {SIDES}, got {side!r}"
                    )
                resolved = Path(mesh_path)
                if not resolved.is_absolute():
                    resolved = root / resolved
                if not resolved.is_file():
                    raise ValidationError(f"{p}:{lineno}: mesh file {resolved} does not exist")
                entries.append(ManifestEntry(str(resolved), subject, group, bone, side))
        if not entries:
            raise ValidationError(f"{p}: manifest has no data rows")
        seen = {}
        for entry in entries:
            key = (entry.subject, entry.bone, entry.side)
            if key in seen:
                raise ValidationError(f"{p}: duplicate (subject, bone, side) triple {key}")
            seen[key] = entry
        return cls(entries=tuple(entries), root=str(root))

    def strata(self) -> dict:
        """Entries grouped by (bone, side), keys sorted, manifest order kept."""
        grouped: dict = {}
        for entry in self.entries:
            grouped.setdefault((entry.bone, entry.side), []).append(entry)
        return {key: grouped[key] for key in sorted(grouped)}


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one batch run. Defaults follow the reference setup."""

    k: int = 31
    R: int = 30
    pca_dims: int = 18
    n_perm: int = 1000
    seed: int = 0
    lumping: str = "mixed"
    area_factor: bool = True
    normalize: bool = False
    method: str = "auto"
    cache_dir: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.k < 2:
            raise InvalidParam(f"k must be >= 2, got {self.k}")
        if self.R < 1:
            raise InvalidParam(f"R must be >= 1, got {self.R}")
        if self.pca_dims < 1:
            raise InvalidParam(f"pca_dims must be >= 1, got {self.pca_dims}")
        if self.n_perm < 1:
            raise InvalidParam(f"n_perm must be >= 1, got {self.n_perm}")
        if self.jobs < 1:
            raise InvalidParam(f"jobs must be >= 1, got {self.jobs}")

    def science_dict(self) -> dict:
        """The parameters that determine results (reported verbatim)."""
        return {
            "k": self.k,
            "R": self.R,
            "pca_dims": self.pca_dims,
            "n_perm": self.n_perm,
            "seed": self.seed,
            "lumping": self.lumping,
            "area_factor": self.area_factor,
            "normalize": self.normalize,
            "method": self.method,
        }


@dataclass
class RunDiagnostics:
    """In-memory counters; never written into reports.

    ``eigen_cache_hits`` counts spectral summaries served from the cache.
    """

    eigensolves: int = 0
    eigen_cache_hits: int = 0

    def absorb(self, other: "RunDiagnostics") -> None:
        self.eigensolves += other.eigensolves
        self.eigen_cache_hits += other.eigen_cache_hits


@dataclass(frozen=True)
class StratumResult:
    bone: str
    side: str
    n_shapes: int
    groups: tuple
    comparison: stats.GroupComparison | None = None
    error: str | None = None
    error_kind: str | None = None  # "usage" or "numerical" when error is set

    def row(self) -> dict:
        c = self.comparison
        return {
            "bone": self.bone,
            "side": self.side,
            "n_shapes": self.n_shapes,
            "groups": list(self.groups),
            "wilks_lambda": None if c is None else c.statistic,
            "manova_p": None if c is None else c.manova_p,
            "permutation_p": None if c is None else c.permutation_p,
            "manova_significant": None if c is None else c.manova_p < SIGNIFICANCE_LEVEL,
            "permutation_significant": None
            if c is None
            else c.permutation_p < SIGNIFICANCE_LEVEL,
            "n_permutations": None if c is None else c.n_permutations,
            "error": self.error,
        }


_REPORT_COLUMNS = [
    "bone",
    "side",
    "n_shapes",
    "groups",
    "wilks_lambda",
    "manova_p",
    "permutation_p",
    "manova_significant",
    "permutation_significant",
    "n_permutations",
    "error",
]


def _csv_cells(row: dict) -> list:
    """A stratum's report row as CSV cells, in _REPORT_COLUMNS order."""
    cells = []
    for col in _REPORT_COLUMNS:
        value = row[col]
        if value is None:
            cells.append("")
        elif col == "groups":
            cells.append("|".join(value))
        elif isinstance(value, bool):
            cells.append(str(value).lower())
        elif isinstance(value, float):
            cells.append(repr(value))
        elif col == "error":
            cells.append('"' + str(value).replace('"', "'") + '"')
        else:
            cells.append(str(value))
    return cells


@dataclass(frozen=True)
class RunResult:
    strata: tuple
    config: RunConfig
    diagnostics: RunDiagnostics = field(compare=False, default_factory=RunDiagnostics)

    def report_dict(self) -> dict:
        return {
            "config": self.config.science_dict(),
            "strata": [s.row() for s in self.strata],
        }

    def write_json(self, path) -> None:
        text = json.dumps(self.report_dict(), sort_keys=True, indent=2)
        _atomic_write_bytes(Path(path), (text + "\n").encode())

    def write_csv(self, path) -> None:
        lines = [",".join(_REPORT_COLUMNS)]
        lines += [",".join(_csv_cells(stratum.row())) for stratum in self.strata]
        _atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode())

    def summary_table(self) -> str:
        """Human-readable table; * marks p below the significance level."""
        header = f"{'bone':<14}{'side':<7}{'n':>3}  {'wilks':>12}  {'manova_p':>12}  {'perm_p':>12}"
        lines = [header, "-" * len(header)]
        for stratum in self.strata:
            c = stratum.comparison
            if c is None:
                lines.append(
                    f"{stratum.bone:<14}{stratum.side:<7}{stratum.n_shapes:>3}  "
                    f"skipped: {stratum.error}"
                )
                continue
            mark_m = "*" if c.manova_p < SIGNIFICANCE_LEVEL else " "
            mark_p = "*" if c.permutation_p < SIGNIFICANCE_LEVEL else " "
            lines.append(
                f"{stratum.bone:<14}{stratum.side:<7}{stratum.n_shapes:>3}  "
                f"{c.statistic:>12.6g}  {c.manova_p:>11.4g}{mark_m}  "
                f"{c.permutation_p:>11.4g}{mark_p}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# content-addressed cache


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write a temp file, then rename it over path.

    The temp name carries the process and thread ids, so concurrent writers
    of one blob (identical mesh content under two manifest paths) never
    rename each other's file away; the last rename wins, and both payloads
    are whole.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_blob(path: Path, kind: str, meta: dict, arrays: dict) -> None:
    """Versioned binary blob: magic, JSON header line, raw array bytes."""
    header = {
        "kind": kind,
        "meta": meta,
        "arrays": [
            {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
            for name, arr in arrays.items()
        ],
    }
    payload = _CACHE_MAGIC + (json.dumps(header, sort_keys=True) + "\n").encode()
    payload += b"".join(np.ascontiguousarray(arr).tobytes() for arr in arrays.values())
    _atomic_write_bytes(path, payload)


def _read_blob(path: Path, kind: str):
    """Return (meta, arrays) or None when missing/corrupt/mismatched."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if not data.startswith(_CACHE_MAGIC):
        return None
    try:
        end = data.index(b"\n", len(_CACHE_MAGIC))
        header = json.loads(data[len(_CACHE_MAGIC) : end])
        if header["kind"] != kind:
            return None
        arrays = {}
        offset = end + 1
        for spec in header["arrays"]:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(shape)
            offset += arr.nbytes
            arrays[spec["name"]] = arr
        return header["meta"], arrays
    except (KeyError, ValueError, TypeError, json.JSONDecodeError):
        return None


def _load_or_solve_summary(
    mesh: TriangleMesh, cfg: RunConfig, diagnostics: RunDiagnostics
) -> SpectralSummary:
    """Spectral summary of at least cfg.k pairs, cached by mesh hash and lumping.

    A stored summary of K >= cfg.k pairs is a hit and is returned whole; a
    miss solves exactly cfg.k pairs and replaces the stored summary.
    """
    cache_path = None
    if cfg.cache_dir is not None:
        name = f"spectrum-{mesh.content_hash}-{cfg.lumping}.sgwc"
        cache_path = Path(cfg.cache_dir) / name
        hit = _read_blob(cache_path, "spectrum")
        if hit is not None:
            meta, arrays = hit
            if (
                meta.get("mesh_hash") == mesh.content_hash
                and meta.get("lumping") == cfg.lumping
                and meta.get("k", 0) >= cfg.k
            ):
                diagnostics.eigen_cache_hits += 1
                return SpectralSummary(
                    arrays["eigenvalues"],
                    arrays["w_area"],
                    arrays["w_plain"],
                    meta["total_area"],
                    method=meta["method"],
                )

    stiffness, mass = laplacian_matrices(mesh, lumping=cfg.lumping)
    summary = summarize(solve_eigen(stiffness, mass, cfg.k, method=cfg.method))
    diagnostics.eigensolves += 1
    if cache_path is not None:
        _write_blob(
            cache_path,
            "spectrum",
            {
                "mesh_hash": mesh.content_hash,
                "lumping": cfg.lumping,
                "k": summary.k,
                "method": summary.method,
                "total_area": summary.total_area,
            },
            {
                "eigenvalues": summary.eigenvalues,
                "w_area": summary.w_area,
                "w_plain": summary.w_plain,
            },
        )
    return summary


def _descriptor(summary: SpectralSummary, cfg: RunConfig) -> GsgwVector:
    """Closed-form descriptor at cfg's (R, k) from a summary of >= cfg.k pairs."""
    summary = summary.truncate(cfg.k)
    kernel_cfg = KernelConfig.from_eigen(summary, cfg.R, area_factor=cfg.area_factor)
    return descriptor_from_summary(summary, kernel_cfg, normalize=cfg.normalize)


def gsgw_for_mesh(
    mesh: TriangleMesh, cfg: RunConfig, diagnostics: RunDiagnostics | None = None
) -> GsgwVector:
    """Global descriptor of one mesh under cfg, using the cache when set."""
    if diagnostics is None:
        diagnostics = RunDiagnostics()
    summary = _load_or_solve_summary(mesh, cfg, diagnostics)
    return _descriptor(summary, cfg)


# ---------------------------------------------------------------------------
# batch runs


def _stratum_seed(seed: int, bone: str, side: str) -> int:
    """Independent permutation seed per stratum, stable across runs."""
    digest = hashlib.sha256(f"{seed}|{bone}|{side}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _groups(entries) -> tuple:
    return tuple(dict.fromkeys(entry.group for entry in entries))


def _summarize_meshes(manifest: DatasetManifest, cfg: RunConfig):
    """Load, solve and summarise each mesh file once, at cfg.k pairs.

    Only files listed in a stratum with exactly two groups are touched.
    Returns (path -> SpectralSummary or (stage, SgwError), diagnostics): a
    failure is kept, not raised, so that every stratum listing the file
    reports it and the others still run.
    """
    paths = list(
        dict.fromkeys(
            entry.path
            for entries in manifest.strata().values()
            if len(_groups(entries)) == 2
            for entry in entries
        )
    )

    def one(path):
        local = RunDiagnostics()
        stage = "load"
        try:
            mesh = load_mesh(path)
            stage = "descriptor"
            outcome = _load_or_solve_summary(mesh, cfg, local)
        except SgwError as exc:
            outcome = (stage, exc)
        return outcome, local

    if cfg.jobs > 1 and len(paths) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(one, paths))
    else:
        outcomes = [one(path) for path in paths]
    diagnostics = RunDiagnostics()
    for _, local in outcomes:
        diagnostics.absorb(local)
    return dict(zip(paths, (outcome for outcome, _ in outcomes))), diagnostics


class _StratumFailure(Exception):
    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


def _shape_failure(subject: str, stage: str, exc: SgwError) -> _StratumFailure:
    kind = "numerical" if isinstance(exc, NUMERICAL_ERRORS) else "usage"
    return _StratumFailure(f"{subject} [{stage}]: {exc}", kind)


def _descriptor_rows(entries, summaries: dict, cfg: RunConfig) -> list:
    """Descriptor values of the stratum's entries, in order.

    Raises the first shape error annotated with subject and stage.
    """
    rows = []
    for entry in entries:
        outcome = summaries[entry.path]
        if isinstance(outcome, tuple):
            stage, exc = outcome
            raise _shape_failure(entry.subject, stage, exc) from exc
        try:
            rows.append(_descriptor(outcome, cfg).values)
        except SgwError as exc:
            raise _shape_failure(entry.subject, "descriptor", exc) from exc
    return rows


def _compare_strata(manifest: DatasetManifest, summaries: dict, cfg: RunConfig) -> tuple:
    """One StratumResult per (bone, side) stratum, from precomputed summaries."""
    results = []
    for (bone, side), entries in manifest.strata().items():
        groups = _groups(entries)
        base = {
            "bone": bone,
            "side": side,
            "n_shapes": len(entries),
            "groups": groups,
        }
        if len(groups) != 2:
            results.append(
                StratumResult(
                    **base,
                    error=f"need exactly 2 groups, found {len(groups)}: {list(groups)}",
                    error_kind="usage",
                )
            )
            continue
        try:
            data = stats.DataMatrix(
                np.vstack(_descriptor_rows(entries, summaries, cfg)),
                labels=tuple(entry.group for entry in entries),
                ids=tuple(entry.subject for entry in entries),
            )
            comparison = stats.compare_groups(
                data, cfg.pca_dims, cfg.n_perm, _stratum_seed(cfg.seed, bone, side)
            )
        except _StratumFailure as exc:
            results.append(StratumResult(**base, error=str(exc), error_kind=exc.kind))
            continue
        except SgwError as exc:
            kind = "numerical" if isinstance(exc, NUMERICAL_ERRORS) else "usage"
            results.append(
                StratumResult(**base, error=f"[stats] {exc}", error_kind=kind)
            )
            continue
        results.append(StratumResult(**base, comparison=comparison))
    return tuple(results)


def run_group_comparison(manifest: DatasetManifest, cfg: RunConfig) -> RunResult:
    """Full pipeline over every (bone, side) stratum of the manifest.

    Strata are processed independently; a failure (missing group, corrupt
    mesh, numerical breakdown) is recorded on its stratum and does not
    abort the others.
    """
    summaries, diagnostics = _summarize_meshes(manifest, cfg)
    return RunResult(
        strata=_compare_strata(manifest, summaries, cfg), config=cfg, diagnostics=diagnostics
    )


@dataclass(frozen=True)
class SweepCell:
    R: int
    k: int
    stratum: StratumResult


@dataclass(frozen=True)
class SweepResult:
    cells: tuple
    diagnostics: RunDiagnostics = field(compare=False, default_factory=RunDiagnostics)

    def write_csv(self, path) -> None:
        lines = ["R,k," + ",".join(_REPORT_COLUMNS)]
        lines += [
            ",".join([str(cell.R), str(cell.k), *_csv_cells(cell.stratum.row())])
            for cell in self.cells
        ]
        _atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode())


def parameter_sweep(manifest: DatasetManifest, cfg: RunConfig, Rs, ks) -> SweepResult:
    """run_group_comparison over an (R, k) grid, solving each mesh once.

    Every mesh is loaded, eigensolved (or read from the cache) and
    summarised once at the largest k of the grid; each grid cell then takes
    its descriptors from a prefix of those summaries in memory.
    """
    Rs = [int(r) for r in Rs]
    ks = [int(k) for k in ks]
    if not Rs or not ks:
        raise InvalidParam("sweep needs at least one R and one k")
    # RunConfig validates every cell before any mesh is loaded
    grid = [replace(cfg, R=r, k=k) for r in Rs for k in ks]

    summaries, diagnostics = _summarize_meshes(manifest, replace(cfg, k=max(ks)))
    cells = []
    for cell_cfg in grid:
        strata = _compare_strata(manifest, summaries, cell_cfg)
        cells.extend(SweepCell(R=cell_cfg.R, k=cell_cfg.k, stratum=s) for s in strata)
    return SweepResult(cells=tuple(cells), diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# synthetic populations


def _write_manifest_csv(path: Path, rows) -> None:
    lines = [",".join(MANIFEST_HEADER)]
    lines += [",".join(row) for row in rows]
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def make_two_class_manifest(
    out_dir,
    n_per_group: int = 10,
    subdivisions: int = 3,
    axes=(1.3, 1.0, 1.0),
    amplitude: float = 0.05,
    seed: int = 0,
    bone: str = "synthetic",
    side: str = "left",
) -> Path:
    """Write a two-class population (bumpy spheres vs bumpy ellipsoids).

    Class "sphere" uses unit axes; class "ellipsoid" uses `axes`. Each shape
    carries its own bump-field seed, so within-class variation comes from
    the seeded perturbations alone. Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(n_per_group):
        mesh = make_synthetic(
            "bumpy_sphere", subdivisions, axes=(1.0, 1.0, 1.0),
            amplitude=amplitude, seed=seed + i,
        )
        name = f"sphere_{i:03d}.off"
        write_mesh(mesh, out / name)
        rows.append([name, f"s{i:03d}", "sphere", bone, side])
    for i in range(n_per_group):
        mesh = make_synthetic(
            "bumpy_sphere", subdivisions, axes=axes,
            amplitude=amplitude, seed=seed + n_per_group + i,
        )
        name = f"ellipsoid_{i:03d}.off"
        write_mesh(mesh, out / name)
        rows.append([name, f"e{i:03d}", "ellipsoid", bone, side])
    manifest_path = out / "manifest.csv"
    _write_manifest_csv(manifest_path, rows)
    return manifest_path


def make_null_manifest(
    out_dir,
    n: int = 20,
    subdivisions: int = 3,
    amplitude: float = 0.05,
    mesh_seed: int = 0,
    split_seed: int = 0,
    bone: str = "synthetic",
    side: str = "left",
) -> Path:
    """Write one population of bumpy spheres under a random balanced split.

    The meshes depend only on `mesh_seed`, so reruns with different
    `split_seed` values reuse identical mesh files (and their caches); only
    the group assignment changes. Returns the manifest path, which carries
    the split seed in its name.
    """
    if n < 4 or n % 2:
        raise InvalidParam(f"need an even population of at least 4, got {n}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for i in range(n):
        name = f"pop_{i:03d}.off"
        mesh = make_synthetic(
            "bumpy_sphere", subdivisions, amplitude=amplitude, seed=mesh_seed + i
        )
        write_mesh(mesh, out / name)
        names.append(name)
    order = np.random.default_rng(split_seed).permutation(n)
    rows = []
    for rank, i in enumerate(order):
        group = "a" if rank < n // 2 else "b"
        rows.append([names[i], f"p{i:03d}", group, bone, side])
    rows.sort(key=lambda row: row[0])
    manifest_path = out / f"manifest_split{split_seed}.csv"
    _write_manifest_csv(manifest_path, rows)
    return manifest_path
