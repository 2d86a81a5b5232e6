"""Batch orchestration: manifest in, per-stratum comparison report out.

A manifest CSV (header ``path,subject,group,bone,side``) lists one mesh
per row. Rows sharing a (bone, side) pair form a stratum; each stratum is
analyzed independently: global descriptors of its meshes, then the PCA +
MANOVA + permutation chain. Failures stay local to their stratum and are
recorded in the report instead of aborting the run.

A run first reduces each mesh file of its two-group strata, once, to a
spectral summary (eigenvalues, area weights and total area, see ``gsgw``).
The run's own process reads, hashes and looks up every such file in the
cache and serves the hits; it keeps no mesh bytes. The misses are then
solved, each from its file read anew: in forked worker processes, one per
usable CPU and at most one per miss, when there are at least two of both on
Linux; else one after another in the run's process. A run is one
one-thread OpenBLAS region, from its first cache lookup to its last
comparison: every solve runs at one thread, in a worker or not, so no report
depends on the worker count (``taskset`` sets it) and the workers' BLAS
threads never outnumber the cores, and the counts are put back once, when
the run returns. The run then walks the strata once, in sorted order, and
compares each one's cells. Every descriptor follows in closed form from a
summary, g = K w (see ``gsgw``): a stratum evaluates each shape's kernel
bank once per k of the grid, at its largest R, and every (R, k) cell takes
the product over a prefix of those rows, so a sweep costs O(pk) per shape
and cell after each file's one solve. Summaries are cached under the
SHA-256 of the mesh file's bytes plus lumping and solver method, one
fixed-layout blob each (a key line, then 2K+1 float64 values), with atomic
write-then-rename updates; a summary stored at K pairs serves any k <= K,
and a blob of any other shape, or of values no solve writes (see
_summary_for_path), is a miss. A rerun
against a warm cache parses no mesh and performs no eigensolves. Its reports
are byte-identical to a cold run's when the cache was filled at the same k,
or when every mesh takes the dense route. A sparse-route blob of K > k pairs
is not: the sparse solver's first k pairs depend in the last bits on how
many it solves, so they differ from those of a fresh k-pair solve.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import stats
from .eigen import SOLVER_METHODS, _one_blas_thread, solve_eigen
from .errors import (
    NUMERICAL_ERRORS,
    InvalidParam,
    ParseError,
    SgwError,
    ValidationError,
    _integer,
)
from .gsgw import GsgwVector, SpectralSummary, _descriptor_into, descriptor_from_summary, summarize
from .laplacian import LUMPING_SCHEMES, laplacian_matrices
from .mesh_io import _synthetic_settings, make_synthetic, parse_mesh, read_mesh_bytes, write_mesh
from .outputs import _atomic_write_bytes, _csv_bytes, _nearest_existing
from .sgws import _kernel_rows, signature_length

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


def _csv_rows(path: Path) -> list:
    """The rows of the UTF-8 CSV file at path, a leading byte-order mark skipped.

    Decoding does not depend on the locale; bytes that are not UTF-8 are a ParseError.
    """
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return list(csv.reader(io.StringIO(text, newline="")))


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

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        p = Path(path)
        if not p.is_file():
            raise ValidationError(f"{p}: no such manifest file")
        rows = _csv_rows(p)
        if not rows:
            raise ValidationError(f"{p}: empty manifest")
        header = rows[0]
        if [h.strip() for h in header] != MANIFEST_HEADER:
            raise ValidationError(
                f"{p}: header must be {','.join(MANIFEST_HEADER)}, got {','.join(header)}"
            )
        entries = []
        for lineno, row in enumerate(rows[1:], 2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 5:
                raise ValidationError(f"{p}:{lineno}: expected 5 fields, got {len(row)}")
            mesh_path, subject, group, bone, side = (cell.strip() for cell in row)
            if side not in SIDES:
                raise ValidationError(f"{p}:{lineno}: side must be one of {SIDES}, got {side!r}")
            resolved = p.parent / mesh_path  # an absolute mesh_path replaces p.parent
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
        return cls(entries=tuple(entries))

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
    pca_dims: int = 8
    n_perm: int = 1000
    seed: int = 0
    lumping: str = "mixed"
    area_factor: bool = True
    normalize: bool = False
    method: str = "auto"
    cache_dir: str | None = None

    def __post_init__(self):
        for name, minimum in (("k", 2), ("R", 1), ("pca_dims", 1), ("n_perm", 1), ("seed", None)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        for name in ("area_factor", "normalize"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidParam(f"{name} must be True or False, got {getattr(self, name)!r}")
        if self.normalize and not self.area_factor:
            raise InvalidParam(
                "normalize needs the area factor: without it the descriptor "
                "does not depend on size, so there is nothing to divide out"
            )
        if not (self.cache_dir is None or isinstance(self.cache_dir, (str, os.PathLike))):
            raise InvalidParam(f"cache_dir must be None or a path, got {self.cache_dir!r}")
        if self.lumping not in LUMPING_SCHEMES:
            raise InvalidParam(
                f"unknown lumping {self.lumping!r}; expected one of {LUMPING_SCHEMES}"
            )
        if self.method not in SOLVER_METHODS:
            raise InvalidParam(
                f"unknown method {self.method!r}; expected one of {SOLVER_METHODS}"
            )
        if self.cache_dir is not None:
            found = _nearest_existing(self.cache_dir)  # the rule of every output path
            if not found.is_dir():
                raise InvalidParam(f"cache_dir {self.cache_dir}: {found} is not a directory")

    def science_dict(self) -> dict:
        """The parameters that determine results (reported verbatim): all but cache_dir."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "cache_dir"}


@dataclass
class RunDiagnostics:
    """In-memory counters; never written into reports.

    ``eigen_cache_hits`` counts spectral summaries served from the cache.
    """

    eigensolves: int = 0
    eigen_cache_hits: int = 0


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
        _atomic_write_bytes(path, (text + "\n").encode())

    def write_csv(self, path) -> None:
        rows = [_REPORT_COLUMNS] + [_csv_cells(stratum.row()) for stratum in self.strata]
        _atomic_write_bytes(path, _csv_bytes(rows))

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


def _cache_entry(data: bytes, cfg: RunConfig) -> tuple:
    """(blob path, head line) of the mesh file bytes `data` in cfg's cache."""
    digest = hashlib.sha256(data).hexdigest()
    cache_path = Path(cfg.cache_dir) / f"spectrum-{digest}-{cfg.lumping}-{cfg.method}.sgwc"
    # a blob copied under another file's name has another head line
    return cache_path, f"SGWSPEC2 {digest} {cfg.lumping} {cfg.method}\n".encode()


def _cached_summary(cache_path: Path, head: bytes, k: int) -> SpectralSummary | None:
    """The summary stored at cache_path under head with at least k pairs, or None on a miss."""
    try:
        blob = cache_path.read_bytes()
    except OSError:
        return None
    n_floats, ragged = divmod(len(blob) - len(head), 8)
    if not (blob.startswith(head) and not ragged and n_floats % 2 and n_floats >= 2 * k + 1):
        return None
    values = np.frombuffer(blob, dtype="<f8", offset=len(head))
    stored_k = n_floats // 2
    total_area, eigenvalues, w_area = values[0], values[1 : stored_k + 1], values[stored_k + 1 :]
    if not (
        np.isfinite(values).all()
        and total_area > 0
        and eigenvalues[0] >= 0
        and (eigenvalues[1:] >= eigenvalues[:-1]).all()
        and w_area.min() >= 0
    ):
        return None
    return SpectralSummary(eigenvalues, w_area, float(total_area))


def _summary_for_path(path, cfg: RunConfig, diagnostics: RunDiagnostics) -> SpectralSummary:
    """Spectral summary of at least cfg.k pairs of the mesh file at path.

    The cache key is the SHA-256 of the file's bytes plus lumping and
    method. A blob is one head line naming that key, then little-endian
    float64 values: the total area, K eigenvalues and K area weights. It is
    a hit only when its head line is exactly the expected one, its body
    holds 2K+1 floats with K >= cfg.k, and those are values a solve could
    have written: all finite, a total area > 0, eigenvalues that start at
    >= 0 and do not descend, and weights >= 0. A hit is returned whole
    without parsing the file. Anything else is a miss, which parses the very
    bytes that were hashed, solves exactly cfg.k pairs and replaces the blob.
    """
    data = read_mesh_bytes(path)
    if cfg.cache_dir is not None:
        cache_path, head = _cache_entry(data, cfg)
        summary = _cached_summary(cache_path, head, cfg.k)
        if summary is not None:
            diagnostics.eigen_cache_hits += 1
            return summary

    stiffness, mass = laplacian_matrices(parse_mesh(data, path), lumping=cfg.lumping)
    with _one_blas_thread():
        basis = solve_eigen(stiffness, mass, cfg.k, method=cfg.method)
    summary = summarize(basis)
    diagnostics.eigensolves += 1
    if cfg.cache_dir is not None:
        body = np.concatenate(([summary.total_area], summary.eigenvalues, summary.w_area))
        _atomic_write_bytes(cache_path, head + body.astype("<f8").tobytes())
    return summary


def _summary_or_error(path, cfg: RunConfig) -> tuple:
    """(summary of path, or the SgwError that summarising it raised; its RunDiagnostics).

    One task of a run's solves, in a worker process or in this one.
    """
    diagnostics = RunDiagnostics()
    try:
        return _summary_for_path(path, cfg, diagnostics), diagnostics
    except SgwError as exc:
        return exc, diagnostics


def _pool_size(misses: int) -> int:
    """Worker processes for a run's misses: one per usable CPU, at most one per miss.

    1 (no pool) off Linux, where fork is unsafe (macOS) or missing (Windows).
    """
    if sys.platform != "linux":
        return 1
    return min(misses, len(os.sched_getaffinity(0)))


def _solve_misses(misses: list, cfg: RunConfig) -> list:
    """_summary_or_error of each path of misses, in order.

    With _pool_size of 2 or more they run in that many forked worker
    processes, else one after another in this one. A worker that dies ends
    the run with BrokenProcessPool, and an exception other than an SgwError
    propagates; either way the pool's processes are gone when this returns.
    Only a run calls this, inside its one-thread region (see _compare_strata).
    """
    workers = _pool_size(len(misses))
    if workers < 2:
        return [_summary_or_error(path, cfg) for path in misses]
    # Forked inside the run's one-thread region, a worker inherits the count of 1
    # and the libraries found in /proc/self/maps, so it never sets a count: that
    # would re-create the OpenBLAS thread pools that fork shut down, and each new
    # thread spins for about 65 ms before it sleeps. gc.freeze keeps the
    # worker's collections off the objects it inherits, so their pages are not
    # copied.
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=gc.freeze
    )
    try:
        return list(pool.map(_summary_or_error, misses, itertools.repeat(cfg)))
    finally:
        pool.shutdown(cancel_futures=True)


def _summaries(paths, cfg: RunConfig, diagnostics: RunDiagnostics) -> dict:
    """path -> SpectralSummary, or the SgwError that summarising it raised, for each of paths.

    This process first reads, hashes and looks up each file in cfg's cache
    and serves the hits; it keeps no mesh bytes. _solve_misses then
    summarises the misses, each from the file read anew. A file whose bytes
    equal an earlier miss's is summarised after them, from the blob that
    miss wrote, so the counts in diagnostics are those of one file at a time.
    """
    summaries, misses, repeats, blobs = {}, [], [], set()
    for path in paths:
        if cfg.cache_dir is None:
            misses.append(path)
            continue
        try:
            cache_path, head = _cache_entry(read_mesh_bytes(path), cfg)
        except SgwError as exc:
            summaries[path] = exc
            continue
        summary = _cached_summary(cache_path, head, cfg.k)
        if summary is not None:
            diagnostics.eigen_cache_hits += 1
            summaries[path] = summary
        elif cache_path in blobs:
            repeats.append(path)
        else:
            blobs.add(cache_path)
            misses.append(path)
    solved = _solve_misses(misses, cfg) + [_summary_or_error(path, cfg) for path in repeats]
    for path, (summary, counts) in zip(misses + repeats, solved):
        summaries[path] = summary
        diagnostics.eigensolves += counts.eigensolves
        diagnostics.eigen_cache_hits += counts.eigen_cache_hits
    return summaries


def gsgw_for_mesh(path, cfg: RunConfig, diagnostics: RunDiagnostics | None = None) -> GsgwVector:
    """Global descriptor of the mesh file at path under cfg, using the cache when set."""
    summary = _summary_for_path(path, cfg, RunDiagnostics() if diagnostics is None else diagnostics)
    return descriptor_from_summary(
        summary.truncate(cfg.k), cfg.R, area_factor=cfg.area_factor, normalize=cfg.normalize
    )


# ---------------------------------------------------------------------------
# batch runs


def _stratum_seed(seed: int, bone: str, side: str) -> int:
    """Independent permutation seed per stratum, stable across runs."""
    digest = hashlib.sha256(f"{seed}|{bone}|{side}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _failure(base: dict, error: str, exc: SgwError) -> StratumResult:
    """The failed StratumResult that reports error, of the kind of exc."""
    kind = "numerical" if isinstance(exc, NUMERICAL_ERRORS) else "usage"
    return StratumResult(**base, error=error, error_kind=kind)


def _cell_matrices(entries, summaries: dict, grid: list, base: dict) -> list:
    """Per cell config of grid, the stratum's descriptor matrix, or the StratumResult
    of that cell's first failure.

    One walk over the entries, in manifest order. A shape's kernel rows are
    evaluated once per distinct k of the grid, at its largest R; each cell's
    row is the product over the first p(R) of them (see gsgw), written into
    the cell's (n, p) matrix, and the rows are dropped before the next shape.
    A shape's failure names its subject and stage: [load] for a stored
    ParseError or ValidationError, else [descriptor]. The first in manifest
    order wins; a matrix that stats rejects fails as a whole.
    """
    cfg = grid[0]
    R_max = max(cell_cfg.R for cell_cfg in grid)
    outcomes = [np.zeros((len(entries), signature_length(cell_cfg.R))) for cell_cfg in grid]
    cells_at_k: dict = {}
    for i, cell_cfg in enumerate(grid):
        cells_at_k.setdefault(cell_cfg.k, []).append(i)
    for row, entry in enumerate(entries):
        summary = summaries[entry.path]
        if isinstance(summary, SgwError):
            stage = "load" if isinstance(summary, (ParseError, ValidationError)) else "descriptor"
            failed = _failure(base, f"{entry.subject} [{stage}]: {summary}", summary)
            return [o if isinstance(o, StratumResult) else failed for o in outcomes]
        for k, cells in cells_at_k.items():
            live = [i for i in cells if not isinstance(outcomes[i], StratumResult)]
            if not live:
                continue
            try:
                rows = _kernel_rows(summary.eigenvalues[:k], R_max)
            except SgwError as exc:
                for i in live:
                    outcomes[i] = _failure(base, f"{entry.subject} [descriptor]: {exc}", exc)
                continue
            for i in live:
                matrix = outcomes[i]
                try:
                    _descriptor_into(
                        matrix[row], rows[: matrix.shape[1]], summary,
                        cfg.area_factor, cfg.normalize,
                    )
                except SgwError as exc:
                    outcomes[i] = _failure(base, f"{entry.subject} [descriptor]: {exc}", exc)
    labels = tuple(entry.group for entry in entries)
    for i, outcome in enumerate(outcomes):
        if not isinstance(outcome, StratumResult):
            try:
                outcomes[i] = stats.DataMatrix(outcome, labels=labels)
            except SgwError as exc:
                outcomes[i] = _failure(base, f"[stats] {exc}", exc)
    return outcomes


def _compare_strata(manifest: DatasetManifest, grid: list, solve_cfg: RunConfig):
    """The run's one walk over manifest.strata(): per cell config of grid, its strata.

    Returns one tuple of StratumResults per cell, and the RunDiagnostics.
    Before any stratum is compared, each mesh file of a stratum with two
    groups is summarised once, at solve_cfg.k pairs (see _summaries), with an
    SgwError kept in the summary's place. Each such stratum then compares
    every cell's descriptor matrix (the cells differ only in R and k) in one
    stats.compare_cells call, so its permutation masks are drawn once for
    the whole grid. A failure stays on its own cell and stratum.

    The whole walk is one _one_blas_thread region: the cache lookups, the
    worker pool, the descriptor matrices and the stats. Each OpenBLAS is set
    to one thread once and put back once, when the run returns; the regions
    of _summary_for_path and the stats' SVD are nested no-ops inside it.
    Putting the counts back re-creates the thread pools that a fork shut
    down, so that happens after the run's last BLAS call.
    """
    with _one_blas_thread():
        cfg = grid[0]
        strata = {
            key: (entries, tuple(dict.fromkeys(entry.group for entry in entries)))
            for key, entries in manifest.strata().items()
        }
        diagnostics = RunDiagnostics()
        paths = dict.fromkeys(
            entry.path
            for entries, groups in strata.values() if len(groups) == 2
            for entry in entries
        )
        summaries = _summaries(paths, solve_cfg, diagnostics)
        columns = []  # per stratum, one StratumResult per cell
        for (bone, side), (entries, groups) in strata.items():
            base = {
                "bone": bone,
                "side": side,
                "n_shapes": len(entries),
                "groups": groups,
            }
            if len(groups) != 2:
                error = f"need exactly 2 groups, found {len(groups)}: {list(groups)}"
                columns.append([StratumResult(**base, error=error, error_kind="usage")] * len(grid))
                continue
            # per cell: a DataMatrix to compare, or its finished StratumResult
            outcomes = _cell_matrices(entries, summaries, grid, base)
            live = [i for i, o in enumerate(outcomes) if isinstance(o, stats.DataMatrix)]
            compared = stats.compare_cells(
                [outcomes[i] for i in live],
                cfg.pca_dims, cfg.n_perm, _stratum_seed(cfg.seed, bone, side),
            )
            for i, result in zip(live, compared):
                outcomes[i] = (
                    _failure(base, f"[stats] {result}", result)
                    if isinstance(result, SgwError)
                    else StratumResult(**base, comparison=result)
                )
            columns.append(outcomes)
        return [tuple(column[i] for column in columns) for i in range(len(grid))], diagnostics


def run_group_comparison(manifest: DatasetManifest, cfg: RunConfig) -> RunResult:
    """Full pipeline over every (bone, side) stratum of the manifest.

    Strata are processed independently; a failure (missing group, corrupt
    mesh, numerical breakdown) is recorded on its stratum and does not
    abort the others.
    """
    (strata,), diagnostics = _compare_strata(manifest, [cfg], cfg)
    return RunResult(strata=strata, config=cfg, diagnostics=diagnostics)


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
        rows = [["R", "k", *_REPORT_COLUMNS]]
        rows += [
            [str(cell.R), str(cell.k), *_csv_cells(cell.stratum.row())] for cell in self.cells
        ]
        _atomic_write_bytes(path, _csv_bytes(rows))


def parameter_sweep(manifest: DatasetManifest, cfg: RunConfig, Rs, ks) -> SweepResult:
    """run_group_comparison over an (R, k) grid, solving each mesh once.

    Every mesh is read, eigensolved (or served from the cache) and
    summarised once at the largest k of the grid; each grid cell then takes
    its descriptors from a prefix of those summaries in memory, and each
    stratum draws its permutation masks once for every cell.
    """
    Rs = [_integer("R", r) for r in Rs]
    ks = [_integer("k", k) for k in ks]
    if not Rs or not ks:
        raise InvalidParam("sweep needs at least one R and one k")
    for name, values in (("R", Rs), ("k", ks)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise InvalidParam(f"sweep grid lists {name} = {repeated[0]} more than once")
    # RunConfig validates every cell before any mesh is loaded
    grid = [replace(cfg, R=r, k=k) for r in Rs for k in ks]

    per_cell, diagnostics = _compare_strata(manifest, grid, replace(cfg, k=max(ks)))
    cells = tuple(
        SweepCell(R=cell_cfg.R, k=cell_cfg.k, stratum=stratum)
        for cell_cfg, strata in zip(grid, per_cell)
        for stratum in strata
    )
    return SweepResult(cells=cells, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# synthetic populations


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
    n_per_group = _integer("n_per_group", n_per_group, 1)
    subdivisions = _integer("subdivisions", subdivisions, 0)
    seed = _integer("seed", seed, 0)
    _synthetic_settings("bumpy_sphere", axes=axes, amplitude=amplitude)  # before any write
    out = Path(out_dir)
    rows = []
    for c, (group, group_axes) in enumerate((("sphere", (1.0, 1.0, 1.0)), ("ellipsoid", axes))):
        for i in range(n_per_group):
            mesh = make_synthetic(
                "bumpy_sphere", subdivisions, axes=group_axes,
                amplitude=amplitude, seed=seed + c * n_per_group + i,
            )
            name = f"{group}_{i:03d}.off"
            write_mesh(mesh, out / name)
            rows.append([name, f"{group[0]}{i:03d}", group, bone, side])
    manifest_path = out / "manifest.csv"
    _atomic_write_bytes(manifest_path, _csv_bytes([MANIFEST_HEADER, *rows]))
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
    n = _integer("n", n)
    subdivisions = _integer("subdivisions", subdivisions, 0)
    mesh_seed = _integer("mesh_seed", mesh_seed, 0)
    split_seed = _integer("split_seed", split_seed, 0)
    if n < 4 or n % 2:
        raise InvalidParam(f"need an even population of at least 4, got {n}")
    out = Path(out_dir)
    first_group = set(np.random.default_rng(split_seed).permutation(n)[: n // 2].tolist())
    rows = []
    for i in range(n):
        name = f"pop_{i:03d}.off"
        mesh = make_synthetic(
            "bumpy_sphere", subdivisions, amplitude=amplitude, seed=mesh_seed + i
        )
        write_mesh(mesh, out / name)
        rows.append([name, f"p{i:03d}", "a" if i in first_group else "b", bone, side])
    rows.sort(key=lambda row: row[0])
    manifest_path = out / f"manifest_split{split_seed}.csv"
    _atomic_write_bytes(manifest_path, _csv_bytes([MANIFEST_HEADER, *rows]))
    return manifest_path
