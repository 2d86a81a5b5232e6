"""Batch orchestration: manifest in, per-stratum comparison report out.

A manifest CSV (header ``path,subject,group,bone,side``) lists one mesh
per row. Rows sharing a (bone, side) pair form a stratum; each stratum is
analyzed independently: global descriptors of its meshes, then the PCA +
MANOVA + permutation chain. Failures stay local to their stratum and are
recorded in the report instead of aborting the run.

A run first reduces each mesh file of its two-group strata to a spectral
summary (eigenvalues, area weights and total area, see ``gsgw``), once per
solve window among its ks (see ``eigen``), at the largest k of the window
that the mesh allows, so every k of one window is served, bitwise, by a
prefix of one solve. The run's process reads and hashes each such file
once, looks it up in the cache once per window and serves the hits,
keeping no mesh bytes; the misses are solved in forked worker processes
(see _solve_misses), each from its file read anew. A run is one one-thread
OpenBLAS region (see _compare_strata), so no report depends on the worker
count (``taskset`` sets it). It then walks the strata once, in sorted
order. Every descriptor follows in closed form from a summary, g = K w
(see ``gsgw``): a stratum evaluates each shape's kernel bank once per k of
the grid, at its largest R, and every (R, k) cell takes the product over a
prefix of those rows. Summaries are cached under the SHA-256 of the mesh
file's bytes plus lumping and window, one blob each (a head line that ends
in the body's SHA-256, then 2K+1 float64 values), written atomically and
never replaced: it holds every pair its window serves (see _cached_summary
for a miss). A rerun against a warm cache parses no mesh and performs no
eigensolves, and its reports are byte-identical to a cold run's, whatever
k of a window filled the cache.
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
from .eigen import _largest_k, _one_blas_thread, _window, solve_eigen
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
from .sgws import _distinct_kernel_rows, signature_length

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

    Decoding does not depend on the locale; a file that cannot be read, or
    bytes that are not UTF-8, are a ParseError.
    """
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8-sig")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror})") from None
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
        if self.cache_dir is not None and not os.fspath(self.cache_dir):
            # an empty path would put the blobs in the working directory
            raise InvalidParam("cache_dir must not be empty; omit it to run without a cache")
        if self.lumping not in LUMPING_SCHEMES:
            raise InvalidParam(
                f"unknown lumping {self.lumping!r}; expected one of {LUMPING_SCHEMES}"
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


# a stratum's report columns, in the order of StratumResult.row()
_REPORT_COLUMNS = list(StratumResult("", "", 0, ()).row())


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


def _cache_entry(digest: str, cfg: RunConfig, window: int) -> tuple:
    """(blob path, head line up to the body's digest) in cfg's cache of a window's summary
    of the mesh file whose bytes have the SHA-256 digest.

    The path is a str joined by os.path.join, naming the file that
    Path(cfg.cache_dir) / name names, so a lookup builds no Path.
    """
    cache_path = os.path.join(cfg.cache_dir, f"spectrum-{digest}-{cfg.lumping}-{window}.sgwc")
    # a blob copied under another file's name has another head line
    return cache_path, f"SGWSPEC5 {digest} {cfg.lumping} {window} ".encode()


def _blob(head: bytes, summary: SpectralSummary) -> bytes:
    """The blob that stores summary under head (the layout _cached_summary reads)."""
    body = np.concatenate(([summary.total_area], summary.eigenvalues, summary.w_area))
    body = body.astype("<f8").tobytes()
    return head + hashlib.sha256(body).hexdigest().encode() + b"\n" + body


def _cached_summary(cache_path: str, head: bytes) -> SpectralSummary | None:
    """The summary stored at cache_path under head, or None on a miss.

    The blob is read with one ``open(cache_path, "rb")``, the call that
    read_mesh_bytes reads a mesh with; a path it cannot open is a miss. A
    blob is a line, head then the body's SHA-256 (hex), then the body:
    little-endian float64 values, the total area, K eigenvalues and K area
    weights. It is a hit only when that line is exact, the body holds 2K+1
    floats with K >= 1, and they are values a solve could have written: all
    finite, a total area > 0, eigenvalues that start at >= 0 and do not
    descend, and weights >= 0 (a check of input from outside the program).
    """
    try:
        with open(cache_path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    line, _, body = blob.partition(b"\n")
    n_floats, ragged = divmod(len(body), 8)
    if not (
        not ragged and n_floats % 2 and n_floats > 1
        and line == head + hashlib.sha256(body).hexdigest().encode()
    ):
        return None
    values = np.frombuffer(body, dtype="<f8")
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


def _solve(path, cfg: RunConfig, window: int) -> SpectralSummary | SgwError:
    """A solve window's summary of the mesh file at path, or the SgwError that stopped it.

    One task of a run's solves, in a worker process or in this one. The mesh
    is solved once, at the largest k of the window that solve_eigen takes
    for it (see eigen._largest_k), so the one summary serves every k of the
    window, and its truncate refuses a k past the mesh. It looks nothing up
    (see _summaries), and its caller holds a _one_blas_thread region. It
    hashes the very bytes it parses, so the blob it writes when
    cfg.cache_dir is set carries their key.
    """
    try:
        data = read_mesh_bytes(path)
        stiffness, mass = laplacian_matrices(parse_mesh(data, path), lumping=cfg.lumping)
        summary = summarize(solve_eigen(stiffness, mass, _largest_k(stiffness.shape[0], window)))
    except SgwError as exc:
        return exc
    if cfg.cache_dir is not None:
        cache_path, head = _cache_entry(hashlib.sha256(data).hexdigest(), cfg, window)
        _atomic_write_bytes(cache_path, _blob(head, summary))
    return summary


def _pool_size(misses: int) -> int:
    """Worker processes for a run's misses: one per usable CPU, at most one per miss.

    1 (no pool) off Linux, where fork is unsafe (macOS) or missing (Windows).
    """
    if sys.platform != "linux":
        return 1
    return min(misses, len(os.sched_getaffinity(0)))


def _solve_misses(misses: list, cfg: RunConfig) -> list:
    """_solve of each (path, window) of misses, in order.

    With _pool_size of 2 or more they run in that many forked worker
    processes, else one after another in this one. A worker that dies ends
    the run with BrokenProcessPool, and an exception other than an SgwError
    propagates; either way the pool's processes are gone when this returns.
    The caller holds a _one_blas_thread region (see _compare_strata).
    """
    workers = _pool_size(len(misses))
    if workers < 2:
        return [_solve(path, cfg, window) for path, window in misses]
    # Forked inside the run's one-thread region, a worker inherits the count of 1
    # and the libraries found in /proc/self/maps, so it never sets a count: that
    # would re-create the OpenBLAS thread pools that fork shut down, and each new
    # thread spins for about 120 ms before it sleeps. gc.freeze keeps the
    # worker's collections off the objects it inherits, so their pages are not
    # copied.
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=gc.freeze
    )
    paths, windows = zip(*misses)
    try:
        return list(pool.map(_solve, paths, itertools.repeat(cfg), windows))
    finally:
        pool.shutdown(cancel_futures=True)


def _summaries(paths, cfg: RunConfig, windows, diagnostics: RunDiagnostics) -> dict:
    """path -> {window: SpectralSummary or SgwError} for each of paths and windows.

    The one place a file is looked up in cfg's cache: this process reads and
    hashes each distinct path once, looks it up once per window, and serves
    the hits. _solve_misses then solves each missed (path, window) once (see
    _solve); two files with the same bytes are two misses, each writing one
    blob atomically.
    """
    summaries, misses = {}, []
    for path in paths:
        summaries[path] = {}
        if cfg.cache_dir is None:
            misses += [(path, window) for window in windows]
            continue
        try:
            digest = hashlib.sha256(read_mesh_bytes(path)).hexdigest()
        except SgwError as exc:
            summaries[path] = dict.fromkeys(windows, exc)
            continue
        for window in windows:
            summary = _cached_summary(*_cache_entry(digest, cfg, window))
            if summary is None:
                misses.append((path, window))
            else:
                diagnostics.eigen_cache_hits += 1
                summaries[path][window] = summary
    for (path, window), outcome in zip(misses, _solve_misses(misses, cfg)):
        diagnostics.eigensolves += isinstance(outcome, SpectralSummary)
        summaries[path][window] = outcome
    return summaries


def _gsgw_vectors(paths, cfg: RunConfig, diagnostics: RunDiagnostics | None = None) -> list:
    """Global descriptor of each mesh file of paths under cfg, in order.

    One _summaries call in one _one_blas_thread region, so the misses of all
    the paths share one worker pool; a path named twice is looked up and
    solved once. Raises the first failure in the order of paths.
    """
    diagnostics = RunDiagnostics() if diagnostics is None else diagnostics
    window = _window(cfg.k)
    with _one_blas_thread():
        summaries = _summaries(list(dict.fromkeys(paths)), cfg, [window], diagnostics)
        vectors = []
        for path in paths:
            summary = summaries[path][window]
            if isinstance(summary, SgwError):
                raise summary
            vectors.append(descriptor_from_summary(
                summary.truncate(cfg.k), cfg.R, area_factor=cfg.area_factor,
                normalize=cfg.normalize,
            ))
    return vectors


def gsgw_for_mesh(path, cfg: RunConfig, diagnostics: RunDiagnostics | None = None) -> GsgwVector:
    """Global descriptor of the mesh file at path under cfg, using the cache when set."""
    return _gsgw_vectors([path], cfg, diagnostics)[0]


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

    One walk over the entries, in manifest order. A shape's distinct kernel
    rows are evaluated once per distinct k of the grid, at its largest R;
    each cell's row is the product over the first of them, those of its own
    R, spread over its p entries (see gsgw), written into the cell's (n, p)
    matrix, and the rows are dropped before the next shape.
    A shape's failure at a k, stored for its window or raised here (such as
    a k past its pairs), fails that k's cells and names its subject and
    stage: [load] for a stored ParseError or ValidationError, else
    [descriptor]. The first in manifest order wins; a matrix that stats
    rejects fails as a whole.
    """
    cfg = grid[0]
    R_max = max(cell_cfg.R for cell_cfg in grid)
    outcomes = [np.zeros((len(entries), signature_length(cell_cfg.R))) for cell_cfg in grid]
    cells_at_k: dict = {}
    for i, cell_cfg in enumerate(grid):
        cells_at_k.setdefault(cell_cfg.k, []).append(i)
    for row, entry in enumerate(entries):
        for k, cells in cells_at_k.items():
            live = [i for i in cells if not isinstance(outcomes[i], StratumResult)]
            if not live:
                continue
            summary = summaries[entry.path][_window(k)]
            if isinstance(summary, SgwError):
                stage = "load" if isinstance(summary, (ParseError, ValidationError)) else "descriptor"
                failed = _failure(base, f"{entry.subject} [{stage}]: {summary}", summary)
                for i in live:
                    outcomes[i] = failed
                continue
            try:
                summary = summary.truncate(k)
                rows = _distinct_kernel_rows(summary.eigenvalues, R_max)
            except SgwError as exc:
                for i in live:
                    outcomes[i] = _failure(base, f"{entry.subject} [descriptor]: {exc}", exc)
                continue
            for i in live:
                matrix = outcomes[i]
                try:
                    _descriptor_into(
                        matrix[row], rows, grid[i].R, summary, cfg.area_factor, cfg.normalize
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


def _compare_strata(manifest: DatasetManifest, grid: list):
    """The run's one walk over manifest.strata(): per cell config of grid, its strata.

    Returns one tuple of StratumResults per cell, and the RunDiagnostics.
    Before any stratum is compared, each mesh file of a stratum with two
    groups is summarised once per solve window of the grid's ks, at the
    largest k of the window that it allows (see _summaries and _solve), with
    an SgwError kept in the place of a summary, per window. Each such
    stratum then compares every cell's descriptor matrix (the cells differ
    only in R and k) in one stats.compare_cells call, so its permutation
    masks are drawn once for the whole grid. A failure stays on its own cell and stratum.

    The whole walk is one _one_blas_thread region: the cache lookups, the
    worker pool, the descriptor matrices and the stats. Each OpenBLAS is set
    to one thread once and put back once, when the run returns; the regions
    of solve_eigen and the stats' SVD are nested no-ops inside it.
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
        windows = sorted({_window(cell_cfg.k) for cell_cfg in grid})
        summaries = _summaries(paths, cfg, windows, diagnostics)
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
    (strata,), diagnostics = _compare_strata(manifest, [cfg])
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
    """run_group_comparison over an (R, k) grid, solving each mesh once per window.

    Every mesh is read, eigensolved (or served from the cache) and
    summarised once per solve window of the grid's ks (see eigen), at the
    largest k of that window that it allows; each grid cell then takes its
    descriptors from a prefix of those summaries in memory, bitwise those of
    a one-cell run, and each stratum draws its permutation masks once for
    every cell. Only the cells of a k past a mesh fail, each with the error
    that run_group_comparison gives at that k.
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

    per_cell, diagnostics = _compare_strata(manifest, grid)
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
