#!/usr/bin/env python3
"""Benchmark of the sgwshape command line, end to end and layer by layer.

Run from the root of a checkout; the package is imported from its ``src``
directory and never from an installed copy:

    python3 bench/run.py --workload compare-cold-m2562 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25

One operation is one in-process call of ``sgwshape.cli.main`` with the argv
a user would type (``compare`` or ``sweep`` with ``--cache-dir`` and
``--out-dir``, at ``--jobs 1``). Operations form a closed loop with one
client: the next starts when the previous returns. The timed region covers
manifest loading, the run, report writing and the summary print (captured
in memory). Interpreter start, imports, input generation and, for the warm
workload, filling the cache count as set-up instead; set-up is repeated
``SETUP_REPEATS`` times and its median reported. One warm-up operation runs
before the timed ones and is left out of every timing: the first call in a
process pays for lazy imports and first-touch page faults, and measured
10-30% slower than the rest. The BLAS thread count is left at the library
default and recorded in the environment line.

Every operation's reports, the warm-up's included, go through the
correctness gate in ``workloads.check_reports``; one that fails, or raises,
counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. The operation time among them is ``wall_kprobe``:
each timed operation runs under ``probe.SpeedProbe``, and its wall time is
divided by the speed of the core it ran on, measured during it (see
``probe.py``); the median over operations is reported. Raw wall and CPU
seconds and shapes per second are printed too, but not gated: on a shared
host their medians moved by 20-30% between runs of the same code. With
``--trace 1`` timed operations alternate untraced and traced, and it carries the per-layer metrics of the traced operations (see
``tracer.py``) plus ``trace.overhead_ratio``, the median traced wall over
the median untraced wall. Lines before it print the environment and every
metric with its unit. ``--workload all`` runs each workload in its own
process and prints all of them.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from probe import SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# timed operations after the warm-up; with trace, one untraced and one traced
MIN_OPS = 2
# traced self times must sum to the traced wall within this share
ACCOUNTING_TOLERANCE = 0.05

E2E_UNITS = {
    "setup_s": "s",
    "wall_kprobe": "kprobe",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


class SetupError(Exception):
    pass


@dataclass
class Inputs:
    manifest: Path
    cache: Path | None = None  # filled by the warm-up of a warm workload
    reports: dict | None = None  # the warm-up's (cold) reports


@dataclass
class Operation:
    code: int
    wall: float
    cpu: float
    cost: float | None  # wall_kprobe, when run under a SpeedProbe
    reports: dict
    log: str


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    walls: list = field(default_factory=list)  # untraced timed operations, in run order
    costs: list = field(default_factory=list)  # their wall_kprobe, in the same order
    raw: dict = field(default_factory=dict)  # ungated medians, printed only

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def import_program() -> float:
    """Import sgwshape from the checkout's src; return the import seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import sgwshape.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import sgwshape from {SRC}: {exc}") from None
    if SRC not in Path(sgwshape.cli.__file__).resolve().parents:
        raise SystemExit(f"bench: sgwshape came from {sgwshape.cli.__file__}, not from {SRC}")
    return time.perf_counter() - start


def run_operation(spec, manifest: Path, seed: int, cache: Path, out: Path,
                  probe: SpeedProbe | None = None) -> Operation:
    import sgwshape.cli as cli

    args = workloads.argv(spec, manifest, seed, cache, out)
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        with probe.installed() if probe else contextlib.nullcontext():
            wall, cpu = time.perf_counter(), time.process_time()
            code = cli.main(args)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    cost = probe.cost(wall) if probe else None
    return Operation(code, wall, cpu, cost, workloads.read_reports(spec, out), log.getvalue())


def set_up(spec, seed: int, work: Path) -> Inputs:
    manifest = workloads.generate_inputs(spec, seed, work / "inputs")
    if not spec.warm:
        return Inputs(manifest)
    cache = work / "cache"
    warm_up = run_operation(spec, manifest, seed, cache, work / "warm-up")
    if warm_up.code != 0:
        raise SetupError(f"warm-up exited {warm_up.code}:\n{warm_up.log}")
    return Inputs(manifest, cache, warm_up.reports)


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def measure(spec, seed: int, seconds: float, trace: bool, work: Path, import_s: float = 0.0,
            spans_path: Path | None = None) -> Result:
    """Set up, run the warm-up operation, then time operations for `seconds`
    (at least MIN_OPS of them); gate every operation.

    Operation 0 is the warm-up. With trace, timed operations alternate
    untraced and traced, and the spans of the traced ones go to spans_path
    as JSON lines.
    """
    setup_times = []
    for j in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = set_up(spec, seed, work / f"setup-{j}")
        setup_times.append(time.perf_counter() - start)
        if j == 0:
            first = inputs
        elif inputs.reports != first.reports:
            raise SetupError("warm-up reports differ between set-ups of the same seed")
    for j in range(SETUP_REPEATS - 1):
        shutil.rmtree(work / f"setup-{j}")

    known = workloads.known_answers(spec, seed)
    expected = inputs.reports
    tracer = Tracer()
    result = Result()
    walls = {False: [], True: []}
    cpus, costs, layer_rows = [], [], []
    probe = SpeedProbe()
    op, window_start = 0, None
    while op <= MIN_OPS or time.perf_counter() - window_start < seconds:
        timed = op > 0
        if op == 1:
            window_start = time.perf_counter()
        traced = trace and timed and op % 2 == 0
        cache = inputs.cache or work / f"cache-{op}"
        cache.mkdir(parents=True, exist_ok=True)
        out = work / f"out-{op}"
        cache_before = _tree_bytes(cache) if traced else 0
        result.attempted += 1
        try:
            with tracer.installed(op) if traced else contextlib.nullcontext():
                run = run_operation(spec, inputs.manifest, seed, cache, out,
                                    probe if timed and not trace else None)
        except Exception:  # any failure of the program counts against it
            problems = [f"raised\n{traceback.format_exc()}"]
        else:
            problems = [] if run.code == 0 else [f"exit code {run.code}\n{run.log}"]
            problems += workloads.check_reports(spec, run.reports, expected, known)
            if timed:
                walls[traced].append(run.wall)
            if traced:
                row = tracer.operation_metrics(op, run.wall, _tree_bytes(cache) - cache_before)
                if abs(row["trace.accounted_ratio"] - 1.0) > ACCOUNTING_TOLERANCE:
                    problems.append(
                        f"self times cover {row['trace.accounted_ratio']:.3f} of the traced wall"
                    )
                layer_rows.append(row)
            elif timed:
                cpus.append(run.cpu)
                if run.cost is not None:
                    costs.append(run.cost)
            if expected is None and not problems:
                expected = run.reports
        if problems:
            result.failed += 1
            result.problems += [f"operation {op}: {problem}" for problem in problems]
        shutil.rmtree(out, ignore_errors=True)
        if inputs.cache is None:
            shutil.rmtree(cache, ignore_errors=True)
        op += 1

    if trace:
        if layer_rows and walls[False]:
            result.metrics = {
                name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]
            }
            result.metrics["trace.overhead_ratio"] = (
                statistics.median(walls[True]) / statistics.median(walls[False])
            )
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(spans_path)
        if tracer.skipped:
            result.problems.append(f"not traced (absent): {sorted(tracer.skipped)}")
    elif walls[False]:
        result.walls, result.costs = walls[False], costs
        wall = statistics.median(walls[False])
        result.raw = {
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "shapes_per_s": (spec.shapes_per_op / wall, "1/s"),
        }
        result.metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_kprobe": statistics.median(costs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (result.attempted - result.failed) / result.attempted,
        }
    return result


# ---------------------------------------------------------------------------
# environment record


def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_libraries() -> list:
    """Configuration and thread count of every OpenBLAS loaded into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({
        parts[-1] for parts in (line.split() for line in maps.splitlines())
        if len(parts) == 6 and "openblas" in Path(parts[-1]).name
    })
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                entry.update(config=config().decode(), threads=threads())
                break
        found.append(entry)
    return found


def environment(spec, seed: int) -> dict:
    import numpy
    import scipy

    blas_build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": spec.name,
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas_build.get('name')} {blas_build.get('version')}",
        "blas_loaded": blas_libraries(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var, "unset")
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# command line


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(child.stdout + child.stderr, file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        if child.stderr:
            print(child.stderr, file=sys.stderr, end="")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return _run_all(args)

    import_s = import_program()
    spec = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{spec.name}-{os.getpid()}"
    try:
        result = measure(spec, args.seed, args.seconds, bool(args.trace), work, import_s,
                         spans_path=ROOT / ".bench_trace" / f"{spec.name}-seed{args.seed}.jsonl")
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result.problems:
        print(f"bench: {problem}", file=sys.stderr)
    units = {name: layer_unit(name) for name in result.metrics} if args.trace else E2E_UNITS
    print("environment " + json.dumps(environment(spec, args.seed), sort_keys=True))
    print(
        f"{spec.name} seed={args.seed} trace={args.trace}: {result.attempted} operations, "
        f"{result.failed} failed, error_rate {result.failed / max(result.attempted, 1):g}"
    )
    if result.walls:
        print(f"  wall_s of each of the {len(result.walls)} timed operations: "
              + " ".join(f"{wall:.4g}" for wall in result.walls))
        print("  wall_kprobe of each: " + " ".join(f"{cost:.4g}" for cost in result.costs))
    for name, value in result.metrics.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]}")
    for name, (value, unit) in result.raw.items():
        print(f"  {name:<30} {value:>16.6g} {unit} (not gated)")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
