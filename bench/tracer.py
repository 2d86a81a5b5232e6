"""Outside-in tracer for one benchmark operation.

While installed, it replaces each layer's public functions, at the names
through which their callers reach them, with wrappers that record a span
(name, start, end, parent) and a few counts taken from the arguments or
the result. Nothing inside the package changes; the originals are put back
when the context ends. A name a later version of the package no longer
has is skipped, so its layer reports zero calls instead of failing.

Spans nest through one stack, which holds because operations run at
``--jobs 1`` on one thread.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    op: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _mesh_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _eigen_route(args, kwargs, basis):
    return {"method": basis.method, "pairs": basis.k}


def _signature_entries(args, kwargs, sig):
    return {"entries": sig.p * sig.m}


def _permutations(args, kwargs, comparison):
    return {"permutations": comparison.n_permutations}


def _cache_counters(args, kwargs, result):
    diag = getattr(result, "diagnostics", None)
    return {
        name: getattr(diag, name, 0)
        for name in ("eigensolves", "eigen_cache_hits", "gsgw_cache_hits")
    }


def _targets():
    """(owner, attribute, span name, attrs function) for every traced boundary."""
    import sgwshape.cli as cli
    import sgwshape.pipeline as pipeline
    import sgwshape.stats as stats
    from sgwshape.mesh_io import TriangleMesh

    return [
        (cli, "main", "cli.main", None),
        (cli, "run_group_comparison", "pipeline.run", _cache_counters),
        (cli, "parameter_sweep", "pipeline.run", _cache_counters),
        (pipeline, "load_mesh", "mesh_io.load", _mesh_bytes),
        (TriangleMesh, "__init__", "mesh_io.validate", None),
        (pipeline, "laplacian_matrices", "laplacian.assemble", None),
        (pipeline, "solve_eigen", "eigen.solve", _eigen_route),
        (pipeline, "signature_matrix", "sgws.signature", _signature_entries),
        (pipeline, "aggregate", "gsgw.aggregate", None),
        (pipeline, "gsgw_for_mesh", "pipeline.descriptor", None),
        (pipeline.RunResult, "write_json", "pipeline.report_write", None),
        (pipeline.RunResult, "write_csv", "pipeline.report_write", None),
        (pipeline.SweepResult, "write_csv", "pipeline.report_write", None),
        (stats, "compare_groups", "stats.compare", _permutations),
        (stats, "pca_reduce", "stats.pca", None),
        (stats, "manova_two_group", "stats.manova", None),
        (stats, "permutation_test", "stats.permutation", None),
    ]


class Tracer:
    """Spans of traced operations, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.skipped = set()
        self._stack = []
        self._op = None

    @contextmanager
    def installed(self, op: int):
        """Trace every call made inside the block as part of operation op."""
        self._op = op
        patched = []
        try:
            for owner, attr, name, attrs_of in _targets():
                # a class attribute is looked up in the class itself, so an
                # inherited one is never copied onto the subclass
                original = (
                    owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                )
                if original is None:
                    self.skipped.add(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(name, original, attrs_of))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            self._op = None

    def _wrap(self, name, fn, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(self._op, name, parent)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    def operation_metrics(self, op: int, wall: float, cache_bytes_written: int) -> dict:
        """Per-layer metrics of one traced operation.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap on one thread, so that is the
        time the span covers alone. ``trace.accounted_ratio`` is the sum
        of all self times over the operation's wall time measured outside.
        """
        index = [i for i, span in enumerate(self.spans) if span.op == op]
        child_time = defaultdict(float)
        for i in index:
            span = self.spans[i]
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        dur, own, calls, counts = (defaultdict(float), defaultdict(float),
                                   defaultdict(int), defaultdict(float))
        for i in index:
            span = self.spans[i]
            length = span.end - span.start
            dur[span.name] += length
            own[span.name] += length - child_time[i]
            calls[span.name] += 1
            for key, value in span.attrs.items():
                if key == "method":
                    dur[f"eigen.{value}"] += length
                else:
                    counts[key] += value

        def ratio(part, whole):
            return part / whole if whole else 0.0

        lookups = counts["eigen_cache_hits"] + counts["eigensolves"]
        return {
            "cli.self_s": own["cli.main"],
            "mesh_io.load_s": dur["mesh_io.load"],
            "mesh_io.validate_s": dur["mesh_io.validate"],
            "mesh_io.loads": calls["mesh_io.load"],
            "mesh_io.bytes_parsed": counts["bytes"],
            "laplacian.assemble_s": dur["laplacian.assemble"],
            "laplacian.calls": calls["laplacian.assemble"],
            "eigen.solve_s": dur["eigen.solve"],
            "eigen.dense_s": dur["eigen.dense"],
            "eigen.sparse_s": dur["eigen.sparse"],
            "eigen.solves": calls["eigen.solve"],
            "eigen.pairs": counts["pairs"],
            # 0 when no lookup reached the eigen cache at all
            "eigen.cache_hit_ratio": ratio(counts["eigen_cache_hits"], lookups),
            "sgws.signature_s": dur["sgws.signature"],
            "sgws.calls": calls["sgws.signature"],
            "sgws.entries": counts["entries"],
            "gsgw.aggregate_s": dur["gsgw.aggregate"],
            "gsgw.cache_hit_ratio": ratio(counts["gsgw_cache_hits"], calls["pipeline.descriptor"]),
            "pipeline.descriptor_s": dur["pipeline.descriptor"],
            "pipeline.self_s": own["pipeline.run"] + own["pipeline.descriptor"],
            "pipeline.report_write_s": dur["pipeline.report_write"],
            "pipeline.cache_bytes_written": cache_bytes_written,
            "stats.compare_s": dur["stats.compare"],
            "stats.pca_s": dur["stats.pca"],
            "stats.manova_s": dur["stats.manova"],
            "stats.permutation_s": dur["stats.permutation"],
            "stats.permutations": counts["permutations"],
            "stats.perm_us": 1e6 * ratio(dur["stats.permutation"], counts["permutations"]),
            "trace.wall_s": wall,
            "trace.accounted_ratio": ratio(sum(own.values()), wall),
        }

    def write_jsonl(self, path) -> None:
        """Every span as one JSON line, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "op": span.op, "name": span.name, "parent": span.parent,
                    "start": span.start - origin, "end": span.end - origin, **span.attrs,
                }) + "\n")
