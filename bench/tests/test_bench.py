"""Tests of the benchmark itself, at a smoke size (m = 42, 4 + 4 shapes per stratum).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

run.import_program()

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in CONTRACT["workloads"]]


def smoke(name: str) -> workloads.Workload:
    spec = workloads.WORKLOADS[name]
    return dataclasses.replace(
        spec, subdivisions=1, n_per_group=4, k=6, R=4, pca_dims=3, n_perm=20,
        Rs=(3, 4) if spec.Rs else (), ks=(5, 6) if spec.ks else (),
    )


def test_contract_names_every_workload():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted(name, trace, tmp_path):
    result = run.measure(smoke(name), seed=1, seconds=0, trace=trace, work=tmp_path)
    assert result.correct, result.problems
    assert result.attempted == 1 + run.MIN_OPS  # the warm-up and the timed operations
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in CONTRACT[kind]}
    assert set(result.metrics) == set(units)
    for metric, unit in units.items():
        assert (run.layer_unit(metric) if trace else run.E2E_UNITS[metric]) == unit, metric
    assert all(math.isfinite(value) for value in result.metrics.values())
    if not trace:
        assert len(result.walls) == run.MIN_OPS  # the warm-up is not timed
    if trace:
        assert result.metrics["trace.accounted_ratio"] == pytest.approx(1.0, abs=0.05)
    else:
        assert result.metrics["ok_ratio"] == 1.0
        assert all(result.metrics[m] > 0 for m in ("setup_s", "wall_kprobe", "peak_rss_mb"))


def _flip_first_digit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    at = next(i for i, byte in enumerate(data) if chr(byte).isdigit())
    data[at] = ord(str((int(chr(data[at])) + 1) % 10))
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name", NAMES)
def test_tampered_report_counts_as_failed(name, tmp_path, monkeypatch):
    import sgwshape.cli

    spec = smoke(name)
    real_main = sgwshape.cli.main

    def tampering_main(argv):
        code = real_main(argv)
        out = Path(argv[argv.index("--out-dir") + 1])
        if out.name == "out-1":
            _flip_first_digit(out / workloads.report_names(spec)[0])
        return code

    monkeypatch.setattr(sgwshape.cli, "main", tampering_main)
    result = run.measure(spec, seed=1, seconds=0, trace=False, work=tmp_path)
    assert (result.attempted, result.failed) == (3, 1)
    assert not result.correct
    assert result.metrics["ok_ratio"] == 2 / 3
    assert any("operation 1" in problem and "differs" in problem for problem in result.problems)


def test_known_answers_allow_float_motion_but_not_errors(tmp_path):
    spec = smoke("compare-cold-m2562")
    inputs = run.set_up(spec, 1, tmp_path)
    op = run.run_operation(spec, inputs.manifest, 1, tmp_path / "cache", tmp_path / "out")
    rows = workloads.result_rows(spec, op.reports)

    def known(rel):
        return {
            workloads.row_key(r): [r["wilks_lambda"] * (1 + rel), r["manova_p"]] for r in rows
        }

    assert workloads.check_reports(spec, op.reports, op.reports, known(0.0)) == []
    assert workloads.check_reports(spec, op.reports, None, known(1e-9)) == []
    problems = workloads.check_reports(spec, op.reports, None, known(1e-4))
    assert len(problems) == 1 and "known" in problems[0]
    assert workloads.check_reports(spec, op.reports, None, {}) == [
        f"{workloads.row_key(rows[0])}: no known answer"
    ]


def test_reference_covers_the_default_seed_of_every_workload():
    for name, spec in workloads.WORKLOADS.items():
        known = workloads.known_answers(spec, 0)
        assert known is not None, name
        assert len(known) == spec.cells


def test_inputs_are_seeded_and_strata_distinct(tmp_path):
    spec = smoke("compare-warm-4strata")
    first = workloads.generate_inputs(spec, 5, tmp_path / "a")
    again = workloads.generate_inputs(spec, 5, tmp_path / "b")
    other = workloads.generate_inputs(spec, 6, tmp_path / "c")

    def files(manifest):
        return {
            p.relative_to(manifest.parent): p.read_bytes()
            for p in manifest.parent.rglob("*") if p.is_file()
        }

    assert files(first) == files(again)
    assert files(first) != files(other)
    lines = first.read_text().splitlines()
    assert len(lines) == 1 + spec.cells * 2 * spec.n_per_group
    paths = [line.split(",")[0] for line in lines[1:]]
    assert not any(os.path.isabs(p) for p in paths)
    meshes = {(first.parent / p).read_bytes() for p in paths}
    assert len(meshes) == len(paths)


def test_probe_samples_the_loop_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    speed = probe.SpeedProbe()
    with speed.installed():
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * probe.PERIOD_S:
            pass
        wall = time.perf_counter() - start
    assert len(speed.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    kept = sorted(speed.samples)[: len(speed.samples) - int(probe.TRIM * len(speed.samples))]
    loop = statistics.mean(kept)
    assert speed.cost(wall) == pytest.approx((wall - sum(speed.samples)) / loop / 1000)
    assert 0 < speed.cost(wall) < wall / loop / 1000


def test_refuses_to_run_without_the_checkout_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    # even with the package importable from elsewhere, it must not be used
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert child.returncode != 0
    assert not child.stdout.strip()
    assert not (tmp_path / ".bench_work").exists()
