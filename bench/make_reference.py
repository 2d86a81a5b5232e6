#!/usr/bin/env python3
"""Write bench/reference.json, the known answers of the correctness gate.

    python3 bench/make_reference.py --seeds 0-19

For every workload and seed it runs one cold operation (for a warm workload
the cold warm-up is that operation) and records (wilks_lambda, manova_p)
of every stratum and grid cell. Run it only at a commit whose answers are
trusted: later benchmark runs at these seeds must reproduce the values
within ``workloads.KNOWN_ANSWER_RTOL``; other seeds skip that check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import run
import workloads


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def reference_rows(spec, seed: int, work) -> dict:
    inputs = run.set_up(spec, seed, work)
    reports = inputs.reports
    if reports is None:
        op = run.run_operation(spec, inputs.manifest, seed, work / "cache", work / "out")
        if op.code != 0:
            raise SystemExit(f"{spec.name} seed {seed} exited {op.code}:\n{op.log}")
        reports = op.reports
    problems = workloads.check_reports(spec, reports, None, None)
    if problems:
        raise SystemExit(f"{spec.name} seed {seed}: {problems}")
    return {
        workloads.row_key(row): [row["wilks_lambda"], row["manova_p"]]
        for row in workloads.result_rows(spec, reports)
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    run.import_program()
    work = run.ROOT / ".bench_work" / f"reference-{os.getpid()}"
    reference = {"workloads": {}}
    try:
        for spec in workloads.WORKLOADS.values():
            seeds = {}
            for seed in _seeds(args.seeds):
                seeds[str(seed)] = reference_rows(spec, seed, work / f"{spec.name}-{seed}")
                shutil.rmtree(work / f"{spec.name}-{seed}")
                print(f"{spec.name} seed {seed}: {len(seeds[str(seed)])} rows", flush=True)
            reference["workloads"][spec.name] = {"params": spec.params(), "seeds": seeds}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
