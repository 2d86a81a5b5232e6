"""Workload definitions, seeded input generation and the correctness gate.

Every workload is a population of bumpy spheres against bumpy ellipsoids
(10 + 10 shapes per stratum) written by ``make_two_class_manifest``; the
program only ever sees the generated OFF files and manifest. Why each
workload exists is recorded next to its name in ``BENCHMARK.json``.

All workloads pass ``--pca-dims 8`` instead of the default 18. With 20
shapes per stratum the centred descriptor matrix has singular values
falling to 1e-16 of the largest by the 16th component, so at 18 dimensions
Wilks' lambda is set by round-off: a 1e-15 relative perturbation of the
descriptors moves it by 0.7%, and the dense and sparse eigensolver routes
disagree on it by up to 13%. No known-answer tolerance can then tell
last-bit motion from a wrong answer. At 8 dimensions the same two
perturbations move Wilks' lambda and the MANOVA p-value by at most 7e-9
relative over every cell of the three workloads at seed 0 (m = 642 and
2562), so a 1e-6 tolerance accepts legitimate float motion with a 150x
margin and still rejects a changed descriptor.
The program itself warns that pca_dims above half the stratum size is
fragile.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# relative tolerance of the known-answer check on wilks_lambda and manova_p;
# see the module docstring for the measured motion it must absorb
KNOWN_ANSWER_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "compare" or "sweep"
    strata: tuple  # (bone, side) of each stratum
    subdivisions: int  # icosphere level: 3 gives m = 642, 4 gives m = 2562
    warm: bool = False  # every operation reuses a cache filled in set-up
    n_per_group: int = 10
    k: int = 31
    R: int = 30
    pca_dims: int = 8
    n_perm: int = 1000
    Rs: tuple = ()
    ks: tuple = ()

    @property
    def cells(self) -> int:
        """Report rows per operation: strata times sweep grid cells."""
        return len(self.strata) * max(1, len(self.Rs) * len(self.ks))

    @property
    def shapes_per_op(self) -> int:
        """Descriptors delivered into the reports of one operation."""
        return self.cells * 2 * self.n_per_group

    def params(self) -> dict:
        """Everything that shapes the inputs and the answers, for the reference file."""
        params = asdict(self)
        del params["name"]
        params["strata"] = [list(s) for s in self.strata]
        params["Rs"] = list(self.Rs)
        params["ks"] = list(self.ks)
        return params


WORKLOADS = {
    spec.name: spec
    for spec in (
        Workload("compare-cold-m2562", "compare", (("synthetic", "left"),), subdivisions=4),
        Workload(
            "sweep-cold-m642", "sweep", (("synthetic", "left"),), subdivisions=3,
            Rs=(10, 20, 30), ks=(11, 21, 31),
        ),
        Workload(
            "compare-warm-4strata", "compare",
            tuple((bone, side) for bone in ("femur", "tibia") for side in ("left", "right")),
            subdivisions=3, warm=True,
        ),
    )
}


def mesh_seed(seed: int, stratum: int) -> int:
    """First bump-field seed of a stratum; each stratum uses 2 * n_per_group seeds."""
    return 1000 * seed + 20 * stratum


def generate_inputs(spec: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's meshes and manifest under out_dir; return the manifest.

    Each stratum is one ``make_two_class_manifest`` population in its own
    subdirectory with its own mesh seeds; the top-level manifest lists
    them all with paths relative to itself.
    """
    from sgwshape.pipeline import make_two_class_manifest

    header, rows = None, []
    for index, (bone, side) in enumerate(spec.strata):
        sub = f"{bone}_{side}"
        part = make_two_class_manifest(
            out_dir / sub, n_per_group=spec.n_per_group, subdivisions=spec.subdivisions,
            seed=mesh_seed(seed, index), bone=bone, side=side,
        )
        header, *body = part.read_text().splitlines()
        rows += [f"{sub}/{line}" for line in body if line]
    manifest = out_dir / "manifest.csv"
    manifest.write_text("\n".join([header, *rows]) + "\n")
    return manifest


def argv(spec: Workload, manifest: Path, seed: int, cache_dir: Path, out_dir: Path) -> list:
    """The command line a user would type for one operation."""
    args = [
        spec.command, str(manifest),
        "--k", str(spec.k), "--R", str(spec.R), "--pca-dims", str(spec.pca_dims),
        "--n-perm", str(spec.n_perm), "--seed", str(seed),
        "--cache-dir", str(cache_dir), "--out-dir", str(out_dir), "--jobs", "1",
    ]
    if spec.command == "sweep":
        args += ["--Rs", ",".join(map(str, spec.Rs)), "--ks-grid", ",".join(map(str, spec.ks))]
    return args


def report_names(spec: Workload) -> tuple:
    return ("sweep.csv",) if spec.command == "sweep" else ("report.json", "report.csv")


def read_reports(spec: Workload, out_dir: Path) -> dict:
    """Report file name -> bytes; a missing file maps to None."""
    reports = {}
    for name in report_names(spec):
        try:
            reports[name] = (out_dir / name).read_bytes()
        except OSError:
            reports[name] = None
    return reports


def result_rows(spec: Workload, reports: dict) -> list:
    """One dict per stratum (compare) or per stratum and grid cell (sweep).

    Raises KeyError, ValueError or TypeError on a report it cannot read.
    """
    if spec.command == "sweep":
        text = reports["sweep.csv"].decode()
        rows = []
        for raw in csv.DictReader(io.StringIO(text)):
            rows.append({
                "R": int(raw["R"]), "k": int(raw["k"]), "bone": raw["bone"], "side": raw["side"],
                "error": raw["error"],
                "n_permutations": int(raw["n_permutations"]) if raw["n_permutations"] else None,
                **{col: float(raw[col]) if raw[col] else None
                   for col in ("wilks_lambda", "manova_p", "permutation_p")},
            })
        return rows
    report = json.loads(reports["report.json"])
    config = report["config"]
    return [
        {"R": config["R"], "k": config["k"], **{col: stratum[col] for col in (
            "bone", "side", "error", "n_permutations", "wilks_lambda", "manova_p", "permutation_p",
        )}}
        for stratum in report["strata"]
    ]


def row_key(row: dict) -> str:
    return f"{row['bone']}/{row['side']}/R{row['R']}/k{row['k']}"


def known_answers(spec: Workload, seed: int):
    """Reference (wilks_lambda, manova_p) per row key for this seed, or None.

    None when the reference file has no entry for the workload and seed, or
    when the entry was made with other parameters than spec's.
    """
    try:
        reference = json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return None
    entry = reference.get("workloads", {}).get(spec.name)
    if entry is None or entry["params"] != spec.params():
        return None
    return entry["seeds"].get(str(seed))


def check_reports(spec: Workload, reports: dict, expected: dict | None, known: dict | None) -> list:
    """Problems with one operation's reports; an empty list means it passed.

    expected: reports every operation of the run must reproduce byte for
    byte (the first operation's, or the cold set-up run's for a warm
    workload). known: reference answers from ``known_answers``.
    """
    problems = [f"{name} missing" for name, data in reports.items() if data is None]
    if problems:
        return problems
    if expected is not None:
        problems += [
            f"{name} differs from the run's first report"
            for name in reports if reports[name] != expected.get(name)
        ]
    try:
        rows = result_rows(spec, reports)
    except (KeyError, ValueError, TypeError, UnicodeDecodeError) as exc:
        return problems + [f"unreadable report: {type(exc).__name__}: {exc}"]
    if len(rows) != spec.cells:
        problems.append(f"{len(rows)} result rows, expected {spec.cells}")
    for row in rows:
        key = row_key(row)
        if row["error"]:
            problems.append(f"{key}: error {row['error']!r}")
            continue
        if row["n_permutations"] != spec.n_perm:
            problems.append(f"{key}: {row['n_permutations']} permutations, expected {spec.n_perm}")
        for col in ("manova_p", "permutation_p"):
            value = row[col]
            if not isinstance(value, float) or not 0.0 <= value <= 1.0:
                problems.append(f"{key}: {col} {value!r} outside [0, 1]")
        if known is not None:
            want = known.get(key)
            got = [row["wilks_lambda"], row["manova_p"]]
            if want is None:
                problems.append(f"{key}: no known answer")
            elif not all(
                isinstance(g, float) and math.isclose(g, w, rel_tol=KNOWN_ANSWER_RTOL, abs_tol=0.0)
                for g, w in zip(got, want)
            ):
                problems.append(f"{key}: (wilks_lambda, manova_p) {got} != known {want}")
    return problems
