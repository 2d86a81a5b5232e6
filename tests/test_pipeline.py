"""Manifest handling, caching, batch runs, sweeps, synthetic populations."""

import json
import os
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import sgwshape as sg
from sgwshape.errors import InvalidParam, ValidationError
from sgwshape.pipeline import (
    _REPORT_COLUMNS,
    _atomic_write_bytes,
    _stratum_seed,
    RunDiagnostics,
    gsgw_for_mesh,
)

SMALL = dict(k=10, R=3, pca_dims=2, n_perm=50, seed=0)


@pytest.fixture(scope="module")
def two_class(tmp_path_factory):
    out = tmp_path_factory.mktemp("twoclass")
    manifest_path = sg.make_two_class_manifest(out, n_per_group=3, subdivisions=1)
    return sg.DatasetManifest.load(manifest_path)


@pytest.fixture(scope="module")
def small_run(two_class, tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    cfg = sg.RunConfig(cache_dir=str(cache), **SMALL)
    return sg.run_group_comparison(two_class, cfg)


class TestManifest:
    def test_load_resolves_paths(self, two_class):
        assert len(two_class.entries) == 6
        for entry in two_class.entries:
            assert Path(entry.path).is_absolute()
            assert Path(entry.path).is_file()

    def test_strata_sorted_by_bone_then_side(self, tmp_path):
        mesh_path = tmp_path / "m.off"
        sg.write_mesh(sg.make_synthetic("unit_sphere", 0), mesh_path)
        rows = [
            "m.off,s1,a,tibia,left",
            "m.off,s2,b,tibia,left",
            "m.off,s1,a,femur,right",
            "m.off,s2,b,femur,right",
            "m.off,s1,a,femur,left",
            "m.off,s2,b,femur,left",
        ]
        manifest_file = tmp_path / "manifest.csv"
        manifest_file.write_text("path,subject,group,bone,side\n" + "\n".join(rows) + "\n")
        manifest = sg.DatasetManifest.load(manifest_file)
        assert list(manifest.strata()) == [
            ("femur", "left"),
            ("femur", "right"),
            ("tibia", "left"),
        ]

    def test_rejects_wrong_header(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("file,subject,group,bone,side\n")
        with pytest.raises(ValidationError, match="header"):
            sg.DatasetManifest.load(bad)

    def test_rejects_unknown_side(self, tmp_path):
        mesh_path = tmp_path / "m.off"
        sg.write_mesh(sg.make_synthetic("unit_sphere", 0), mesh_path)
        bad = tmp_path / "m.csv"
        bad.write_text("path,subject,group,bone,side\nm.off,s1,a,femur,up\n")
        with pytest.raises(ValidationError, match="side"):
            sg.DatasetManifest.load(bad)

    def test_rejects_missing_mesh(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("path,subject,group,bone,side\nghost.off,s1,a,femur,left\n")
        with pytest.raises(ValidationError, match="does not exist"):
            sg.DatasetManifest.load(bad)

    def test_rejects_duplicate_triple(self, tmp_path):
        mesh_path = tmp_path / "m.off"
        sg.write_mesh(sg.make_synthetic("unit_sphere", 0), mesh_path)
        bad = tmp_path / "m.csv"
        bad.write_text(
            "path,subject,group,bone,side\n"
            "m.off,s1,a,femur,left\n"
            "m.off,s1,b,femur,left\n"
        )
        with pytest.raises(ValidationError, match="duplicate"):
            sg.DatasetManifest.load(bad)

    def test_rejects_header_only(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("path,subject,group,bone,side\n")
        with pytest.raises(ValidationError, match="no data rows"):
            sg.DatasetManifest.load(bad)

    def test_rejects_short_row(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("path,subject,group,bone,side\nm.off,s1,a,femur\n")
        with pytest.raises(ValidationError, match="5 fields"):
            sg.DatasetManifest.load(bad)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such manifest"):
            sg.DatasetManifest.load(tmp_path / "nope.csv")


class TestRunConfig:
    def test_defaults(self):
        cfg = sg.RunConfig()
        assert (cfg.k, cfg.R, cfg.pca_dims, cfg.n_perm) == (31, 30, 18, 1000)
        assert cfg.lumping == "mixed"
        assert cfg.area_factor and not cfg.normalize
        assert cfg.jobs == 1 and cfg.cache_dir is None
        # the kernel bank is fixed, so no field names it
        assert [f.name for f in fields(cfg)] == [
            "k", "R", "pca_dims", "n_perm", "seed", "lumping",
            "area_factor", "normalize", "method", "cache_dir", "jobs",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=1),
            dict(R=0),
            dict(pca_dims=0),
            dict(n_perm=0),
            dict(jobs=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParam):
            sg.RunConfig(**kwargs)

    def test_kernel_id_is_not_a_setting(self):
        with pytest.raises(TypeError, match="kernel_id"):
            sg.RunConfig(kernel_id="sinc")

    def test_science_dict_excludes_machine_settings(self):
        cfg = sg.RunConfig(cache_dir="/tmp/x", jobs=8, **SMALL)
        science = cfg.science_dict()
        assert "cache_dir" not in science and "jobs" not in science
        assert science["k"] == 10 and science["method"] == "auto"
        assert set(science) == {
            "k", "R", "pca_dims", "n_perm", "seed",
            "lumping", "area_factor", "normalize", "method",
        }


class TestDescriptorCache:
    def test_cold_then_warm(self, tmp_path):
        mesh = sg.make_synthetic("bumpy_sphere", 1, seed=9)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)

        cold = RunDiagnostics()
        first = gsgw_for_mesh(mesh, cfg, cold)
        assert cold.eigensolves == 1
        assert cold.eigen_cache_hits == 0

        warm = RunDiagnostics()
        second = gsgw_for_mesh(mesh, cfg, warm)
        assert warm.eigensolves == 0
        assert warm.eigen_cache_hits == 1
        np.testing.assert_array_equal(first.values, second.values)

    def test_eigen_cache_serves_smaller_k(self, tmp_path):
        mesh = sg.make_synthetic("bumpy_sphere", 1, seed=9)
        big = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        gsgw_for_mesh(mesh, big, RunDiagnostics())

        small = replace(big, k=6)
        diag = RunDiagnostics()
        gsgw_for_mesh(mesh, small, diag)
        assert diag.eigensolves == 0
        assert diag.eigen_cache_hits == 1

    def test_larger_k_is_a_miss(self, tmp_path):
        mesh = sg.make_synthetic("bumpy_sphere", 1, seed=9)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        gsgw_for_mesh(mesh, cfg, RunDiagnostics())

        diag = RunDiagnostics()
        gsgw_for_mesh(mesh, replace(cfg, k=12), diag)
        assert diag.eigensolves == 1

    def test_corrupt_blob_is_a_miss(self, tmp_path):
        mesh = sg.make_synthetic("bumpy_sphere", 1, seed=9)
        cache = tmp_path / "cache"
        cfg = sg.RunConfig(cache_dir=str(cache), **SMALL)
        reference = gsgw_for_mesh(mesh, cfg, RunDiagnostics())

        for blob in cache.glob("*.sgwc"):
            blob.write_bytes(b"not a cache file")
        diag = RunDiagnostics()
        again = gsgw_for_mesh(mesh, cfg, diag)
        assert diag.eigensolves == 1
        np.testing.assert_array_equal(again.values, reference.values)

    def test_blob_layout(self, tmp_path):
        mesh = sg.make_synthetic("bumpy_sphere", 1, seed=9)
        cache = tmp_path / "cache"
        cfg = sg.RunConfig(cache_dir=str(cache), **SMALL)
        gsgw_for_mesh(mesh, cfg, RunDiagnostics())

        names = sorted(p.name for p in cache.glob("*.sgwc"))
        assert names == [f"spectrum-{mesh.content_hash}-{cfg.lumping}.sgwc"]
        magic, header = (cache / names[0]).read_bytes().split(b"\n")[:2]
        assert magic == b"SGWCACHE1"
        header = json.loads(header)
        assert header["kind"] == "spectrum"
        assert header["meta"]["k"] == cfg.k
        assert [a["name"] for a in header["arrays"]] == ["eigenvalues", "w_area", "w_plain"]

    def test_no_cache_dir_still_works(self):
        mesh = sg.make_synthetic("bumpy_sphere", 1, seed=9)
        cfg = sg.RunConfig(**SMALL)
        diag = RunDiagnostics()
        vec = gsgw_for_mesh(mesh, cfg, diag)
        assert diag.eigensolves == 1
        assert vec.values.shape == (sg.signature_length(cfg.R),)

    def test_concurrent_writes_of_one_blob(self, tmp_path, monkeypatch):
        # two threads writing the same blob (two manifest paths holding one
        # mesh, --jobs > 1) must not rename each other's temp file away
        barrier = threading.Barrier(2, timeout=10)
        real_replace = os.replace

        def replace_together(src, dst):
            barrier.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_together)
        path = tmp_path / "cache" / "blob.sgwc"
        payloads = [b"first" * 100, b"second" * 100]
        errors = []

        def write(payload):
            try:
                _atomic_write_bytes(path, payload)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(payload,)) for payload in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert path.read_bytes() in payloads
        assert [p.name for p in path.parent.iterdir()] == ["blob.sgwc"]


class TestStratumSeed:
    def test_deterministic_and_distinct(self):
        a = _stratum_seed(0, "femur", "left")
        assert a == _stratum_seed(0, "femur", "left")
        assert a != _stratum_seed(0, "femur", "right")
        assert a != _stratum_seed(0, "tibia", "left")
        assert a != _stratum_seed(1, "femur", "left")
        assert 0 <= a < 2**64


class TestRunGroupComparison:
    def test_two_class_run_shape(self, small_run):
        assert len(small_run.strata) == 1
        stratum = small_run.strata[0]
        assert stratum.error is None
        assert stratum.n_shapes == 6
        assert sorted(stratum.groups) == ["ellipsoid", "sphere"]
        comparison = stratum.comparison
        assert 0.0 < comparison.statistic <= 1.0
        assert 0.0 < comparison.manova_p <= 1.0
        # C(6, 3) = 20 label assignments, so the test enumerates
        assert comparison.n_permutations == 20

    def test_rerun_is_identical(self, two_class, small_run, tmp_path):
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "c2"), **SMALL)
        again = sg.run_group_comparison(two_class, cfg)
        assert again.report_dict() == small_run.report_dict()

    def test_parallel_matches_sequential(self, two_class, small_run, tmp_path):
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "c3"), jobs=3, **SMALL)
        parallel = sg.run_group_comparison(two_class, cfg)
        assert parallel.report_dict()["strata"] == small_run.report_dict()["strata"]

    def test_single_group_stratum_is_skipped(self, tmp_path):
        mesh_path = tmp_path / "m.off"
        sg.write_mesh(sg.make_synthetic("unit_sphere", 1), mesh_path)
        manifest_file = tmp_path / "manifest.csv"
        manifest_file.write_text(
            "path,subject,group,bone,side\n"
            "m.off,s1,only,femur,left\n"
            "m.off,s2,only,femur,left\n"
        )
        manifest = sg.DatasetManifest.load(manifest_file)
        run = sg.run_group_comparison(manifest, sg.RunConfig(**SMALL))
        stratum = run.strata[0]
        assert stratum.comparison is None
        assert "exactly 2 groups" in stratum.error
        assert stratum.error_kind == "usage"

    def test_corrupt_mesh_fails_only_its_stratum(self, tmp_path):
        out = tmp_path / "data"
        manifest_path = sg.make_two_class_manifest(out, n_per_group=3, subdivisions=1)
        # second stratum on the right side pointing at a broken file
        broken = out / "broken.off"
        broken.write_text("OFF\nnot numbers\n")
        extra_rows = [
            "broken.off,x00,sphere,synthetic,right",
            "sphere_000.off,x01,sphere,synthetic,right",
            "ellipsoid_000.off,x02,ellipsoid,synthetic,right",
            "ellipsoid_001.off,x03,ellipsoid,synthetic,right",
        ]
        with manifest_path.open("a") as handle:
            handle.write("\n".join(extra_rows) + "\n")
        manifest = sg.DatasetManifest.load(manifest_path)

        run = sg.run_group_comparison(manifest, sg.RunConfig(**SMALL))
        by_side = {s.side: s for s in run.strata}
        assert by_side["left"].error is None
        failed = by_side["right"]
        assert failed.comparison is None
        assert failed.error_kind == "usage"
        assert "x00" in failed.error and "[load]" in failed.error

    def test_stratum_results_independent_of_other_strata(self, tmp_path):
        out = tmp_path / "data"
        manifest_path = sg.make_two_class_manifest(out, n_per_group=3, subdivisions=1)
        solo = sg.run_group_comparison(
            sg.DatasetManifest.load(manifest_path), sg.RunConfig(**SMALL)
        )

        more_rows = [
            "sphere_000.off,y00,sphere,synthetic,right",
            "sphere_001.off,y01,sphere,synthetic,right",
            "ellipsoid_000.off,y02,ellipsoid,synthetic,right",
            "ellipsoid_001.off,y03,ellipsoid,synthetic,right",
        ]
        with manifest_path.open("a") as handle:
            handle.write("\n".join(more_rows) + "\n")
        both = sg.run_group_comparison(
            sg.DatasetManifest.load(manifest_path), sg.RunConfig(**SMALL)
        )
        left = [s for s in both.strata if s.side == "left"][0]
        assert left.row() == solo.strata[0].row()


class TestReports:
    def test_json_report(self, small_run, tmp_path):
        path = tmp_path / "report.json"
        small_run.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(small_run.report_dict()))
        assert "cache_dir" not in loaded["config"]
        assert loaded["strata"][0]["n_shapes"] == 6

    def test_csv_report(self, small_run, tmp_path):
        path = tmp_path / "report.csv"
        small_run.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(_REPORT_COLUMNS)
        cells = lines[1].split(",")
        row = dict(zip(_REPORT_COLUMNS, cells))
        assert row["groups"] == "sphere|ellipsoid"
        assert row["manova_significant"] in {"true", "false"}
        comparison = small_run.strata[0].comparison
        assert float(row["wilks_lambda"]) == comparison.statistic

    def test_summary_marks_significance(self):
        comparison = sg.GroupComparison(
            statistic=0.02,
            manova_p=0.001,
            permutation_p=0.3,
            pca_dims=2,
            n_permutations=100,
            seed=0,
        )
        stratum = sg.StratumResult(
            bone="femur", side="left", n_shapes=10,
            groups=("a", "b"), comparison=comparison,
        )
        result = sg.RunResult(strata=(stratum,), config=sg.RunConfig(**SMALL))
        table = result.summary_table()
        assert "0.001*" in table
        assert "0.3 " in table and "0.3*" not in table

    def test_summary_shows_skipped_strata(self):
        stratum = sg.StratumResult(
            bone="femur", side="left", n_shapes=3,
            groups=("a",), error="need exactly 2 groups", error_kind="usage",
        )
        result = sg.RunResult(strata=(stratum,), config=sg.RunConfig(**SMALL))
        assert "skipped: need exactly 2 groups" in result.summary_table()


class TestParameterSweep:
    def test_grid_and_cache_reuse(self, two_class, tmp_path):
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        sweep = sg.parameter_sweep(two_class, cfg, Rs=[2, 3], ks=[8, 10])
        assert len(sweep.cells) == 4  # one stratum, 2 x 2 grid
        assert [(c.R, c.k) for c in sweep.cells] == [(2, 8), (2, 10), (3, 8), (3, 10)]
        for cell in sweep.cells:
            assert cell.stratum.error is None
        # one eigensolve per mesh during pre-warming, everything else cached
        assert sweep.diagnostics.eigensolves == 6

        again = sg.parameter_sweep(two_class, cfg, Rs=[2, 3], ks=[8, 10])
        assert again.diagnostics.eigensolves == 0

    def test_sweep_csv(self, two_class, tmp_path):
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        sweep = sg.parameter_sweep(two_class, cfg, Rs=[2], ks=[8])
        path = tmp_path / "sweep.csv"
        sweep.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("R,k,")
        assert lines[1].startswith("2,8,")

    def test_cell_error_recorded_not_raised(self, two_class, tmp_path):
        # pca at 5 dims makes MANOVA rank-deficient for n = 6, per cell
        cfg = sg.RunConfig(
            cache_dir=str(tmp_path / "cache"), k=10, R=3,
            pca_dims=5, n_perm=50, seed=0,
        )
        sweep = sg.parameter_sweep(two_class, cfg, Rs=[3], ks=[10])
        cell = sweep.cells[0]
        assert cell.stratum.comparison is None
        assert cell.stratum.error_kind == "numerical"
        assert "[stats]" in cell.stratum.error

    @pytest.mark.parametrize("cached", [False, True])
    def test_bad_mesh_recorded_on_every_cell(self, tmp_path, cached):
        manifest_path = sg.make_two_class_manifest(tmp_path, n_per_group=3, subdivisions=1)
        bad = tmp_path / "sphere_001.off"
        lines = bad.read_text().splitlines(keepends=True)
        bad.write_text("".join(lines[: len(lines) // 2]))
        manifest = sg.DatasetManifest.load(manifest_path)
        cache_dir = str(tmp_path / "cache") if cached else None
        cfg = sg.RunConfig(cache_dir=cache_dir, **SMALL)

        sweep = sg.parameter_sweep(manifest, cfg, Rs=[2, 3], ks=[8, 10])
        assert len(sweep.cells) == 4
        for cell in sweep.cells:
            assert cell.stratum.comparison is None
            assert cell.stratum.error_kind == "usage"
            assert cell.stratum.error.startswith("s001 [load]: ")
            assert "truncated" in cell.stratum.error
        # the other five meshes are still solved, once each
        assert sweep.diagnostics.eigensolves == 5
        compare = sg.run_group_comparison(manifest, replace(cfg, k=10))
        assert compare.strata[0].error == sweep.cells[0].stratum.error

    def test_validation(self, two_class):
        cfg = sg.RunConfig(**SMALL)
        with pytest.raises(InvalidParam):
            sg.parameter_sweep(two_class, cfg, Rs=[], ks=[10])
        with pytest.raises(InvalidParam):
            sg.parameter_sweep(two_class, cfg, Rs=[3], ks=[1])


class TestSyntheticPopulations:
    def test_two_class_layout(self, tmp_path):
        manifest_path = sg.make_two_class_manifest(
            tmp_path, n_per_group=2, subdivisions=0
        )
        assert manifest_path.name == "manifest.csv"
        manifest = sg.DatasetManifest.load(manifest_path)
        groups = [entry.group for entry in manifest.entries]
        assert groups.count("sphere") == 2 and groups.count("ellipsoid") == 2
        assert sorted(p.name for p in tmp_path.glob("*.off")) == [
            "ellipsoid_000.off",
            "ellipsoid_001.off",
            "sphere_000.off",
            "sphere_001.off",
        ]

    def test_two_class_is_deterministic(self, tmp_path):
        a = sg.make_two_class_manifest(tmp_path / "a", n_per_group=2, subdivisions=0)
        b = sg.make_two_class_manifest(tmp_path / "b", n_per_group=2, subdivisions=0)
        assert a.read_bytes() == b.read_bytes()
        assert (a.parent / "sphere_000.off").read_bytes() == (
            b.parent / "sphere_000.off"
        ).read_bytes()

    def test_null_split_changes_labels_not_meshes(self, tmp_path):
        first = sg.make_null_manifest(tmp_path, n=6, subdivisions=0, split_seed=0)
        mesh_bytes = (tmp_path / "pop_000.off").read_bytes()
        second = sg.make_null_manifest(tmp_path, n=6, subdivisions=0, split_seed=1)
        assert first.name == "manifest_split0.csv"
        assert second.name == "manifest_split1.csv"
        assert (tmp_path / "pop_000.off").read_bytes() == mesh_bytes

        def labels(path):
            manifest = sg.DatasetManifest.load(path)
            return {e.subject: e.group for e in manifest.entries}

        first_labels, second_labels = labels(first), labels(second)
        assert set(first_labels.values()) == {"a", "b"}
        assert first_labels != second_labels

    def test_null_split_is_balanced(self, tmp_path):
        manifest = sg.DatasetManifest.load(
            sg.make_null_manifest(tmp_path, n=6, subdivisions=0, split_seed=3)
        )
        groups = [entry.group for entry in manifest.entries]
        assert groups.count("a") == 3 and groups.count("b") == 3

    def test_null_rejects_odd_or_tiny_population(self, tmp_path):
        with pytest.raises(InvalidParam):
            sg.make_null_manifest(tmp_path, n=5, subdivisions=0)
        with pytest.raises(InvalidParam):
            sg.make_null_manifest(tmp_path, n=2, subdivisions=0)
