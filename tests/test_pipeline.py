"""Manifest handling, caching, batch runs, sweeps, synthetic populations."""

import builtins
import csv
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import sgwshape as sg
import sgwshape.pipeline as pipeline
from conftest import first_pairs, full_basis, make_unreadable, write_two_tetrahedra
from sgwshape import eigen, gsgw, stats
from sgwshape.cli import main
from sgwshape.errors import InvalidParam, ParseError, ValidationError
from sgwshape.mesh_io import parse_mesh, read_mesh_bytes
from sgwshape.pipeline import (
    _REPORT_COLUMNS,
    _atomic_write_bytes,
    _csv_cells,
    _stratum_seed,
    RunDiagnostics,
    gsgw_for_mesh,
)

SMALL = dict(k=10, R=3, pca_dims=2, n_perm=50, seed=0)


def bumpy_file(directory, name="bumpy.off", seed=9):
    """A 42-vertex bumpy sphere written as OFF; returns its path."""
    path = Path(directory) / name
    sg.write_mesh(sg.make_synthetic("bumpy_sphere", 1, seed=seed), path)
    return path


def _earlier_format_blob(head, body):
    """A blob in the earlier JSON-header format whose header lacks total_area."""
    _, digest, lumping, _, _ = head.decode().split()
    values = np.frombuffer(body, dtype="<f8")
    k = len(values) // 2
    arrays = {"eigenvalues": values[1 : k + 1], "w_area": values[k + 1 :], "w_plain": np.ones(k)}
    header = {
        "kind": "spectrum",
        "meta": {"file_sha256": digest, "lumping": lumping, "method": "auto", "k": k},
        "arrays": [{"name": name, "dtype": "float64", "shape": [k]} for name in arrays],
    }
    text = b"SGWCACHE1\n" + (json.dumps(header, sort_keys=True) + "\n").encode()
    return text + b"".join(arr.tobytes() for arr in arrays.values())


def _with_value(body, index, value):
    """A blob body (total area, K eigenvalues, K weights) with float index set to value."""
    values = np.frombuffer(body, dtype="<f8").copy()
    values[index] = value
    return values.tobytes()


def _with_low_bit_flipped(body, index):
    """A blob body with the lowest mantissa bit of float index flipped."""
    bits = np.frombuffer(body, dtype="<u8").copy()
    bits[index] ^= 1
    return bits.tobytes()


def _signed(head, body):
    """The blob of head's key holding body, its head line ending in body's digest."""
    key = head.rsplit(b" ", 1)[0]
    return key + b" " + hashlib.sha256(body).hexdigest().encode() + b"\n" + body


# each maps a valid blob's (head line, body) to a malformed blob
MALFORMED_BLOBS = {
    "not-a-cache-file": lambda head, body: b"not a cache file",
    "earlier-format-without-total-area": _earlier_format_blob,
    "truncated-body": lambda head, body: head + b"\n" + body[: len(body) // 2 + 3],
    "one-float-short": lambda head, body: head + b"\n" + body[:-8],
    "one-float-long": lambda head, body: head + b"\n" + body + body[-8:],
    "trailing-byte": lambda head, body: head + b"\n" + body + b"\0",
    "empty-file": lambda head, body: b"",
    "head-line-only": lambda head, body: head + b"\n",
    "total-area-only": lambda head, body: _signed(head, body[:8]),
    # an edited body under the head line of the one it replaced
    "one-weight-bit-flipped": lambda head, body: head + b"\n" + _with_low_bit_flipped(body, -1),
    "nan-total-area": lambda head, body: head + b"\n" + _with_value(body, 0, np.nan),
    # the right shape and body digest, but values that no solve writes
    "nan-eigenvalue": lambda head, body: _signed(head, _with_value(body, 3, np.nan)),
    "infinite-weight": lambda head, body: _signed(head, _with_value(body, -1, np.inf)),
    "zero-total-area": lambda head, body: _signed(head, _with_value(body, 0, 0.0)),
    "negative-total-area": lambda head, body: _signed(head, _with_value(body, 0, -1.0)),
    "negative-first-eigenvalue": lambda head, body: _signed(head, _with_value(body, 1, -1e-300)),
    "descending-eigenvalues": lambda head, body: _signed(head, _with_value(body, 3, 0.0)),
    "negative-weight": lambda head, body: _signed(head, _with_value(body, -1, -1e-300)),
}


def _set_blob_value(blob_path, index, value):
    """Overwrite float index of the blob's body with value, and its digest to match;
    returns the blob's earlier bytes."""
    written = blob_path.read_bytes()
    head, body = written.split(b"\n", 1)
    blob_path.write_bytes(_signed(head, _with_value(body, index, value)))
    return written


def _malform(blob_path, case):
    head, body = blob_path.read_bytes().split(b"\n", 1)
    blob_path.write_bytes(MALFORMED_BLOBS[case](head, body))


@pytest.fixture(scope="module")
def two_class(tmp_path_factory):
    out = tmp_path_factory.mktemp("twoclass")
    manifest_path = sg.make_two_class_manifest(out, n_per_group=3, subdivisions=1)
    return sg.DatasetManifest.load(manifest_path)


@pytest.fixture(scope="module")
def two_strata(tmp_path_factory):
    """The n = 6 two-class population as a left stratum and, rows reversed, a right one."""
    out = tmp_path_factory.mktemp("twostrata")
    manifest_path = sg.make_two_class_manifest(out, n_per_group=3, subdivisions=1)
    header, *rows = manifest_path.read_text().splitlines()
    right = [row.replace(",left", ",right") for row in reversed(rows)]
    manifest_path.write_text("\n".join([header, *rows, *right]) + "\n")
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

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a leading BOM
        plain = sg.make_two_class_manifest(tmp_path, n_per_group=2, subdivisions=0)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        assert sg.DatasetManifest.load(marked) == sg.DatasetManifest.load(plain)

    def test_rejects_bytes_that_are_not_utf8(self, tmp_path):
        plain = sg.make_two_class_manifest(tmp_path, n_per_group=2, subdivisions=0)
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(Path(plain).read_bytes().replace(b"sphere", b"sph\xe9re", 1))
        with pytest.raises(ParseError, match="not UTF-8 text"):
            sg.DatasetManifest.load(latin1)

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

    def test_rejects_empty_file(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("")
        with pytest.raises(ValidationError) as raised:
            sg.DatasetManifest.load(bad)
        assert str(raised.value) == f"{bad}: empty manifest"

    def test_blank_rows_are_skipped(self, tmp_path):
        plain = Path(sg.make_two_class_manifest(tmp_path, n_per_group=2, subdivisions=0))
        header, *rows = plain.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join([header, "", *rows[:2], ",,,,", " ", *rows[2:], ""]) + "\n")
        assert sg.DatasetManifest.load(spaced) == sg.DatasetManifest.load(plain)

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
        assert (cfg.k, cfg.R, cfg.pca_dims, cfg.n_perm) == (31, 30, 8, 1000)
        assert cfg.lumping == "mixed"
        assert cfg.area_factor and not cfg.normalize
        assert cfg.cache_dir is None
        # the kernel bank is fixed, so no field names it
        assert [f.name for f in fields(cfg)] == [
            "k", "R", "pca_dims", "n_perm", "seed", "lumping",
            "area_factor", "normalize", "cache_dir",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=1),
            dict(R=0),
            dict(pca_dims=0),
            dict(n_perm=0),
            dict(lumping="bogus"),
            # integer fields take integers only, bools excluded
            dict(k=10.5),
            dict(R=2.5),
            dict(pca_dims=2.5),
            dict(n_perm=10.5),
            dict(seed=1.5),
            dict(R=True),
            dict(k="10"),
            dict(area_factor="no"),
            dict(normalize=1),
            dict(cache_dir=3),
            # nothing to normalize: without the area factor the descriptor has no size
            dict(normalize=True, area_factor=False),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParam):
            sg.RunConfig(**kwargs)

    def test_numpy_integer_is_stored_as_int(self, tmp_path):
        cfg = sg.RunConfig(k=np.int64(11))
        assert type(cfg.k) is int and cfg.k == 11
        path = tmp_path / "report.json"
        sg.RunResult(strata=(), config=cfg).write_json(path)
        assert json.loads(path.read_text())["config"]["k"] == 11

    def test_bogus_lumping_loads_no_mesh(self, two_class, monkeypatch):
        read = []

        def counting_read(path):
            read.append(path)
            return read_mesh_bytes(path)

        monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
        with pytest.raises(InvalidParam, match="unknown lumping 'bogus'"):
            sg.run_group_comparison(two_class, sg.RunConfig(lumping="bogus", **SMALL))
        assert read == []

    def test_cache_dir_that_is_a_file_loads_no_mesh(self, two_class, tmp_path, monkeypatch):
        read = []

        def counting_read(path):
            read.append(path)
            return read_mesh_bytes(path)

        monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_bytes(b"a file")
        with pytest.raises(InvalidParam, match="not a directory"):
            sg.run_group_comparison(two_class, sg.RunConfig(cache_dir=str(not_a_dir), **SMALL))
        assert read == []
        assert not_a_dir.read_bytes() == b"a file"

    def test_empty_cache_dir_loads_no_mesh(self, two_class, tmp_path, monkeypatch):
        read = []

        def counting_read(path):
            read.append(path)
            return read_mesh_bytes(path)

        monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(InvalidParam, match="cache_dir must not be empty"):
            sg.run_group_comparison(two_class, sg.RunConfig(cache_dir="", **SMALL))
        assert read == [] and list(tmp_path.iterdir()) == []

    def test_cache_dir_under_a_file_loads_no_mesh(self, two_class, tmp_path, monkeypatch):
        read = []

        def counting_read(path):
            read.append(path)
            return read_mesh_bytes(path)

        monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
        a_file = tmp_path / "afile"
        a_file.write_bytes(b"a file")
        for cache_dir in (a_file / "sub", a_file / "sub" / "deeper"):
            with pytest.raises(InvalidParam, match=f"{a_file} is not a directory"):
                sg.run_group_comparison(two_class, sg.RunConfig(cache_dir=str(cache_dir), **SMALL))
        assert read == []
        assert a_file.read_bytes() == b"a file"

    def test_kernel_id_is_not_a_setting(self):
        with pytest.raises(TypeError, match="kernel_id"):
            sg.RunConfig(kernel_id="sinc")

    def test_jobs_is_not_a_setting(self):
        # the worker count follows the usable CPUs, so no field sets it
        with pytest.raises(TypeError, match="jobs"):
            sg.RunConfig(jobs=2)

    def test_method_is_not_a_setting(self):
        # a run has one solver route, so no field sets it
        with pytest.raises(TypeError, match="method"):
            sg.RunConfig(method="dense")

    def test_science_dict_excludes_machine_settings(self):
        cfg = sg.RunConfig(cache_dir="/tmp/x", **SMALL)
        science = cfg.science_dict()
        assert "cache_dir" not in science
        assert science["k"] == 10
        assert set(science) == {
            "k", "R", "pca_dims", "n_perm", "seed", "lumping", "area_factor", "normalize",
        }


class TestDescriptorCache:
    def test_cold_then_warm(self, tmp_path):
        mesh = bumpy_file(tmp_path)
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

    def test_many_meshes_solve_once_each_and_raise_the_first_failure(self, tmp_path):
        good, other = bumpy_file(tmp_path), bumpy_file(tmp_path, "other.off", seed=3)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        diag = RunDiagnostics()
        vectors = pipeline._gsgw_vectors([good, other, good], cfg, diag)
        assert (diag.eigensolves, diag.eigen_cache_hits) == (2, 0)
        for path, vector in zip([good, other, good], vectors):
            np.testing.assert_array_equal(vector.values, gsgw_for_mesh(path, cfg).values)

        truncated = tmp_path / "truncated.off"
        text = good.read_text()
        truncated.write_text(text[: len(text) // 2])
        missing = tmp_path / "missing.off"
        with pytest.raises(ParseError, match="truncated.off"):
            pipeline._gsgw_vectors([good, truncated, missing], cfg)
        with pytest.raises(ParseError, match="missing.off: no such file"):
            pipeline._gsgw_vectors([missing, truncated], cfg)

    def test_eigen_cache_serves_smaller_k(self, tmp_path):
        mesh = bumpy_file(tmp_path)
        big = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        gsgw_for_mesh(mesh, big, RunDiagnostics())

        small = replace(big, k=6)
        diag = RunDiagnostics()
        gsgw_for_mesh(mesh, small, diag)
        assert diag.eigensolves == 0
        assert diag.eigen_cache_hits == 1

    def test_every_k_of_a_window_is_served_by_one_blob(self, tmp_path):
        # the first solve of window 39 stores its 31 pairs, so a larger k of the
        # window is served as well as a smaller one
        mesh = bumpy_file(tmp_path)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        for k, solves in ((10, 1), (31, 0), (2, 0)):
            diag = RunDiagnostics()
            got = gsgw_for_mesh(mesh, replace(cfg, k=k), diag)
            assert (diag.eigensolves, diag.eigen_cache_hits) == (solves, 1 - solves)
            uncached = gsgw_for_mesh(mesh, replace(cfg, k=k, cache_dir=None))
            np.testing.assert_array_equal(got.values, uncached.values)
        assert len(list((tmp_path / "cache").iterdir())) == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_BLOBS))
    def test_malformed_blob_is_a_miss(self, tmp_path, case):
        mesh = bumpy_file(tmp_path)
        cache = tmp_path / "cache"
        cfg = sg.RunConfig(cache_dir=str(cache), **SMALL)
        reference = gsgw_for_mesh(mesh, cfg, RunDiagnostics())

        (blob,) = cache.glob("*.sgwc")
        _malform(blob, case)
        diag = RunDiagnostics()
        again = gsgw_for_mesh(mesh, cfg, diag)
        assert diag.eigensolves == 1 and diag.eigen_cache_hits == 0
        np.testing.assert_array_equal(again.values, reference.values)

    def test_tied_eigenvalues_and_a_zero_weight_are_a_hit(self, tmp_path):
        mesh = bumpy_file(tmp_path)
        cache = tmp_path / "cache"
        cfg = sg.RunConfig(cache_dir=str(cache), **SMALL)
        gsgw_for_mesh(mesh, cfg, RunDiagnostics())

        (blob,) = cache.glob("*.sgwc")
        values = np.frombuffer(blob.read_bytes().split(b"\n", 1)[1], dtype="<f8")
        stored_k = len(values) // 2
        _set_blob_value(blob, 3, values[2])
        _set_blob_value(blob, stored_k + 3, 0.0)
        diag = RunDiagnostics()
        gsgw_for_mesh(mesh, cfg, diag)
        assert diag.eigensolves == 0 and diag.eigen_cache_hits == 1

    def test_blob_layout(self, tmp_path):
        mesh = bumpy_file(tmp_path)
        cache = tmp_path / "cache"
        cfg = sg.RunConfig(cache_dir=str(cache), **SMALL)
        gsgw_for_mesh(mesh, cfg, RunDiagnostics())

        digest = hashlib.sha256(mesh.read_bytes()).hexdigest()
        names = sorted(p.name for p in cache.glob("*.sgwc"))
        # k = 10 and its 8-pair buffer fit the first window, 39 pairs
        assert names == [f"spectrum-{digest}-{cfg.lumping}-39.sgwc"]
        head, body = (cache / names[0]).read_bytes().split(b"\n", 1)
        body_digest = hashlib.sha256(body).hexdigest()
        assert head == f"SGWSPEC5 {digest} {cfg.lumping} 39 {body_digest}".encode()
        # the blob holds every pair of its window, 39 less the buffer, at any k of it
        assert len(body) == 8 * (2 * 31 + 1)
        areas = sg.laplacian_matrices(sg.load_mesh(mesh), lumping=cfg.lumping)[1].diagonal()
        assert np.frombuffer(body, dtype="<f8")[0] == areas.sum()

    def test_window_is_part_of_the_key(self, tmp_path):
        # a blob of 41 pairs (window 78, all that m = 42 allows) holds the 10 that
        # k = 10 asks for, but k = 10 is solved in window 39, whose pairs differ
        # in the last bits
        mesh = bumpy_file(tmp_path)
        cache = tmp_path / "cache"
        wide = sg.RunConfig(cache_dir=str(cache), **{**SMALL, "k": 40})
        gsgw_for_mesh(mesh, wide, RunDiagnostics())

        narrow = replace(wide, k=10)
        diag = RunDiagnostics()
        got = gsgw_for_mesh(mesh, narrow, diag)
        assert diag.eigensolves == 1 and diag.eigen_cache_hits == 0
        assert sorted(p.name.rsplit("-", 1)[1] for p in cache.iterdir()) == [
            "39.sgwc", "78.sgwc",
        ]
        uncached = gsgw_for_mesh(mesh, replace(narrow, cache_dir=None))
        np.testing.assert_array_equal(got.values, uncached.values)

    def test_earlier_format_blob_is_never_read(self, tmp_path, monkeypatch):
        # an SGWSPEC2 blob, keyed by the solver method, sits under a name no
        # lookup asks for: the first run solves, and the next one is served
        mesh = bumpy_file(tmp_path)
        cache = tmp_path / "cache"
        cfg = sg.RunConfig(cache_dir=str(cache), **SMALL)
        digest = hashlib.sha256(mesh.read_bytes()).hexdigest()
        earlier = cache / f"spectrum-{digest}-{cfg.lumping}-auto.sgwc"
        cache.mkdir()
        earlier.write_bytes(f"SGWSPEC2 {digest} {cfg.lumping} auto\n".encode() + bytes(8 * 21))
        looked_up = []
        cached_summary = pipeline._cached_summary

        def recording_lookup(cache_path, head):
            looked_up.append(os.path.basename(cache_path))
            return cached_summary(cache_path, head)

        monkeypatch.setattr(pipeline, "_cached_summary", recording_lookup)
        for solves, hits in ((1, 0), (0, 1)):
            diag = RunDiagnostics()
            gsgw_for_mesh(mesh, cfg, diag)
            assert (diag.eigensolves, diag.eigen_cache_hits) == (solves, hits)
        assert earlier.name not in looked_up
        assert len(list(cache.iterdir())) == 2

    @pytest.mark.parametrize(
        "tag, earlier_basis",
        [
            ("SGWSPEC3", lambda w, a: sg.solve_eigen(w, a, 11)),
            ("SGWSPEC4", lambda w, a: first_pairs(full_basis(w, a), 31)),
        ],
        ids=["SGWSPEC3", "SGWSPEC4"],
    )
    def test_earlier_format_blob_under_the_same_name_is_overwritten(
        self, tmp_path, tag, earlier_basis
    ):
        # an SGWSPEC3 blob was written at the k that asked for it, so its 11
        # pairs would read as a mesh that takes no more than 11. An SGWSPEC4 blob
        # of a mesh of m <= 600 holds the pairs of a dense eigh, which differ in
        # the last bits from the Lanczos pairs a cold run now stores
        mesh = bumpy_file(tmp_path)
        cache = tmp_path / "cache"
        cfg = sg.RunConfig(cache_dir=str(cache), **{**SMALL, "k": 31})
        digest = hashlib.sha256(mesh.read_bytes()).hexdigest()
        stiffness, mass = sg.laplacian_matrices(sg.load_mesh(mesh), lumping=cfg.lumping)
        summary = gsgw.summarize(earlier_basis(stiffness, mass))
        head = f"{tag} {digest} {cfg.lumping} 39 ".encode()
        earlier = cache / f"spectrum-{digest}-{cfg.lumping}-39.sgwc"
        cache.mkdir()
        earlier.write_bytes(pipeline._blob(head, summary))

        diag = RunDiagnostics()
        got = gsgw_for_mesh(mesh, cfg, diag)
        assert (diag.eigensolves, diag.eigen_cache_hits) == (1, 0)
        assert earlier.read_bytes().startswith(f"SGWSPEC5 {digest} ".encode())
        assert [p.name for p in cache.iterdir()] == [earlier.name]
        uncached = gsgw_for_mesh(mesh, replace(cfg, cache_dir=None))
        np.testing.assert_array_equal(got.values, uncached.values)

    def test_rewritten_file_is_a_miss(self, tmp_path):
        mesh = bumpy_file(tmp_path)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        before = gsgw_for_mesh(mesh, cfg, RunDiagnostics())

        bumpy_file(tmp_path, seed=10)
        diag = RunDiagnostics()
        after = gsgw_for_mesh(mesh, cfg, diag)
        assert diag.eigensolves == 1 and diag.eigen_cache_hits == 0
        assert not np.array_equal(after.values, before.values)
        uncached = gsgw_for_mesh(mesh, replace(cfg, cache_dir=None))
        np.testing.assert_array_equal(after.values, uncached.values)

    def test_blob_under_another_files_name_is_a_miss(self, tmp_path):
        first = bumpy_file(tmp_path, "first.off", seed=9)
        second = bumpy_file(tmp_path, "second.off", seed=10)
        cache = tmp_path / "cache"
        cfg = sg.RunConfig(cache_dir=str(cache), **SMALL)
        gsgw_for_mesh(first, cfg, RunDiagnostics())
        (blob,) = cache.glob("*.sgwc")
        digest = hashlib.sha256(second.read_bytes()).hexdigest()
        shutil.copyfile(blob, cache / f"spectrum-{digest}-{cfg.lumping}-39.sgwc")

        diag = RunDiagnostics()
        got = gsgw_for_mesh(second, cfg, diag)
        assert diag.eigensolves == 1 and diag.eigen_cache_hits == 0
        uncached = gsgw_for_mesh(second, replace(cfg, cache_dir=None))
        np.testing.assert_array_equal(got.values, uncached.values)

    def test_unknown_extension_is_never_served(self, tmp_path):
        mesh = bumpy_file(tmp_path)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        gsgw_for_mesh(mesh, cfg, RunDiagnostics())
        same_bytes = shutil.copyfile(mesh, tmp_path / "bumpy.stl")
        with pytest.raises(ParseError, match="format"):
            gsgw_for_mesh(same_bytes, cfg, RunDiagnostics())

    def test_no_cache_dir_still_works(self, tmp_path):
        mesh = bumpy_file(tmp_path)
        cfg = sg.RunConfig(**SMALL)
        diag = RunDiagnostics()
        vec = gsgw_for_mesh(mesh, cfg, diag)
        assert diag.eigensolves == 1
        assert vec.values.shape == (sg.signature_length(cfg.R),)

    def test_concurrent_writes_of_one_blob(self, tmp_path, monkeypatch):
        # two threads of one process writing the same blob (a library caller
        # running two comparisons on one cache) must not rename each other's
        # temp file away
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

    def test_the_length_unit_moves_no_result(self, tmp_path):
        # one population written at three scales; the solver's checks carry no
        # unit and a uniform scale of every descriptor leaves the MANOVA as it
        # is (the files keep 12 significant digits, so the reports are not bitwise equal)
        source = sg.make_two_class_manifest(tmp_path / "source", n_per_group=4, subdivisions=2)
        cfg = sg.RunConfig(k=20, R=10, pca_dims=4, n_perm=200)
        found = []
        for c in (1e-3, 1.0, 1e3):
            out = tmp_path / f"c{c:g}"
            out.mkdir()
            shutil.copy(source, out / "manifest.csv")
            for entry in sg.DatasetManifest.load(source).entries:
                mesh = sg.load_mesh(entry.path)
                scaled = sg.TriangleMesh(c * mesh.vertices, mesh.triangles)
                sg.write_mesh(scaled, out / Path(entry.path).name)
            run = sg.run_group_comparison(sg.DatasetManifest.load(out / "manifest.csv"), cfg)
            found.append(run.strata[0].comparison)
        for got in (found[0], found[2]):
            assert got.statistic == pytest.approx(found[1].statistic, rel=1e-8)
            assert got.manova_p == pytest.approx(found[1].manova_p, rel=1e-8)
            assert got.permutation_p == found[1].permutation_p

    def test_cache_filled_at_a_larger_k_gives_the_cold_report(self, sparse_class, tmp_path):
        # the eigensolver's pairs depend in the last bits on how many it
        # solves: k = 11 and k = 31 both solve the window of 39
        cold = sg.run_group_comparison(sparse_class, sg.RunConfig(k=11, pca_dims=2))
        cache = str(tmp_path / "cache")
        sg.run_group_comparison(sparse_class, sg.RunConfig(k=31, pca_dims=2, cache_dir=cache))
        warm = sg.run_group_comparison(
            sparse_class, sg.RunConfig(k=11, pca_dims=2, cache_dir=cache)
        )
        assert warm.diagnostics.eigensolves == 0
        assert warm.report_dict() == cold.report_dict()
        sweep = sg.parameter_sweep(sparse_class, sg.RunConfig(pca_dims=2), Rs=[30], ks=[31, 11])
        assert sweep.cells[1].k == 11 and sweep.cells[1].stratum == cold.strata[0]

    def test_flipped_bit_in_a_weight_is_solved_again(self, two_class, small_run, tmp_path):
        # a plausible value passes every range check; the body digest catches it
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        sg.run_group_comparison(two_class, cfg)
        blob = sorted((tmp_path / "cache").glob("*.sgwc"))[0]
        written = blob.read_bytes()
        head, body = written.split(b"\n", 1)
        blob.write_bytes(head + b"\n" + _with_low_bit_flipped(body, cfg.k + 2))

        again = sg.run_group_comparison(two_class, cfg)
        assert (again.diagnostics.eigensolves, again.diagnostics.eigen_cache_hits) == (1, 5)
        assert again.report_dict() == small_run.report_dict()
        assert blob.read_bytes() == written

    def test_no_call_reaches_numpys_lapack(self, two_class, small_run, tmp_path, monkeypatch):
        # numpy's and scipy's wheels bundle separate OpenBLAS thread pools; the
        # eigensolver and the stats run in scipy's alone
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd was called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        assert sg.run_group_comparison(two_class, cfg).report_dict() == small_run.report_dict()

    def test_warm_run_parses_nothing(self, two_class, tmp_path, monkeypatch):
        parsed = []
        # the spy records in this process, so the cold run's meshes are parsed here too
        monkeypatch.setattr(pipeline, "_pool_size", lambda misses: 1)

        def counting_parse(data, path):
            parsed.append(path)
            return parse_mesh(data, path)

        monkeypatch.setattr(pipeline, "parse_mesh", counting_parse)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        cold = sg.run_group_comparison(two_class, cfg)
        assert len(parsed) == cold.diagnostics.eigensolves == 6

        parsed.clear()
        warm = sg.run_group_comparison(two_class, cfg)
        assert parsed == []
        assert warm.diagnostics.eigensolves == 0
        assert warm.diagnostics.eigen_cache_hits == 6
        for tag, result in (("cold", cold), ("warm", warm)):
            result.write_json(tmp_path / f"{tag}.json")
            result.write_csv(tmp_path / f"{tag}.csv")
        for ext in ("json", "csv"):
            cold_bytes = (tmp_path / f"cold.{ext}").read_bytes()
            assert (tmp_path / f"warm.{ext}").read_bytes() == cold_bytes

    def test_malformed_blob_in_cache_matches_cold_run(self, two_class, tmp_path):
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        cold = sg.run_group_comparison(two_class, cfg)
        blob = sorted((tmp_path / "cache").glob("*.sgwc"))[0]
        _malform(blob, "earlier-format-without-total-area")

        again = sg.run_group_comparison(two_class, cfg)
        assert again.diagnostics.eigensolves == 1
        assert again.diagnostics.eigen_cache_hits == 5
        assert again.report_dict() == cold.report_dict()

    def test_blob_of_values_no_solve_gives_is_rewritten(self, two_class, tmp_path):
        # a NaN eigenvalue in the cache used to fail the descriptor of every later run
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        cold = sg.run_group_comparison(two_class, cfg)
        blob = sorted((tmp_path / "cache").glob("*.sgwc"))[0]
        written = _set_blob_value(blob, 3, np.nan)

        warm = sg.run_group_comparison(two_class, cfg)
        assert warm.diagnostics.eigensolves == 1
        assert warm.diagnostics.eigen_cache_hits == 5
        assert warm.report_dict() == cold.report_dict()
        assert blob.read_bytes() == written

    def test_unrepresentable_scale_grid_fails_only_its_stratum(self, tmp_path, capsys):
        # a blob whose eigenvalues ramp from 0 to 5e-324 passes the cache's checks,
        # but lambda_k / 20 is zero: the run used to die in a ZeroDivisionError
        data = tmp_path / "data"
        manifest = sg.make_two_class_manifest(data, n_per_group=3, subdivisions=2)
        header, *rows = manifest.read_text().splitlines()
        right = [row.replace(",left", ",right") for row in rows if "sphere_000" not in row]
        manifest.write_text("\n".join([header, *rows, *right]) + "\n")
        cache = tmp_path / "cache"

        def compare(out):
            return main(["compare", str(manifest), "--pca-dims", "2", "--n-perm", "50",
                         "--cache-dir", str(cache), "--out-dir", str(tmp_path / out)])

        assert compare("cold") == 0
        digest = hashlib.sha256((data / "sphere_000.off").read_bytes()).hexdigest()
        (blob,) = cache.glob(f"spectrum-{digest}-*.sgwc")
        head, body = blob.read_bytes().split(b"\n", 1)
        values = np.frombuffer(body, dtype="<f8").copy()
        stored_k = len(values) // 2
        values[1 : stored_k + 1] = np.linspace(0.0, 5e-324, stored_k)
        blob.write_bytes(_signed(head, values.tobytes()))
        assert pipeline._cached_summary(blob, head.rsplit(b" ", 1)[0] + b" ") is not None
        capsys.readouterr()

        assert compare("warm") == 0
        assert "Traceback" not in capsys.readouterr().err
        cold, warm = (
            {s["side"]: s for s in json.loads((tmp_path / out / "report.json").read_text())["strata"]}
            for out in ("cold", "warm")
        )
        assert warm["right"] == cold["right"] and warm["right"]["error"] is None
        assert warm["left"]["error"] == (
            "s000 [descriptor]: largest eigenvalue 5e-324 has no representable scale grid: "
            "lambda_max / 20 must be a positive normal float"
        )

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

    def test_two_component_mesh_fails_its_stratum(self, tmp_path):
        out = tmp_path / "data"
        manifest_path = sg.make_two_class_manifest(out, n_per_group=3, subdivisions=1)
        write_two_tetrahedra(out / "two.off")
        extra_rows = [
            "two.off,x00,sphere,synthetic,right",
            "sphere_000.off,x01,sphere,synthetic,right",
            "ellipsoid_000.off,x02,ellipsoid,synthetic,right",
            "ellipsoid_001.off,x03,ellipsoid,synthetic,right",
        ]
        with manifest_path.open("a") as handle:
            handle.write("\n".join(extra_rows) + "\n")
        run = sg.run_group_comparison(sg.DatasetManifest.load(manifest_path), sg.RunConfig(**SMALL))
        by_side = {s.side: s for s in run.strata}
        assert by_side["left"].error is None
        failed = by_side["right"]
        assert failed.comparison is None and failed.error_kind == "usage"
        assert failed.error == (
            f"x00 [load]: {out / 'two.off'}: mesh has 2 connected components (vertex counts 4, 4)"
        )

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

    def quoting_run(self):
        """Strata whose bone, groups and error hold CSV delimiters."""
        comparison = sg.GroupComparison(
            statistic=0.02, manova_p=0.001, permutation_p=0.3, n_permutations=100
        )
        strata = (
            sg.StratumResult(
                bone="hamate, left hand", side="left", n_shapes=10,
                groups=("sphere,x", "ellipsoid,x"), comparison=comparison,
            ),
            sg.StratumResult(
                bone='a "b"\r', side="right", n_shapes=3, groups=("a",),
                error='need 2 groups, got "a"\nonly', error_kind="usage",
            ),
            sg.StratumResult(
                bone="femur", side="left", n_shapes=10, groups=("a", "b"), comparison=comparison
            ),
        )
        return sg.RunResult(strata=strata, config=sg.RunConfig(**SMALL))

    def test_csv_quotes_cells_holding_delimiters(self, tmp_path):
        result = self.quoting_run()
        result.write_csv(tmp_path / "report.csv")
        cells = [pipeline.SweepCell(R=3, k=10, stratum=s) for s in result.strata]
        pipeline.SweepResult(cells=tuple(cells)).write_csv(tmp_path / "sweep.csv")
        for name, lead in (("report.csv", []), ("sweep.csv", ["3", "10"])):
            with (tmp_path / name).open(newline="") as handle:
                header, *rows = csv.reader(handle)
            assert header == ["R", "k", *_REPORT_COLUMNS][2 - len(lead):]
            assert [len(row) for row in rows] == [len(header)] * 3
            first, second, _ = (dict(zip(header, row)) for row in rows)
            assert first["bone"] == "hamate, left hand"
            assert first["groups"] == "sphere,x|ellipsoid,x"
            assert first["wilks_lambda"] == "0.02" and first["error"] == ""
            assert second["bone"] == 'a "b"\r' and second["side"] == "right"
            assert second["error"] == 'need 2 groups, got "a"\nonly'

    def test_plain_csv_rows_are_unquoted(self, tmp_path):
        self.quoting_run().write_csv(tmp_path / "report.csv")
        lines = (tmp_path / "report.csv").read_bytes().split(b"\n")
        assert lines[-2] == b"femur,left,10,a|b,0.02,0.001,0.3,true,false,100,"

    def test_summary_marks_significance(self):
        comparison = sg.GroupComparison(
            statistic=0.02,
            manova_p=0.001,
            permutation_p=0.3,
            n_permutations=100,
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


class TestFailedStrata:
    """A stratum that cannot be compared: its row from compare and from each sweep cell."""

    @staticmethod
    def assert_fails_alike(directory, rows, error):
        """Load the manifest of rows (path, subject, group); every result carries error."""
        manifest_path = directory / "failing.csv"
        lines = [",".join(pipeline.MANIFEST_HEADER)]
        lines += [f"{path},{subject},{group},synthetic,left" for path, subject, group in rows]
        manifest_path.write_text("\n".join(lines) + "\n")
        manifest = sg.DatasetManifest.load(manifest_path)
        cfg = sg.RunConfig(**SMALL)

        (compared,) = sg.run_group_comparison(manifest, cfg).strata
        sweep = sg.parameter_sweep(manifest, cfg, Rs=[2, 3], ks=[8, 10])
        assert len(sweep.cells) == 4
        for stratum in (compared, *(cell.stratum for cell in sweep.cells)):
            assert stratum.comparison is None
            assert stratum.error == error
            assert stratum.error_kind == "usage"

    @pytest.mark.parametrize(
        "n_spheres, error",
        [
            (2, "[stats] need at least 4 rows, got 3"),
            (3, "[stats] group 'ellipsoid' has fewer than 2 members"),
        ],
    )
    def test_stats_rejects_the_matrix(self, tmp_path, n_spheres, error):
        # n_spheres spheres and one ellipsoid
        sg.make_two_class_manifest(tmp_path, n_per_group=3, subdivisions=1)
        rows = [(f"sphere_{i:03d}.off", f"s{i}", "sphere") for i in range(n_spheres)]
        rows.append(("ellipsoid_000.off", "e0", "ellipsoid"))
        self.assert_fails_alike(tmp_path, rows, error)

    def test_first_bad_mesh_in_manifest_order_names_the_error(self, tmp_path):
        sg.make_two_class_manifest(tmp_path, n_per_group=3, subdivisions=1)
        lines = (tmp_path / "sphere_000.off").read_text().splitlines(keepends=True)
        truncated = "".join(lines[: len(lines) // 2])
        # the later shape in the manifest sorts first by path and by subject
        (tmp_path / "z_bad.off").write_text(truncated)
        (tmp_path / "a_bad.off").write_text(truncated)
        rows = [
            ("z_bad.off", "s9", "sphere"),
            ("sphere_001.off", "s2", "sphere"),
            ("a_bad.off", "s1", "ellipsoid"),
            ("ellipsoid_001.off", "s3", "ellipsoid"),
        ]
        bad = tmp_path / "z_bad.off"
        error = (
            f"s9 [load]: {bad}:2: face count 80 exceeds the file's 62 lines "
            "(truncated or corrupt file)"
        )
        self.assert_fails_alike(tmp_path, rows, error)


class TestWalkOverStrata:
    """Which mesh files a run reads and solves, and in which order, across strata."""

    # rows out of stratum order: hamate has one group; scaphoid shares a good
    # file (sphere_000) and a truncated one (cut) with lunate
    ROWS = [
        "ellipsoid_001.off,c1,ellipsoid,scaphoid,left",
        "cut.off,c2,sphere,scaphoid,left",
        "sphere_000.off,c3,sphere,scaphoid,left",
        "ellipsoid_002.off,c4,ellipsoid,scaphoid,left",
        "sphere_002.off,h1,sphere,hamate,left",
        "only_hamate.off,h2,sphere,hamate,left",
        "sphere_000.off,l1,sphere,lunate,left",
        "sphere_001.off,l2,sphere,lunate,left",
        "cut.off,l3,ellipsoid,lunate,left",
        "ellipsoid_000.off,l4,ellipsoid,lunate,left",
    ]
    # sorted strata (lunate, then scaphoid), manifest order within each, each file once
    SOLVED = [
        "sphere_000.off", "sphere_001.off", "cut.off",
        "ellipsoid_000.off", "ellipsoid_001.off", "ellipsoid_002.off",
    ]

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_each_file_once_in_stratum_order(self, tmp_path, monkeypatch, command):
        sg.make_two_class_manifest(tmp_path, n_per_group=3, subdivisions=1)
        lines = (tmp_path / "sphere_000.off").read_text().splitlines(keepends=True)
        (tmp_path / "cut.off").write_text("".join(lines[: len(lines) // 2]))
        shutil.copy(tmp_path / "sphere_002.off", tmp_path / "only_hamate.off")
        manifest_path = tmp_path / "three.csv"
        manifest_path.write_text("\n".join([",".join(pipeline.MANIFEST_HEADER), *self.ROWS]) + "\n")
        manifest = sg.DatasetManifest.load(manifest_path)

        read, summarised = [], []
        solve = pipeline._solve

        def counting_read(path):
            read.append(Path(path).name)
            return read_mesh_bytes(path)

        def counting_solve(path, cfg, window):
            summarised.append((Path(path).name, window))
            return solve(path, cfg, window)

        monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
        monkeypatch.setattr(pipeline, "_solve", counting_solve)
        # the spies record in this process, so the run's meshes are solved here too
        monkeypatch.setattr(pipeline, "_pool_size", lambda misses: 1)
        cfg = sg.RunConfig(**SMALL)
        if command == "compare":
            run = sg.run_group_comparison(manifest, cfg)
            per_cell = [run.strata]
        else:
            run = sg.parameter_sweep(manifest, cfg, Rs=[2, 3], ks=[8, 9])
            per_cell = [[cell.stratum for cell in run.cells[i : i + 3]] for i in range(0, 12, 3)]
            assert len(run.cells) == 12

        # every k of both commands falls in the first window, 39 pairs
        assert summarised == [(name, 39) for name in self.SOLVED]
        assert read == self.SOLVED  # the one-group stratum's files are never read
        assert run.diagnostics.eigensolves == 5  # the distinct good files
        cut = tmp_path / "cut.off"
        for hamate, lunate, scaphoid in per_cell:
            assert hamate.error == "need exactly 2 groups, found 1: ['sphere']"
            assert lunate.error.startswith(f"l3 [load]: {cut}:")
            assert scaphoid.error.startswith(f"c2 [load]: {cut}:")
            assert lunate.error_kind == scaphoid.error_kind == "usage"

    def test_a_copy_of_a_failing_file_fails_under_its_own_name(self, tmp_path):
        # the copy's bytes equal a miss's, but that miss failed, so the copy is
        # solved on its own and its error names its own path
        sg.make_two_class_manifest(tmp_path, n_per_group=3, subdivisions=1)
        lines = (tmp_path / "sphere_000.off").read_text().splitlines(keepends=True)
        (tmp_path / "cut.off").write_text("".join(lines[: len(lines) // 2]))
        shutil.copy(tmp_path / "cut.off", tmp_path / "cut_copy.off")
        shutil.copy(tmp_path / "sphere_002.off", tmp_path / "only_hamate.off")
        rows = [row.replace("cut.off,c2", "cut_copy.off,c2") for row in self.ROWS]
        manifest_path = tmp_path / "three.csv"
        manifest_path.write_text("\n".join([",".join(pipeline.MANIFEST_HEADER), *rows]) + "\n")
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        run = sg.run_group_comparison(sg.DatasetManifest.load(manifest_path), cfg)
        _, lunate, scaphoid = run.strata
        assert lunate.error.startswith(f"l3 [load]: {tmp_path / 'cut.off'}:")
        assert scaphoid.error.startswith(f"c2 [load]: {tmp_path / 'cut_copy.off'}:")
        assert (run.diagnostics.eigensolves, run.diagnostics.eigen_cache_hits) == (5, 0)

    def test_one_cache_lookup_per_file(self, two_class, tmp_path, monkeypatch):
        lookups = []
        cached_summary = pipeline._cached_summary

        def counting_lookup(cache_path, head):
            lookups.append(os.path.basename(cache_path))
            return cached_summary(cache_path, head)

        monkeypatch.setattr(pipeline, "_cached_summary", counting_lookup)
        # the spy records in this process, so the run's meshes are solved here too
        monkeypatch.setattr(pipeline, "_pool_size", lambda misses: 1)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        for solves, hits in ((6, 0), (0, 6)):
            lookups.clear()
            run = sg.run_group_comparison(two_class, cfg)
            assert (run.diagnostics.eigensolves, run.diagnostics.eigen_cache_hits) == (solves, hits)
            assert sorted(lookups) == sorted(p.name for p in (tmp_path / "cache").iterdir())

    def test_warm_run_opens_each_file_once_and_each_blob_once_per_window(
        self, two_strata, tmp_path, monkeypatch
    ):
        # ks 10 and 32 fall in the solve windows 39 and 78; each stratum lists
        # the same six files
        cache = tmp_path / "cache"
        cfg = sg.RunConfig(cache_dir=str(cache), **SMALL)
        cold = sg.parameter_sweep(two_strata, cfg, Rs=[3], ks=[10, 32])
        opened = []
        real_open = builtins.open

        def recording(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording)
        warm = sg.parameter_sweep(two_strata, cfg, Rs=[3], ks=[10, 32])
        monkeypatch.undo()
        assert warm == cold
        assert (warm.diagnostics.eigensolves, warm.diagnostics.eigen_cache_hits) == (0, 12)
        files = sorted({entry.path for entry in two_strata.entries})
        blobs = sorted(str(path) for path in cache.iterdir())
        assert len(files) == 6 and len(blobs) == 12
        assert sorted(path for path in opened if path.endswith(".off")) == files
        assert sorted(path for path in opened if path.endswith(".sgwc")) == blobs


@pytest.fixture(scope="module")
def sparse_class(tmp_path_factory):
    """3 + 3 bumpy shapes at m = 642."""
    out = tmp_path_factory.mktemp("sparseclass")
    return sg.DatasetManifest.load(
        sg.make_two_class_manifest(out, n_per_group=3, subdivisions=3)
    )


def _pool_of_two(monkeypatch):
    """Run every later run's misses in a pool of 2 workers, whatever the host's CPU
    count; returns the list of pools made."""
    made = []
    real = pipeline.ProcessPoolExecutor

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(pipeline, "_pool_size", lambda misses: min(misses, 2))
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", recording)
    return made


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this thread if the block runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _in_worker(parent_pid, path, name):
    """Whether this call runs in a worker process, on the mesh file called name."""
    if os.getpid() == parent_pid:
        raise AssertionError("a pooled run parsed a mesh in the parent")
    return Path(path).name == name


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks, on Linux only")
class TestWorkerPool:
    """A run's cache misses are solved in forked worker processes with the serial results."""

    @staticmethod
    def run(command, manifest, cache, out):
        """The command's run on cache, its reports written under out; returns the result."""
        cfg = sg.RunConfig(cache_dir=str(cache), **SMALL)
        if command == "compare":
            result = sg.run_group_comparison(manifest, cfg)
            result.write_json(out / "report.json")
            result.write_csv(out / "report.csv")
        else:
            result = sg.parameter_sweep(manifest, cfg, Rs=[2, 3], ks=[8, 10])
            result.write_csv(out / "sweep.csv")
        return result

    @staticmethod
    def tree(directory):
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    @pytest.mark.parametrize("data", ["two_class", "sparse_class"])
    def test_pooled_runs_write_the_one_worker_bytes(self, command, data, request, tmp_path,
                                                    monkeypatch):
        manifest = request.getfixturevalue(data)
        runs = {}
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_pool_size", lambda misses: 1)
            for phase in ("cold", "warm"):
                (tmp_path / f"one-{phase}").mkdir()
                runs["one", phase] = self.run(
                    command, manifest, tmp_path / "one-cache", tmp_path / f"one-{phase}"
                )
        made = _pool_of_two(monkeypatch)
        for phase in ("cold", "warm"):
            (tmp_path / f"pool-{phase}").mkdir()
            runs["pool", phase] = self.run(
                command, manifest, tmp_path / "pool-cache", tmp_path / f"pool-{phase}"
            )
        assert len(made) == 1  # the cold run's; the warm one creates no executor

        reports = self.tree(tmp_path / "one-cold")
        for workers, phase in runs:
            assert self.tree(tmp_path / f"{workers}-{phase}") == reports
        blobs = self.tree(tmp_path / "one-cache")
        assert len(blobs) == 6
        assert self.tree(tmp_path / "pool-cache") == blobs
        for phase, solves, hits in (("cold", 6, 0), ("warm", 0, 6)):
            for workers in ("one", "pool"):
                diagnostics = runs[workers, phase].diagnostics
                assert (diagnostics.eigensolves, diagnostics.eigen_cache_hits) == (solves, hits)

    def test_pooled_gsgw_writes_the_one_process_table(self, sparse_class, tmp_path,
                                                       monkeypatch, capsys):
        # every mesh of one gsgw command goes through one pool, and each is parsed there
        meshes = [entry.path for entry in sparse_class.entries]
        argv = ["gsgw", *meshes, meshes[0], "--k", "10", "--R", "3"]
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_pool_size", lambda misses: 1)
            assert main([*argv, "--cache-dir", str(tmp_path / "one-cache"),
                         "--out", str(tmp_path / "one.csv")]) == 0
        parent_pid = os.getpid()

        def worker_parse(data, path):
            _in_worker(parent_pid, path, "")
            return parse_mesh(data, path)

        monkeypatch.setattr(pipeline, "parse_mesh", worker_parse)
        made = _pool_of_two(monkeypatch)
        assert main([*argv, "--cache-dir", str(tmp_path / "pool-cache"),
                     "--out", str(tmp_path / "pool.csv")]) == 0
        capsys.readouterr()
        assert len(made) == 1
        assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert len((tmp_path / "one.csv").read_text().splitlines()) == 1 + len(meshes) + 1
        blobs = self.tree(tmp_path / "one-cache")
        assert len(blobs) == len(meshes)
        assert self.tree(tmp_path / "pool-cache") == blobs

    def test_errors_in_workers_carry_the_serial_text(self, tmp_path, monkeypatch):
        manifest_path = sg.make_two_class_manifest(tmp_path, n_per_group=3, subdivisions=1)
        lines = (tmp_path / "sphere_001.off").read_text().splitlines(keepends=True)
        (tmp_path / "sphere_001.off").write_text("".join(lines[: len(lines) // 2]))
        write_two_tetrahedra(tmp_path / "two.off")
        with manifest_path.open("a") as handle:
            handle.write("two.off,x00,sphere,synthetic,right\n"
                         "sphere_000.off,x01,sphere,synthetic,right\n"
                         "ellipsoid_000.off,x02,ellipsoid,synthetic,right\n"
                         "ellipsoid_001.off,x03,ellipsoid,synthetic,right\n")
        manifest = sg.DatasetManifest.load(manifest_path)
        cfg = sg.RunConfig(**SMALL)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_pool_size", lambda misses: 1)
            serial = sg.run_group_comparison(manifest, cfg)
        made = _pool_of_two(monkeypatch)
        pooled = sg.run_group_comparison(manifest, cfg)
        assert len(made) == 1
        assert [s.error_kind for s in pooled.strata] == ["usage", "usage"]
        assert pooled.strata[0].error.startswith("s001 [load]: ")
        assert pooled.strata[1].error.startswith("x00 [load]: ")
        assert pooled.strata == serial.strata
        assert pooled.diagnostics == serial.diagnostics

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_unreadable_file_fails_only_its_stratum(self, tmp_path, monkeypatch, workers,
                                                     cached):
        manifest_path = sg.make_two_class_manifest(tmp_path, n_per_group=3, subdivisions=1)
        with manifest_path.open("a") as handle:
            handle.write("sphere_000.off,x00,sphere,synthetic,right\n"
                         "sphere_002.off,x01,sphere,synthetic,right\n"
                         "ellipsoid_000.off,x02,ellipsoid,synthetic,right\n"
                         "ellipsoid_001.off,x03,ellipsoid,synthetic,right\n")
        manifest = sg.DatasetManifest.load(manifest_path)
        make_unreadable(monkeypatch, "sphere_001.off")
        if workers == 1:
            monkeypatch.setattr(pipeline, "_pool_size", lambda misses: 1)
        else:
            _pool_of_two(monkeypatch)
        cache_dir = str(tmp_path / "cache") if cached else None
        left, right = sg.run_group_comparison(
            manifest, sg.RunConfig(cache_dir=cache_dir, **SMALL)
        ).strata
        assert left.error == (
            f"s001 [load]: {tmp_path / 'sphere_001.off'}: cannot read (Permission denied)"
        )
        assert left.error_kind == "usage"
        assert right.error is None and right.comparison is not None

    def test_repeated_bytes_count_as_one_file_at_a_time(self, tmp_path, monkeypatch):
        # a copy of a missed file is a miss of its own: the two are solved side
        # by side, each writes the same blob, and the strata do not depend on
        # the worker count
        manifest_path = sg.make_two_class_manifest(tmp_path, n_per_group=3, subdivisions=1)
        shutil.copy(tmp_path / "sphere_000.off", tmp_path / "copy.off")
        header, first, *rows = manifest_path.read_text().splitlines()
        manifest_path.write_text(
            "\n".join([header, first, "copy.off,s900,sphere,synthetic,left", *rows]) + "\n"
        )
        manifest = sg.DatasetManifest.load(manifest_path)
        results = {}
        for workers in (1, 2):
            with monkeypatch.context() as patch:
                if workers == 1:
                    patch.setattr(pipeline, "_pool_size", lambda misses: 1)
                else:
                    _pool_of_two(patch)
                cfg = sg.RunConfig(cache_dir=str(tmp_path / f"cache{workers}"), **SMALL)
                results[workers] = sg.run_group_comparison(manifest, cfg)
        for result in results.values():
            assert (result.diagnostics.eigensolves, result.diagnostics.eigen_cache_hits) == (7, 0)
        assert results[1].strata == results[2].strata

    def test_one_miss_or_all_hits_create_no_executor(self, two_class, tmp_path, monkeypatch):
        made = _pool_of_two(monkeypatch)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        cold = sg.run_group_comparison(two_class, cfg)
        assert len(made) == 1
        warm = sg.run_group_comparison(two_class, cfg)
        assert (warm.diagnostics.eigensolves, warm.diagnostics.eigen_cache_hits) == (0, 6)
        _malform(sorted((tmp_path / "cache").glob("*.sgwc"))[0], "empty-file")
        one_miss = sg.run_group_comparison(two_class, cfg)
        assert (one_miss.diagnostics.eigensolves, one_miss.diagnostics.eigen_cache_hits) == (1, 5)
        assert len(made) == 1
        assert warm.strata == one_miss.strata == cold.strata

    def test_killed_worker_ends_the_run(self, two_class, monkeypatch):
        parent_pid = os.getpid()

        def dying_parse(data, path):
            if _in_worker(parent_pid, path, "sphere_001.off"):
                os._exit(9)
            return parse_mesh(data, path)

        monkeypatch.setattr(pipeline, "parse_mesh", dying_parse)
        _pool_of_two(monkeypatch)
        with _deadline(60), pytest.raises(BrokenProcessPool):
            sg.run_group_comparison(two_class, sg.RunConfig(**SMALL))
        assert multiprocessing.active_children() == []

    def test_other_exception_in_a_worker_propagates(self, two_class, monkeypatch):
        parent_pid = os.getpid()

        def failing_parse(data, path):
            if _in_worker(parent_pid, path, "ellipsoid_002.off"):
                raise RuntimeError("not an SgwError")
            return parse_mesh(data, path)

        monkeypatch.setattr(pipeline, "parse_mesh", failing_parse)
        _pool_of_two(monkeypatch)
        with _deadline(60), pytest.raises(RuntimeError, match="not an SgwError"):
            sg.run_group_comparison(two_class, sg.RunConfig(**SMALL))
        assert multiprocessing.active_children() == []

    def test_every_solve_runs_at_one_blas_thread(self, two_class, sparse_class, tmp_path,
                                                 monkeypatch):
        # workers inherit the count of 1 from the parent; a spy in a worker
        # records into a file, which the parent then reads
        controls = eigen._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control found")
        record = tmp_path / "counts.jsonl"

        def recording_solve(*args, **kwargs):
            with record.open("a") as handle:
                handle.write(json.dumps([os.getpid(), [get() for get, _ in controls]]) + "\n")
            return sg.solve_eigen(*args, **kwargs)

        monkeypatch.setattr(pipeline, "solve_eigen", recording_solve)
        before = [get() for get, _ in controls]
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_pool_size", lambda misses: 1)
            sg.run_group_comparison(two_class, sg.RunConfig(**SMALL))
        _pool_of_two(monkeypatch)
        sg.run_group_comparison(sparse_class, sg.RunConfig(**SMALL))
        calls = [json.loads(line) for line in record.read_text().splitlines()]
        assert len(calls) == 12
        assert all(counts == [1] * len(controls) for _, counts in calls)
        assert {pid for pid, _ in calls[:6]} == {os.getpid()}
        assert os.getpid() not in {pid for pid, _ in calls[6:]}
        assert [get() for get, _ in controls] == before

    def test_one_thread_count_region_per_run(self, two_class, monkeypatch):
        # a pooled sweep sets each OpenBLAS to one thread once, before its first
        # descriptor product and SVD, and puts it back once, after its last
        # comparison
        controls = eigen._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control found")
        events = []  # (name, arguments, the thread counts at the event)

        def spy(name, call, after=False):
            def recording(*args, **kwargs):
                if not after:
                    events.append((name, args, [get() for get, _ in controls]))
                result = call(*args, **kwargs)
                if after:
                    events.append((name, (), [get() for get, _ in controls]))
                return result
            return recording

        def setter(index, put):
            def recording(count):
                events.append(("set", (index, count), None))
                put(count)
            return recording

        spied = tuple((get, setter(i, put)) for i, (get, put) in enumerate(controls))
        monkeypatch.setattr(eigen, "_openblas_thread_controls", lambda: spied)
        monkeypatch.setattr(gsgw, "dgemv", spy("dgemv", gsgw.dgemv))
        monkeypatch.setattr(stats.linalg, "svd", spy("svd", stats.linalg.svd))
        monkeypatch.setattr(
            stats, "compare_cells", spy("compare_cells", stats.compare_cells, after=True)
        )
        made = _pool_of_two(monkeypatch)
        before = [get() for get, _ in controls]
        sweep = sg.parameter_sweep(two_class, sg.RunConfig(**SMALL), Rs=[1, 2, 3], ks=[6, 8, 10])
        assert len(made) == 1 and len(sweep.cells) == 9
        assert [get() for get, _ in controls] == before

        n = len(controls)
        names = [name for name, _, _ in events]
        assert [args for _, args, _ in events[:n]] == [(i, 1) for i in range(n)]
        assert [args for _, args, _ in events[-n:]] == list(enumerate(before))
        inside = events[n:-n]
        assert names[n:-n].count("set") == 0
        assert names[-n - 1] == "compare_cells" and names.count("compare_cells") == 1
        assert names.count("dgemv") == 6 * 9 and names.count("svd") == 9
        assert all(counts == [1] * n for _, _, counts in inside)


class TestPoolSize:
    def test_one_worker_per_usable_cpu_and_miss(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert [pipeline._pool_size(misses) for misses in (0, 1, 3, 4, 20)] == [0, 1, 3, 4, 4]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        assert pipeline._pool_size(20) == 1

    @pytest.mark.parametrize("platform", ["darwin", "win32"])
    def test_no_pool_off_linux(self, platform, monkeypatch):
        monkeypatch.setattr(sys, "platform", platform)
        assert pipeline._pool_size(20) == 1


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

    def test_k_past_the_meshes_fails_only_its_cells(self, two_class, tmp_path):
        # the meshes have m = 42, so k < 42. The grid spans two windows, 39 (k = 10)
        # and 78 (k = 42 and 50). Each mesh is solved once per window, at the largest
        # k of it that the mesh takes (31, then 41): twice. A cell of a larger k
        # carries the error compare gives at that k
        cfg = sg.RunConfig(**{**SMALL, "cache_dir": str(tmp_path / "cache")})
        sweep = self.assert_sweep_equals_cells(two_class, cfg, Rs=[2, 3], ks=[10, 42, 50])
        warm = sg.parameter_sweep(two_class, cfg, Rs=[2, 3], ks=[10, 42, 50])
        assert sweep.diagnostics.eigensolves == 12
        for cell in sweep.cells:
            if cell.k <= 41:
                assert cell.stratum.error is None
            else:
                assert cell.stratum.error_kind == "usage"
                assert cell.stratum.error == (
                    f"s000 [descriptor]: k must be in [1, 41], got {cell.k}"
                )
        assert warm.cells == sweep.cells

    def test_warm_sweep_past_a_mesh_parses_nothing(self, two_class, tmp_path, monkeypatch):
        # k = 50 is past every m = 42 mesh; its window's blob holds the 41 pairs
        # each mesh takes, so a warm rerun is served from the cache alone
        parsed = []
        # the spy records in this process, so the cold run's meshes are parsed here too
        monkeypatch.setattr(pipeline, "_pool_size", lambda misses: 1)

        def counting_parse(data, path):
            parsed.append(path)
            return parse_mesh(data, path)

        monkeypatch.setattr(pipeline, "parse_mesh", counting_parse)
        cfg = sg.RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL)
        cold = sg.parameter_sweep(two_class, cfg, Rs=[2], ks=[10, 50])
        assert len(parsed) == cold.diagnostics.eigensolves == 12
        parsed.clear()
        warm = sg.parameter_sweep(two_class, cfg, Rs=[2], ks=[10, 50])
        assert parsed == []
        assert (warm.diagnostics.eigensolves, warm.diagnostics.eigen_cache_hits) == (0, 12)
        assert warm.cells == cold.cells
        assert cold.cells[1].stratum.error == "s000 [descriptor]: k must be in [1, 41], got 50"

    @staticmethod
    def assert_sweep_equals_cells(manifest, cfg, Rs, ks):
        """Every sweep row equals the one-cell compare at its (R, k); returns the sweep."""
        sweep = sg.parameter_sweep(manifest, cfg, Rs=Rs, ks=ks)
        expected = [
            (r, k, stratum)
            for r in Rs
            for k in ks
            for stratum in sg.run_group_comparison(manifest, replace(cfg, R=r, k=k)).strata
        ]
        assert [(c.R, c.k, _csv_cells(c.stratum.row())) for c in sweep.cells] == [
            (r, k, _csv_cells(stratum.row())) for r, k, stratum in expected
        ]
        assert [c.stratum for c in sweep.cells] == [stratum for _, _, stratum in expected]
        return sweep

    # C(6, 3) = 20 splits: enumerated at 50 permutations, sampled at 10
    @pytest.mark.parametrize(
        "n_perm, scored, Rs, ks",
        [
            pytest.param(50, 20, [2, 3], [8, 10], id="50-20"),
            pytest.param(10, 10, [2, 3], [8, 10], id="10-10"),
            pytest.param(10, 10, [3, 1, 2], [10, 8], id="10-10-unsorted"),
        ],
    )
    def test_sweep_equals_its_cells(self, two_strata, n_perm, scored, Rs, ks):
        cfg = sg.RunConfig(**{**SMALL, "n_perm": n_perm})
        sweep = self.assert_sweep_equals_cells(two_strata, cfg, Rs=Rs, ks=ks)
        assert len(sweep.cells) == 2 * len(Rs) * len(ks)
        assert {c.stratum.side for c in sweep.cells} == {"left", "right"}
        assert {c.stratum.comparison.n_permutations for c in sweep.cells} == {scored}

    def test_sweep_across_windows_equals_its_cells(self, sparse_class):
        # at m = 642, k = 11 and 31 share the window of 39
        # pairs, and k = 40 solves that of 78, so the sweep solves each mesh twice
        sweep = self.assert_sweep_equals_cells(
            sparse_class, sg.RunConfig(**SMALL), Rs=[3], ks=[11, 31, 40]
        )
        assert sweep.diagnostics.eigensolves == 12

    @pytest.mark.parametrize("n_perm", [50, 10])
    def test_failing_cell_keeps_its_error(self, two_strata, n_perm):
        # at R = 1 the signature has 2 entries, too few for 3 PCA dimensions
        cfg = sg.RunConfig(**{**SMALL, "pca_dims": 3, "n_perm": n_perm})
        sweep = self.assert_sweep_equals_cells(two_strata, cfg, Rs=[1, 3], ks=[8, 10])
        for cell in sweep.cells:
            if cell.R == 1:
                assert cell.stratum.error == "[stats] pca dimension must be in [1, 2], got 3"
                assert cell.stratum.error_kind == "usage"
            else:
                assert cell.stratum.error is None

    def test_descriptor_failures_stay_on_their_cells(self, two_class, monkeypatch):
        # s001's first 8 eigenvalues are zero, so only its k = 8 cells have no
        # scale grid; e000's weights overflow g = K w in every cell, which is
        # the first failure in manifest order on the k = 10 cells
        summaries = pipeline._summaries

        def doctored(paths, cfg, windows, diagnostics):
            found = summaries(paths, cfg, windows, diagnostics)
            for path, outcome in found.items():
                (summary,) = outcome.values()
                if Path(path).name == "sphere_001.off":
                    eigenvalues = summary.eigenvalues.copy()
                    eigenvalues[:8] = 0.0
                    found[path] = dict.fromkeys(windows, replace(summary, eigenvalues=eigenvalues))
                elif Path(path).name == "ellipsoid_000.off":
                    w_area = np.full(summary.k, 1.5e308)
                    found[path] = dict.fromkeys(windows, replace(summary, w_area=w_area))
            return found

        monkeypatch.setattr(pipeline, "_summaries", doctored)
        cfg = sg.RunConfig(**SMALL)
        sweep = self.assert_sweep_equals_cells(two_class, cfg, Rs=[2, 3], ks=[8, 10])
        for cell in sweep.cells:
            if cell.k == 8:
                assert cell.stratum.error == (
                    "s001 [descriptor]: largest eigenvalue is zero; spectrum carries no band "
                    "to analyze"
                )
                assert cell.stratum.error_kind == "numerical"
            else:
                assert cell.stratum.error == "e000 [descriptor]: descriptor entries must be finite"
                assert cell.stratum.error_kind == "usage"

    def test_one_kernel_evaluation_per_shape_and_k(self, two_class, monkeypatch):
        # a stratum evaluates each shape's distinct kernel rows once per k of the
        # grid, at its largest R, and every cell takes a prefix of those rows
        evaluated = []

        def spy(module):
            real = module._distinct_kernel_rows

            def counting(eigenvalues, R):
                evaluated.append((len(eigenvalues), R))
                return real(eigenvalues, R)

            monkeypatch.setattr(module, "_distinct_kernel_rows", counting)

        spy(pipeline)
        spy(gsgw)
        cfg = sg.RunConfig(**SMALL)
        sg.parameter_sweep(two_class, cfg, Rs=[1, 3, 2], ks=[8, 6, 10])
        assert sorted(evaluated) == sorted((k, 3) for k in (6, 8, 10) for _ in range(6))
        evaluated.clear()
        sg.run_group_comparison(two_class, cfg)
        assert evaluated == [(10, 3)] * 6

    def test_masks_are_drawn_once_per_stratum(self, two_strata, monkeypatch):
        drawn = []
        pcg64 = np.random.PCG64

        def counting(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "sgwshape.stats":
                drawn.append(args)
            return pcg64(*args, **kwargs)

        monkeypatch.setattr("sgwshape.stats.np.random.PCG64", counting)
        cfg = sg.RunConfig(**{**SMALL, "n_perm": 10})
        sweep = sg.parameter_sweep(two_strata, cfg, Rs=[1, 2, 3], ks=[6, 8, 10])
        assert len(sweep.cells) == 18
        assert {c.stratum.comparison.n_permutations for c in sweep.cells} == {10}
        assert len(drawn) == 2  # one generator per stratum

    def test_validation(self, two_class):
        cfg = sg.RunConfig(**SMALL)
        with pytest.raises(InvalidParam):
            sg.parameter_sweep(two_class, cfg, Rs=[], ks=[10])
        with pytest.raises(InvalidParam):
            sg.parameter_sweep(two_class, cfg, Rs=[3], ks=[1])
        with pytest.raises(InvalidParam, match="R must be an integer, got 3.7"):
            sg.parameter_sweep(two_class, cfg, Rs=[3.7], ks=[10])
        with pytest.raises(InvalidParam, match="R must be an integer, got True"):
            sg.parameter_sweep(two_class, cfg, Rs=[True], ks=[10])

    @pytest.mark.parametrize(
        "Rs, ks, message",
        [([3, 3], [10], "R = 3"), ([2, 3], [8, 10, 8], "k = 8"), ([10, 10], [5, 5], "R = 10")],
    )
    def test_repeated_grid_value_reads_no_mesh(self, two_class, monkeypatch, Rs, ks, message):
        read = []

        def counting_read(path):
            read.append(path)
            return read_mesh_bytes(path)

        monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
        with pytest.raises(InvalidParam, match=f"sweep grid lists {message} more than once"):
            sg.parameter_sweep(two_class, sg.RunConfig(**SMALL), Rs=Rs, ks=ks)
        assert read == []

    def test_non_integer_grid_value_reads_no_mesh(self, two_class, monkeypatch):
        read = []

        def counting_read(path):
            read.append(path)
            return read_mesh_bytes(path)

        monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
        with pytest.raises(InvalidParam, match="k must be an integer, got 10.0"):
            sg.parameter_sweep(two_class, sg.RunConfig(**SMALL), Rs=[2, 3], ks=[8, 10.0])
        assert read == []


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

    def test_delimiter_in_bone_round_trips(self, tmp_path):
        path = sg.make_two_class_manifest(tmp_path, n_per_group=2, subdivisions=0, bone="a,b")
        manifest = sg.DatasetManifest.load(path)
        assert list(manifest.strata()) == [("a,b", "left")]
        assert path.read_text().splitlines()[1] == 'sphere_000.off,s000,sphere,"a,b",left'

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


class TestSyntheticPopulationArguments:
    @pytest.mark.parametrize(
        "make, kwargs, message",
        [
            ("two_class", dict(n_per_group=2.5), "n_per_group must be an integer, got 2.5"),
            ("two_class", dict(n_per_group=True), "n_per_group must be an integer, got True"),
            ("two_class", dict(n_per_group=0), "n_per_group must be >= 1, got 0"),
            ("two_class", dict(subdivisions=1.5), "subdivisions must be an integer, got 1.5"),
            ("two_class", dict(subdivisions=-1), "subdivisions must be >= 0, got -1"),
            ("two_class", dict(seed=-1), "seed must be >= 0, got -1"),
            ("two_class", dict(seed=np.float64(2)), "seed must be an integer"),
            ("two_class", dict(axes=(float("inf"), 1, 1)), r"axes\) must be finite"),
            ("two_class", dict(amplitude=float("nan")), r"\|amplitude\| must be < 1, got nan"),
            ("null", dict(n=4.0), "n must be an integer, got 4.0"),
            ("null", dict(n=True), "n must be an integer, got True"),
            ("null", dict(subdivisions=-1), "subdivisions must be >= 0, got -1"),
            ("null", dict(mesh_seed=-1), "mesh_seed must be >= 0, got -1"),
            ("null", dict(split_seed=-1), "split_seed must be >= 0, got -1"),
            ("null", dict(split_seed=1.5), "split_seed must be an integer, got 1.5"),
            ("null", dict(amplitude=float("inf")), r"\|amplitude\| must be < 1, got inf"),
        ],
    )
    def test_refused_before_any_file_is_written(self, tmp_path, make, kwargs, message):
        out = tmp_path / "population"
        if make == "two_class":
            make_population = sg.make_two_class_manifest
            kwargs = {"n_per_group": 2, "subdivisions": 0, **kwargs}
        else:
            make_population = sg.make_null_manifest
            kwargs = {"n": 4, "subdivisions": 0, **kwargs}
        with pytest.raises(InvalidParam, match=message):
            make_population(out, **kwargs)
        assert not out.exists()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(amplitude="0.1"), "amplitude must be a real number, got '0.1'"),
            (dict(axes=("a", 1, 1)), r"axes\[0\] must be a real number, got 'a'"),
            (dict(axes=(1, True, 1)), r"axes\[1\] must be a real number, got True"),
            (dict(amplitude=0.1 + 0j), r"amplitude must be a real number, got \(0.1\+0j\)"),
            (dict(amplitude=True), "amplitude must be a real number, got True"),
        ],
        ids=["str-amplitude", "str-axis", "bool-axis", "complex-amplitude", "bool-amplitude"],
    )
    def test_non_real_refused_before_any_file_is_written(self, tmp_path, kwargs, message):
        out = tmp_path / "population"
        with pytest.raises(InvalidParam, match=message):
            sg.make_two_class_manifest(out, n_per_group=2, subdivisions=0, **kwargs)
        assert not out.exists()

    def test_numpy_integers_are_read_as_int(self, tmp_path):
        plain = sg.make_two_class_manifest(tmp_path / "a", n_per_group=2, subdivisions=0)
        numpy = sg.make_two_class_manifest(
            tmp_path / "b", n_per_group=np.int64(2), subdivisions=np.int32(0), seed=np.int64(0)
        )
        assert sorted(p.name for p in plain.parent.iterdir()) == sorted(
            p.name for p in numpy.parent.iterdir()
        )
        for path in plain.parent.iterdir():
            assert (numpy.parent / path.name).read_bytes() == path.read_bytes()
