"""End-to-end command line behavior, driven in process through main()."""

import argparse
import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import sgwshape as sg
import sgwshape.cli as cli
import sgwshape.pipeline as pipeline
from conftest import (
    make_unreadable,
    reference_off_bytes,
    reference_synthetic,
    write_two_tetrahedra,
)
from sgwshape.cli import build_parser, main
from sgwshape.mesh_io import read_mesh_bytes
from sgwshape.svgplot import heatmap, line_plot

FAST = ["--k", "10", "--R", "3", "--subdivisions", "1"]


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("mesh") / "bumpy.off"
    code = main(
        ["synth", "mesh", "--kind", "bumpy_sphere", "--subdivisions", "1",
         "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(
        ["synth", "two-class", "--out", str(out), "--n", "3",
         "--subdivisions", "1", "--seed", "0"]
    )
    assert code == 0
    return out


class TestSynth:
    def test_mesh_output_loads(self, mesh_file):
        mesh = sg.load_mesh(mesh_file)
        assert mesh.m == 42

    def test_two_class_manifest_loads(self, dataset_dir):
        manifest = sg.DatasetManifest.load(dataset_dir / "manifest.csv")
        assert len(manifest.entries) == 6

    def test_null_population(self, tmp_path):
        code = main(
            ["synth", "null", "--out", str(tmp_path), "--n", "6",
             "--subdivisions", "0", "--split-seed", "2"]
        )
        assert code == 0
        assert (tmp_path / "manifest_split2.csv").is_file()

    def test_invalid_kind_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "mesh", "--kind", "cube", "--out", str(tmp_path / "x.off")])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mesh", "--kind", "ellipsoid", "--axes", "1,2"],
             "argument --axes: expected three comma-separated numbers, got '1,2'"),
            (["mesh", "--kind", "ellipsoid", "--axes", "a,b,c"],
             "argument --axes: non-numeric axis in 'a,b,c'"),
            (["two-class", "--n", "0"], "argument --n: must be >= 1, got 0"),
        ],
        ids=["two-axes", "text-axes", "no-shapes"],
    )
    def test_refused_argument_exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", *argv, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"sgwshape synth {argv[0]}: error: {message}"
        assert "Traceback" not in err and not out.exists()

    def test_invalid_amplitude_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["synth", "mesh", "--kind", "bumpy_sphere", "--amplitude", "1.0",
             "--out", str(tmp_path / "x.off")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEigen:
    def test_outputs_round_trip(self, mesh_file, tmp_path):
        code = main(["eigen", str(mesh_file), "--k", "12", "--out-dir", str(tmp_path)])
        assert code == 0

        header, rows = read_csv(tmp_path / "eigenvalues.csv")
        assert header == ["index", "eigenvalue"]
        values = np.array([float(r[1]) for r in rows])
        assert values.shape == (12,)
        assert np.all(np.diff(values) >= 0)

        header, rows = read_csv(tmp_path / "eigenfunctions.csv")
        assert header == [f"phi_{i}" for i in range(1, 13)]
        phi = np.array([[float(tok) for tok in row] for row in rows])

        header, rows = read_csv(tmp_path / "vertex_areas.csv")
        assert header == ["area"]
        areas = np.array([float(r[0]) for r in rows])

        # repr round-trip must preserve generalized orthonormality exactly
        mesh = sg.load_mesh(mesh_file)
        stiffness, mass = sg.laplacian_matrices(mesh)
        basis = sg.solve_eigen(stiffness, mass, 12)
        np.testing.assert_array_equal(phi, basis.eigenvectors)
        np.testing.assert_array_equal(areas, basis.vertex_areas)
        gram = phi.T @ (areas[:, None] * phi)
        assert np.abs(gram - np.eye(12)).max() < 1e-8

    def test_bad_k_exits_2(self, mesh_file, tmp_path, capsys):
        code = main(["eigen", str(mesh_file), "--k", "0", "--out-dir", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_missing_mesh_exits_2(self, tmp_path, capsys):
        code = main(["eigen", str(tmp_path / "ghost.off"), "--out-dir", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_unreadable_mesh_exits_2(self, mesh_file, tmp_path, capsys, monkeypatch):
        make_unreadable(monkeypatch, mesh_file.name)
        out_dir = tmp_path / "out"
        code = main(["eigen", str(mesh_file), "--k", "6", "--out-dir", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: {mesh_file}: cannot read (Permission denied)"
        assert "Traceback" not in err and not out_dir.exists()

    def test_numerical_error_exits_3(self, mesh_file, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise sg.ConvergenceError("ARPACK did not converge")

        monkeypatch.setattr(cli, "solve_eigen", no_convergence)
        out_dir = tmp_path / "out"
        assert main(["eigen", str(mesh_file), "--k", "6", "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: ARPACK did not converge"
        assert "Traceback" not in err and not out_dir.exists()

    def test_json_errors_shape(self, tmp_path, capsys):
        code = main(
            ["--json-errors", "eigen", str(tmp_path / "ghost.off"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert payload["kind"] == "ParseError"
        assert "ghost.off" in payload["error"]

    def test_json_errors_covers_argument_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--json-errors", "compare", "x.csv", "--jobs", "0",
                  "--out-dir", str(tmp_path / "d")])
        assert excinfo.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "argument --jobs: only 1 is accepted; the worker count follows the usable "
            "CPUs, got 0",
            "kind": "ArgumentError",
            "exit_code": 2,
        }


class TestSignatureAndGsgw:
    def test_signature_csv_shape(self, mesh_file, tmp_path):
        out = tmp_path / "sig.csv"
        code = main(["signature", str(mesh_file), *FAST[:4], "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == sg.signature_length(3)
        assert len(rows[0]) == 42

    @pytest.mark.parametrize("flag", [["--k", "1"], ["--R", "0"]])
    def test_signature_validates_before_solving(
        self, mesh_file, tmp_path, capsys, monkeypatch, flag
    ):
        solves = []

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return sg.solve_eigen(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_eigen", counting_solve)
        out = tmp_path / "sig.csv"
        assert main(["signature", str(mesh_file), *flag, "--out", str(out)]) == 2
        assert solves == []
        assert not out.exists()
        capsys.readouterr()

    def test_gsgw_table(self, mesh_file, dataset_dir, tmp_path):
        out = tmp_path / "gsgw.csv"
        other = dataset_dir / "sphere_000.off"
        code = main(
            ["gsgw", str(mesh_file), str(other), *FAST[:4],
             "--labels", "bumpy,sphere", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header[:2] == ["id", "label"]
        assert len(header) == 2 + sg.signature_length(3)
        assert [r[1] for r in rows] == ["bumpy", "sphere"]
        vec = np.array([float(t) for t in rows[0][2:]])
        assert np.all(np.isfinite(vec))

    def test_gsgw_rejects_unknown_kernel(self, mesh_file, tmp_path, capsys):
        # the kernel bank is fixed, so --kernel is no flag at all
        out = tmp_path / "g.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["gsgw", str(mesh_file), *FAST[:4], "--kernel", "bogus", "--out", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel bogus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--normalize"], ["--cache-dir", "D"]])
    def test_signature_rejects_descriptor_flags(self, mesh_file, tmp_path, capsys, flag):
        # the signature needs eigenvectors, which neither flag touches
        out = tmp_path / "sig.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["signature", str(mesh_file), *FAST[:4], *flag, "--out", str(out)])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_gsgw_honours_cache_dir(self, mesh_file, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["gsgw", str(mesh_file), *FAST[:4], "--cache-dir", str(cache)]
        assert main([*argv, "--out", str(tmp_path / "cold.csv")]) == 0
        assert [p.name[:9] for p in cache.glob("*.sgwc")] == ["spectrum-"]
        assert main([*argv, "--out", str(tmp_path / "warm.csv")]) == 0
        assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
        capsys.readouterr()

    def test_gsgw_table_quotes_ids(self, mesh_file, tmp_path, capsys):
        # an id holding the delimiter or a bare "\r" is quoted, so plot gsgw reads the table back
        for name in ("a,b.off", "a\rb.off"):
            odd = tmp_path / name
            odd.write_bytes(mesh_file.read_bytes())
            table = tmp_path / "gsgw.csv"
            assert main(["gsgw", str(odd), *FAST[:4], "--labels", "x", "--out", str(table)]) == 0
            with table.open(newline="") as handle:
                header, row = list(csv.reader(handle))
            assert row[:2] == [str(odd), "x"]
            assert len(row) == len(header) == 2 + sg.signature_length(3)
            assert main(["plot", "gsgw", str(table), "--out", str(tmp_path / "g.svg")]) == 0
        capsys.readouterr()

    def test_gsgw_table_plain_rows_are_unquoted(self, mesh_file, tmp_path, capsys):
        table = tmp_path / "gsgw.csv"
        assert main(["gsgw", str(mesh_file), *FAST[:4], "--labels", "x", "--out", str(table)]) == 0
        header, row = table.read_bytes().decode().split("\n")[:2]
        assert header == ",".join(["id", "label", *(f"v{i + 1}" for i in range(9))])
        assert row.startswith(f"{mesh_file},x,") and '"' not in row
        assert table.read_bytes().endswith(b"\n") and b"\r" not in table.read_bytes()
        capsys.readouterr()

    def test_label_count_mismatch(self, mesh_file, tmp_path, capsys):
        code = main(
            ["gsgw", str(mesh_file), "--labels", "a,b", "--out", str(tmp_path / "g.csv")]
        )
        assert code == 2
        capsys.readouterr()


class TestReconstruct:
    def test_nmse_csv_and_meshes(self, mesh_file, tmp_path):
        code = main(
            ["reconstruct", str(mesh_file), "--ks", "1,5,10", "--dump-meshes",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "nmse.csv")
        assert header == ["k", "nmse"]
        assert float(rows[0][1]) == 1.0
        for k in (1, 5, 10):
            assert (tmp_path / f"reconstructed_k{k:05d}.off").is_file()
        rebuilt = sg.load_mesh(tmp_path / "reconstructed_k00010.off")
        assert rebuilt.m == 42

    def test_bad_ks_exits_2(self, mesh_file, tmp_path, capsys):
        code = main(
            ["reconstruct", str(mesh_file), "--ks", "0,5", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        capsys.readouterr()

    def test_empty_ks_exits_2(self, mesh_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["reconstruct", str(mesh_file), "--ks", ",", "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: --ks must name at least one basis size"
        assert not out_dir.exists()

    def test_bad_ks_exits_2_before_loading(self, mesh_file, tmp_path, capsys, monkeypatch):
        def no_load(path):
            raise AssertionError(f"{path} loaded before --ks was checked")

        monkeypatch.setattr(cli, "load_mesh", no_load)
        code = main(
            ["reconstruct", str(mesh_file), "--ks", "5,0,40", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "k must be >= 1, got 0" in capsys.readouterr().err


@pytest.fixture(scope="module")
def rank4_dir(tmp_path_factory):
    """20 shapes whose descriptors at R = 3 have numerical rank 4."""
    out = tmp_path_factory.mktemp("rank4")
    code = main(["synth", "two-class", "--out", str(out), "--n", "10", "--subdivisions", "1"])
    assert code == 0
    return out


class TestNumericalRank:
    def run_compare(self, rank4_dir, out_dir, d):
        return main(
            ["compare", str(rank4_dir / "manifest.csv"), "--k", "10", "--R", "3",
             "--pca-dims", str(d), "--n-perm", "200", "--out-dir", str(out_dir)]
        )

    def test_compare_at_the_rank_reports(self, rank4_dir, tmp_path, capsys):
        assert self.run_compare(rank4_dir, tmp_path, 4) == 0
        capsys.readouterr()
        (row,) = csv.DictReader((tmp_path / "report.csv").read_text().splitlines())
        assert row["error"] == "" and float(row["manova_p"]) < 1e-12

    def test_compare_past_the_rank_exits_3(self, rank4_dir, tmp_path, capsys):
        assert self.run_compare(rank4_dir, tmp_path, 5) == 3
        assert "[stats] numerical rank 4 is below the dimension 5" in capsys.readouterr().out
        (row,) = csv.DictReader((tmp_path / "report.csv").read_text().splitlines())
        assert row["error"].startswith("[stats] numerical rank 4 ")
        assert row["wilks_lambda"] == row["manova_p"] == row["permutation_p"] == ""

    def test_sweep_fails_only_the_cells_past_the_rank(self, rank4_dir, tmp_path, capsys):
        code = main(
            ["sweep", str(rank4_dir / "manifest.csv"), "--Rs", "3,10", "--ks-grid", "10,20",
             "--pca-dims", "5", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        capsys.readouterr()
        rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        failed = [(row["R"], row["k"]) for row in rows if row["error"]]
        assert failed == [("3", "10"), ("3", "20")]
        assert all("numerical rank 4" in row["error"] for row in rows if row["error"])
        assert all(float(row["wilks_lambda"]) > 0.0 for row in rows if row["R"] == "10")


class TestCompare:
    def run_compare(self, dataset_dir, out_dir, *extra):
        return main(
            ["compare", str(dataset_dir / "manifest.csv"),
             "--k", "10", "--R", "3", "--pca-dims", "2", "--n-perm", "50",
             "--out-dir", str(out_dir), *extra]
        )

    def test_writes_reports_and_summary(self, dataset_dir, tmp_path, capsys):
        code = self.run_compare(dataset_dir, tmp_path)
        assert code == 0
        captured = capsys.readouterr()
        assert "resolved config" in captured.err
        assert "synthetic" in captured.out  # summary table row
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["pca_dims"] == 2
        assert report["strata"][0]["error"] is None
        assert (tmp_path / "report.csv").is_file()

    def test_deterministic_outputs(self, dataset_dir, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert self.run_compare(dataset_dir, a_dir) == 0
        assert self.run_compare(dataset_dir, b_dir) == 0
        capsys.readouterr()
        assert (a_dir / "report.json").read_bytes() == (b_dir / "report.json").read_bytes()
        assert (a_dir / "report.csv").read_bytes() == (b_dir / "report.csv").read_bytes()

    def test_all_strata_failed_numerically_exits_3(self, dataset_dir, tmp_path, capsys):
        code = self.run_compare(dataset_dir, tmp_path, "--pca-dims", "5")
        assert code == 3
        capsys.readouterr()

    def test_cache_dir_that_is_a_file_exits_2(self, dataset_dir, tmp_path, capsys, monkeypatch):
        solves = []

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return sg.solve_eigen(*args, **kwargs)

        monkeypatch.setattr(pipeline, "solve_eigen", counting_solve)
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_bytes(b"a file")
        out_dir = tmp_path / "out"
        code = self.run_compare(dataset_dir, out_dir, "--cache-dir", str(not_a_dir))
        assert code == 2
        assert "not a directory" in capsys.readouterr().err
        assert solves == [] and not out_dir.exists()

    def test_cache_dir_under_a_file_exits_2(self, dataset_dir, tmp_path, capsys, monkeypatch):
        # the cache directory cannot be made there; this used to surface as a
        # NotADirectoryError traceback after the first solve
        read = []

        def counting_read(path):
            read.append(path)
            return read_mesh_bytes(path)

        monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
        a_file = tmp_path / "afile"
        a_file.write_bytes(b"a file")
        out_dir = tmp_path / "out"
        code = self.run_compare(dataset_dir, out_dir, "--cache-dir", str(a_file / "sub"))
        assert code == 2
        err = capsys.readouterr().err
        last = f"error: cache_dir {a_file / 'sub'}: {a_file} is not a directory"
        assert err.splitlines()[-1] == last
        assert "Traceback" not in err
        assert read == [] and not out_dir.exists()
        assert a_file.read_bytes() == b"a file"

    def test_empty_cache_dir_exits_2(self, dataset_dir, tmp_path, capsys, monkeypatch):
        # an empty --cache-dir used to write the blobs into the working directory
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        out_dir = tmp_path / "out"
        code = self.run_compare(dataset_dir, out_dir, "--cache-dir", "")
        assert code == 2
        err = capsys.readouterr().err
        last = "error: cache_dir must not be empty; omit it to run without a cache"
        assert err.splitlines()[-1] == last
        assert "Traceback" not in err
        assert list(work.iterdir()) == [] and not out_dir.exists()

    def test_two_component_mesh_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        sg.make_two_class_manifest(data, n_per_group=3, subdivisions=1)
        write_two_tetrahedra(data / "sphere_000.off")
        out_dir = tmp_path / "out"
        assert self.run_compare(data, out_dir) == 2
        capsys.readouterr()
        (stratum,) = json.loads((out_dir / "report.json").read_text())["strata"]
        assert stratum["error"] == (
            f"s000 [load]: {data / 'sphere_000.off'}: "
            "mesh has 2 connected components (vertex counts 4, 4)"
        )

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text("path,subject,group,bone,side\n")
        code = main(["compare", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_unreadable_manifest_exits_2(self, dataset_dir, tmp_path, capsys, monkeypatch):
        make_unreadable(monkeypatch, "manifest.csv")
        out_dir = tmp_path / "out"
        assert self.run_compare(dataset_dir, out_dir) == 2
        err = capsys.readouterr().err
        manifest = dataset_dir / "manifest.csv"
        assert err.splitlines()[-1] == f"error: {manifest}: cannot read (Permission denied)"
        assert "Traceback" not in err and not out_dir.exists()

    @pytest.mark.parametrize(
        "filename, content",
        [
            ("bad.off", b"OFF\n-1 1 0\n"),
            ("bad.ply", b"ply\nformat ascii 1.0\nelement vertex 4\nproperty\n"),
        ],
        ids=["negative-count", "bare-property"],
    )
    def test_unparseable_mesh_fails_only_its_stratum(
        self, dataset_dir, tmp_path, capsys, filename, content
    ):
        bad = tmp_path / filename
        bad.write_bytes(content)
        rows = (dataset_dir / "manifest.csv").read_text().splitlines()[1:]
        lines = ["path,subject,group,bone,side"]
        for bone in ("hamate", "lunate"):
            for row in rows:
                path, subject, group, _, side = row.split(",")
                if bone == "lunate" and subject == "s001":
                    path = str(bad)
                lines.append(",".join([str(dataset_dir / path), subject, group, bone, side]))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "out"
        code = main(
            ["compare", str(manifest), "--k", "10", "--R", "3", "--pca-dims", "2",
             "--n-perm", "50", "--out-dir", str(out_dir)]
        )
        capsys.readouterr()
        assert code == 0
        assert (out_dir / "report.csv").is_file()
        strata = {s["bone"]: s for s in json.loads((out_dir / "report.json").read_text())["strata"]}
        assert strata["hamate"]["error"] is None
        assert strata["lunate"]["error"].startswith(f"s001 [load]: {bad}:")


class TestJobsFlag:
    """--jobs still parses on compare and sweep, hidden, and accepts only 1."""

    @staticmethod
    def argv(command, dataset_dir, out_dir):
        grid = ["--Rs", "2", "--ks-grid", "8"] if command == "sweep" else ["--k", "8", "--R", "2"]
        return [command, str(dataset_dir / "manifest.csv"), *grid, "--pca-dims", "2",
                "--n-perm", "10", "--out-dir", str(out_dir)]

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_other_than_one_exits_2_reading_nothing(
        self, command, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        read = []

        def counting_read(path):
            read.append(path)
            return read_mesh_bytes(path)

        monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main([*self.argv(command, dataset_dir, out_dir), "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs: only 1 is accepted; the worker count follows the usable CPUs, got 2" in (
            capsys.readouterr().err
        )
        assert read == [] and not out_dir.exists()

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_one_writes_the_same_bytes(self, command, dataset_dir, tmp_path, capsys):
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert main(self.argv(command, dataset_dir, plain)) == 0
        assert main([*self.argv(command, dataset_dir, flagged), "--jobs", "1"]) == 0
        capsys.readouterr()
        names = sorted(path.name for path in plain.iterdir())
        assert names == sorted(path.name for path in flagged.iterdir())
        for name in names:
            assert (flagged / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_help_hides_it(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--jobs" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["compare", "sweep", "gsgw"])
def test_normalize_without_area_factor_exits_2_writing_nothing(
    command, mesh_file, dataset_dir, tmp_path, capsys, monkeypatch
):
    # without the area factor the descriptor has no size to divide out
    read = []

    def counting_read(path):
        read.append(path)
        return read_mesh_bytes(path)

    monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
    out = tmp_path / "out"
    argv = {
        "compare": ["compare", str(dataset_dir / "manifest.csv"), "--out-dir", str(out)],
        "sweep": ["sweep", str(dataset_dir / "manifest.csv"), "--Rs", "2", "--ks-grid", "8",
                  "--out-dir", str(out)],
        "gsgw": ["gsgw", str(mesh_file), "--out", str(out)],
    }[command]
    assert main([*argv, "--normalize", "--no-area-factor"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "error: normalize needs the area factor: without it the descriptor "
        "does not depend on size, so there is nothing to divide out"
    )
    assert "Traceback" not in err
    assert read == [] and not out.exists()


class TestOutParent:
    @pytest.mark.parametrize(
        "argv, inputs",
        [
            (["synth", "mesh", "--subdivisions", "0"], {}),
            (["signature", "MESH", "--k", "10", "--R", "3"], {}),
            (["gsgw", "MESH", "--k", "10", "--R", "3"], {}),
            (["plot", "nmse", "nmse.csv"], {"nmse.csv": "k,nmse\n1,0.5\n4,0.1\n"}),
            (["plot", "gsgw", "g.csv"], {"g.csv": "id,label,v1,v2\na.off,x,1,2\n"}),
            (
                ["plot", "sweep", "s.csv"],
                {"s.csv": "R,k,bone,side,permutation_p\n2,8,b,left,0.5\n3,8,b,left,0.2\n"},
            ),
        ],
        ids=["synth-mesh", "signature", "gsgw", "plot-nmse", "plot-gsgw", "plot-sweep"],
    )
    def test_out_parent_is_created(self, mesh_file, tmp_path, capsys, argv, inputs):
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        resolved = [
            str(mesh_file) if arg == "MESH" else str(tmp_path / arg) if arg in inputs else arg
            for arg in argv
        ]
        out = tmp_path / "new" / "nested" / "result.out"
        assert main([*resolved, "--out", str(out)]) == 0
        assert out.is_file()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["signature", "MESH", "--k", "1", "--R", "3"],
            ["gsgw", "MESH", "MESH", "--labels", "a", "--k", "10", "--R", "3"],
            ["signature", "MISSING", "--k", "10", "--R", "3"],
            ["gsgw", "MISSING", "--k", "10", "--R", "3"],
        ],
        ids=[
            "signature-bad-k", "gsgw-label-mismatch", "signature-missing-mesh", "gsgw-missing-mesh"
        ],
    )
    def test_rejected_command_creates_no_directory(self, mesh_file, tmp_path, capsys, argv):
        paths = {"MESH": str(mesh_file), "MISSING": str(tmp_path / "missing.off")}
        resolved = [paths.get(arg, arg) for arg in argv]
        assert main([*resolved, "--out", str(tmp_path / "new" / "result.csv")]) == 2
        assert not (tmp_path / "new").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("blocked", ["target", "parent"])
    @pytest.mark.parametrize(
        "argv, wants_dir",
        [
            (["synth", "mesh", "--out"], False),
            (["signature", "MESH", "--k", "10", "--R", "3", "--out"], False),
            (["gsgw", "MESH", "--k", "10", "--R", "3", "--out"], False),
            (["plot", "nmse", "nmse.csv", "--out"], False),
            (["plot", "gsgw", "gsgw.csv", "--out"], False),
            (["plot", "sweep", "sweep.csv", "--out"], False),
            (["synth", "two-class", "--n", "2", "--out"], True),
            (["synth", "null", "--n", "4", "--out"], True),
            (["eigen", "MESH", "--k", "5", "--out-dir"], True),
            (["reconstruct", "MESH", "--ks", "1,2", "--out-dir"], True),
            (["compare", "MANIFEST", "--out-dir"], True),
            (["sweep", "MANIFEST", "--Rs", "3", "--ks-grid", "10", "--out-dir"], True),
        ],
        ids=[
            "synth-mesh", "signature", "gsgw", "plot-nmse", "plot-gsgw", "plot-sweep",
            "synth-two-class", "synth-null", "eigen", "reconstruct", "compare", "sweep",
        ],
    )
    def test_output_of_the_wrong_kind_exits_2_before_any_work(
        self, mesh_file, dataset_dir, tmp_path, capsys, monkeypatch, argv, wants_dir, blocked
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("a mesh was read")

        monkeypatch.setattr(cli, "load_mesh", no_read)
        monkeypatch.setattr(pipeline, "read_mesh_bytes", no_read)
        if blocked == "parent":
            blocker = tmp_path / "a_file"
            blocker.write_bytes(b"kept")
            out, kind = blocker / "result", "not a directory"
        elif wants_dir:
            blocker = out = tmp_path / "result"
            blocker.write_bytes(b"kept")
            kind = "not a directory"
        else:
            blocker = out = tmp_path / "result"
            blocker.mkdir()
            kind = "a directory"
        paths = {"MESH": str(mesh_file), "MANIFEST": str(dataset_dir / "manifest.csv")}
        resolved = [paths.get(arg, arg) for arg in argv]
        assert main([*resolved, str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: output path {out}: {blocker} is {kind}"
        ]
        assert blocker.is_dir() or blocker.read_bytes() == b"kept"
        assert [p.name for p in tmp_path.iterdir()] == [blocker.name]


@pytest.fixture(scope="module")
def artifacts(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    code = main(
        ["sweep", str(dataset_dir / "manifest.csv"),
         "--Rs", "2,3", "--ks-grid", "8,10", "--pca-dims", "2",
         "--n-perm", "50", "--cache-dir", str(out / "cache"),
         "--out-dir", str(out)]
    )
    assert code == 0
    code = main(
        ["reconstruct", str(dataset_dir / "sphere_000.off"),
         "--ks", "1,4,8", "--out-dir", str(out)]
    )
    assert code == 0
    return out


class TestSweepAndPlots:
    def assert_valid_svg(self, path):
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root)) > 3

    def test_sweep_csv(self, artifacts):
        header, rows = read_csv(artifacts / "sweep.csv")
        assert header[:2] == ["R", "k"]
        assert len(rows) == 4

    def run_sweep(self, dataset_dir, out_dir, *extra):
        return main(
            ["sweep", str(dataset_dir / "manifest.csv"), "--Rs", "2", "--ks-grid", "8",
             "--pca-dims", "2", "--n-perm", "10", "--out-dir", str(out_dir), *extra]
        )

    def test_repeated_grid_value_exits_2_reading_nothing(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        read = []

        def counting_read(path):
            read.append(path)
            return read_mesh_bytes(path)

        monkeypatch.setattr(pipeline, "read_mesh_bytes", counting_read)
        code = main(
            ["sweep", str(dataset_dir / "manifest.csv"), "--Rs", "10,10", "--ks-grid", "5,5",
             "--pca-dims", "2", "--n-perm", "10", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "error: sweep grid lists R = 10 more than once" in capsys.readouterr().err
        assert read == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_non_integer_grid_exits_2(self, dataset_dir, tmp_path, capsys):
        assert self.run_sweep(dataset_dir, tmp_path, "--Rs", "a") == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: expected a comma-separated integer list, got 'a'"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "extra, code, error",
        [
            (("--ks-grid", "50"), 2, "s000 [descriptor]: k must be in [1, 42], got 50"),
            (("--pca-dims", "5"), 3, "[stats] feature dimension 5 exceeds within-group degrees "
                                     "of freedom 4; reduce the dimension"),
        ],
        ids=["usage", "numerical"],
    )
    def test_sweep_whose_every_cell_fails(self, dataset_dir, tmp_path, capsys, extra, code, error):
        # the exit code of a failed run: 3 if any failure is numerical, else 2
        assert self.run_sweep(dataset_dir, tmp_path, *extra) == code
        capsys.readouterr()
        (row,) = csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines())
        assert row["error"] == error

    @pytest.mark.parametrize(
        "flag, value, grid_flag", [("--k", "5", "--ks-grid"), ("--R", "4", "--Rs")]
    )
    def test_sweep_notes_that_it_ignores_k_and_R(
        self, dataset_dir, tmp_path, capsys, flag, value, grid_flag
    ):
        assert self.run_sweep(dataset_dir, tmp_path / "plain") == 0
        assert "note" not in capsys.readouterr().err
        assert self.run_sweep(dataset_dir, tmp_path / "flag", flag, value) == 0
        err = capsys.readouterr().err
        note = f"[sweep] note: {flag} {value} is ignored; each cell takes {flag[2:]} from "
        assert note + grid_flag in err
        plain, flagged = (tmp_path / run / "sweep.csv" for run in ("plain", "flag"))
        assert flagged.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("extra", [(), ("--k", "5", "--R", "4")])
    def test_sweep_config_line_names_only_the_grid(self, dataset_dir, tmp_path, capsys, extra):
        assert self.run_sweep(dataset_dir, tmp_path, *extra) == 0
        (line,) = [ln for ln in capsys.readouterr().err.splitlines() if "resolved config" in ln]
        assert " Rs=[2] ks=[8] pca_dims=2 " in line
        assert " k=" not in line and " R=" not in line

    def test_sweep_help_hides_k_and_R(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        text = capsys.readouterr().out
        assert "--ks-grid" in text and "--Rs" in text
        assert "--k " not in text and "--R " not in text

    def test_plot_nmse(self, artifacts, tmp_path):
        out = tmp_path / "nmse.svg"
        code = main(["plot", "nmse", str(artifacts / "nmse.csv"), "--out", str(out)])
        assert code == 0
        self.assert_valid_svg(out)

    def test_plot_sweep(self, artifacts, tmp_path):
        out = tmp_path / "sweep.svg"
        code = main(
            ["plot", "sweep", str(artifacts / "sweep.csv"),
             "--metric", "permutation_p", "--out", str(out)]
        )
        assert code == 0
        self.assert_valid_svg(out)

    def test_plot_sweep_reads_a_byte_order_mark(self, artifacts, tmp_path):
        svgs = []
        for name, prefix in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            table = tmp_path / name / "sweep.csv"
            table.parent.mkdir()
            table.write_bytes(prefix + (artifacts / "sweep.csv").read_bytes())
            out = tmp_path / name / "sweep.svg"
            assert main(["plot", "sweep", str(table), "--out", str(out)]) == 0
            svgs.append(out.read_bytes())
        assert svgs[0] == svgs[1]

    def test_plot_gsgw(self, artifacts, dataset_dir, tmp_path):
        self.plot_gsgw(dataset_dir, tmp_path, "s,e")

    def test_plot_gsgw_escapes_labels(self, dataset_dir, tmp_path):
        self.plot_gsgw(dataset_dir, tmp_path, "s&e,<e>")

    def plot_gsgw(self, dataset_dir, tmp_path, labels):
        table = tmp_path / "gsgw.csv"
        code = main(
            ["gsgw", str(dataset_dir / "sphere_000.off"),
             str(dataset_dir / "ellipsoid_000.off"),
             "--k", "10", "--R", "3", "--labels", labels, "--out", str(table)]
        )
        assert code == 0
        out = tmp_path / "gsgw.svg"
        code = main(["plot", "gsgw", str(table), "--out", str(out)])
        assert code == 0
        self.assert_valid_svg(out)

    def test_labels_are_escaped(self, tmp_path):
        odd = "a&b <c> d"
        line_plot(
            [(odd, [1, 2], [1.0, 0.5])], tmp_path / "line.svg",
            title=odd, xlabel=odd, ylabel=odd,
        )
        heatmap(
            [[0.1, 0.2]], [odd], [odd, odd], tmp_path / "grid.svg",
            title=odd, xlabel=odd, ylabel=odd,
        )
        # title, both axis labels, and the legend entry or the three grid labels
        for name, count in (("line.svg", 4), ("grid.svg", 6)):
            root = ET.parse(tmp_path / name).getroot()
            assert [el.text for el in root if el.tag.endswith("text")].count(odd) == count


class TestBadSynthAndPlotInput:
    @pytest.mark.parametrize(
        "argv, inputs, message",
        [
            (["synth", "mesh", "--kind", "bumpy_sphere", "--seed", "-1"], {},
             "seed must be >= 0, got -1"),
            (["synth", "mesh", "--kind", "unit_sphere", "--axes", "3,1,1"], {},
             "unit_sphere takes no axes, got (3.0, 1.0, 1.0)"),
            (["synth", "mesh", "--kind", "unit_sphere", "--amplitude", "0.5"], {},
             "unit_sphere takes no amplitude, got 0.5"),
            (["synth", "mesh", "--kind", "unit_sphere", "--seed", "7"], {},
             "unit_sphere takes no seed, got 7"),
            (["synth", "mesh", "--kind", "ellipsoid", "--amplitude", "0.5", "--seed", "7"], {},
             "ellipsoid takes no amplitude, got 0.5"),
            (["synth", "mesh", "--kind", "ellipsoid", "--seed", "7"], {},
             "ellipsoid takes no seed, got 7"),
            (["synth", "mesh", "--kind", "bumpy_sphere", "--amplitude", "nan"], {},
             "|amplitude| must be < 1, got nan"),
            (["synth", "mesh", "--kind", "bumpy_sphere", "--axes", "inf,1,1"], {},
             "axis lengths (axes) must be finite and positive, got (inf, 1.0, 1.0)"),
            (["synth", "mesh", "--kind", "ellipsoid", "--axes", "1,nan,1"], {},
             "axis lengths (axes) must be finite and positive, got (1.0, nan, 1.0)"),
            (["synth", "mesh", "--subdivisions", "-1"], {}, "subdivisions must be >= 0, got -1"),
            (["synth", "two-class", "--n", "2", "--seed", "-1"], {},
             "seed must be >= 0, got -1"),
            (["synth", "two-class", "--n", "2", "--axes", "inf,1,1"], {},
             "axis lengths (axes) must be finite and positive, got (inf, 1.0, 1.0)"),
            (["synth", "two-class", "--n", "2", "--amplitude", "nan"], {},
             "|amplitude| must be < 1, got nan"),
            (["synth", "null", "--n", "4", "--split-seed", "-1"], {},
             "split_seed must be >= 0, got -1"),
            (["synth", "null", "--n", "4", "--mesh-seed", "-1"], {},
             "mesh_seed must be >= 0, got -1"),
            (["plot", "nmse", "IN"], {"IN": "k,nmse\n1,0.5\n2,inf\n"},
             "series 'nmse': values must be finite, got inf"),
            (["plot", "nmse", "IN"], {"IN": "k,nmse\n1,0.5\n2,nan\n"},
             "series 'nmse': values must be finite, got nan"),
            (["plot", "nmse", "IN", "--log-y"], {"IN": "k,nmse\n1,0.5\n2,inf\n"},
             "series 'nmse': values must be finite, got inf"),
            (["plot", "gsgw", "IN"], {"IN": "id,label,v1,v2\na.off,x,1,inf\n"},
             "series 'a.off (x)': values must be finite, got inf"),
            (["plot", "sweep", "IN"],
             {"IN": "R,k,bone,side,permutation_p\n2,8,b,left,nan\n3,8,b,left,0.2\n"},
             "heatmap values must be finite, got nan"),
        ],
        ids=[
            "mesh-negative-seed", "sphere-axes", "sphere-amplitude", "sphere-seed",
            "ellipsoid-amplitude", "ellipsoid-seed", "mesh-nan-amplitude", "mesh-inf-axes",
            "ellipsoid-nan-axes", "mesh-negative-subdivisions", "two-class-negative-seed",
            "two-class-inf-axes", "two-class-nan-amplitude", "null-negative-split-seed",
            "null-negative-mesh-seed", "nmse-inf", "nmse-nan", "nmse-inf-log", "gsgw-inf",
            "sweep-nan",
        ],
    )
    def test_exits_2_with_one_error_line_and_no_output(
        self, tmp_path, capsys, argv, inputs, message
    ):
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        resolved = [str(tmp_path / arg) if arg in inputs else arg for arg in argv]
        out = tmp_path / "out" / ("result" if argv[0] == "synth" and argv[1] != "mesh" else "r.x")
        assert main([*resolved, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {message}"]
        assert err.splitlines()[-1] == errors[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "mesh"],
            ["synth", "mesh", "--kind", "ellipsoid"],
            ["synth", "mesh", "--kind", "bumpy_sphere"],
            ["synth", "mesh", "--kind", "bumpy_sphere", "--axes", "1.3,1,0.8",
             "--amplitude", "0.1", "--seed", "7"],
            ["synth", "two-class"],
            ["synth", "null"],
        ],
        ids=["unit-sphere", "ellipsoid", "bumpy-sphere", "bumpy-sphere-flags", "two-class",
             "null"],
    )
    def test_default_command_writes_the_same_bytes(self, tmp_path, capsys, argv):
        """Each file equals the one written from the generators' arithmetic, spelled out."""
        out = tmp_path / "new"
        assert main([*argv, "--out", str(out / "mesh.off" if argv[1] == "mesh" else out)]) == 0
        capsys.readouterr()
        if argv[1] == "mesh":
            kind = argv[argv.index("--kind") + 1] if "--kind" in argv else "unit_sphere"
            kwargs = {}
            if "--seed" in argv:
                kwargs = dict(axes=(1.3, 1.0, 0.8), amplitude=0.1, seed=7)
            expected = {"mesh.off": reference_synthetic(kind, 3, **kwargs)}
        elif argv[1] == "two-class":
            expected = {
                f"{group}_{i:03d}.off": reference_synthetic(
                    "bumpy_sphere", 3, axes=axes, seed=c * 10 + i
                )
                for c, (group, axes) in enumerate(
                    (("sphere", (1.0, 1.0, 1.0)), ("ellipsoid", (1.3, 1.0, 1.0)))
                )
                for i in range(10)
            }
        else:
            expected = {
                f"pop_{i:03d}.off": reference_synthetic("bumpy_sphere", 3, seed=i)
                for i in range(20)
            }
        written = sorted(p.name for p in out.glob("*.off"))
        assert written == sorted(expected)
        for name in written:
            mesh = expected[name]
            assert (out / name).read_bytes() == reference_off_bytes(mesh.vertices, mesh.triangles)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda path: line_plot([("s", [1, 2], [1.0, float("inf")])], path),
            lambda path: line_plot([("s", [1, float("nan")], [1.0, 2.0])], path),
            lambda path: line_plot([("s", [1, 2], [1.0, float("nan")])], path, log_y=True),
            lambda path: heatmap([[0.1, float("nan")]], ["r"], ["a", "b"], path),
            lambda path: heatmap([[None, float("-inf")]], ["r"], ["a", "b"], path),
        ],
        ids=["line-inf-y", "line-nan-x", "line-nan-log-y", "heatmap-nan", "heatmap-minus-inf"],
    )
    def test_plot_refuses_a_value_that_is_not_finite(self, tmp_path, draw):
        with pytest.raises(sg.InvalidParam, match="must be finite"):
            draw(tmp_path / "plot.svg")
        assert not (tmp_path / "plot.svg").exists()

    def test_none_heatmap_cell_stays_gray(self, tmp_path):
        heatmap([[None, 0.2], [0.1, 0.3]], ["r1", "r2"], ["a", "b"], tmp_path / "grid.svg")
        root = ET.parse(tmp_path / "grid.svg").getroot()
        fills = [el.get("fill") for el in root if el.tag.endswith("rect")]
        assert fills.count("#bbbbbb") == 1

    SWEEP_HEADER = "R,k,bone,side,permutation_p\n"

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["nmse"], None, "no such file"),
            (["nmse"], "", "empty CSV"),
            (["nmse"], "k,mse\n1,0.5\n", "expected header k,nmse"),
            (["nmse"], "k,nmse\n1\n", "malformed data row"),
            (["nmse"], "k,nmse\none,0.5\n", "malformed data row"),
            (["nmse"], "k,nmse\n", "no data rows"),
            (["gsgw"], "", "empty CSV"),
            (["gsgw"], "id,v1\na.off,1\n", "expected header id,label,v1,..."),
            (["gsgw"], "id,label,v1\na.off,x,one\n", "malformed descriptor row"),
            (["gsgw"], "id,label,v1\n", "no data rows"),
            (["sweep"], None, "no such file"),
            (["sweep"], "R,k,bone,side\n2,8,b,left\n", "missing column for metric 'permutation_p'"),
            (["sweep"], SWEEP_HEADER + "two,8,b,left,0.2\n", "malformed sweep row"),
            (["sweep"], SWEEP_HEADER + "2,8,b,left,p\n", "malformed sweep row"),
            (["sweep", "--bone", "c"], SWEEP_HEADER + "2,8,b,left,0.2\n", "no matching sweep rows"),
            (["sweep", "--side", "right"], SWEEP_HEADER + "2,8,b,left,0.2\n",
             "no matching sweep rows"),
        ],
        ids=[
            "nmse-missing", "nmse-empty", "nmse-header", "nmse-short-row", "nmse-text-k",
            "nmse-no-rows", "gsgw-empty", "gsgw-header", "gsgw-text-value", "gsgw-no-rows",
            "sweep-missing", "sweep-no-metric", "sweep-text-R", "sweep-text-value",
            "sweep-no-bone", "sweep-no-side",
        ],
    )
    def test_plot_of_a_bad_table_exits_2(self, tmp_path, capsys, argv, text, message):
        table = tmp_path / "table.csv"
        if text is not None:
            table.write_text(text)
        out = tmp_path / "out" / "plot.svg"
        assert main(["plot", argv[0], str(table), *argv[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"error: {table}: {message}"
        assert not (tmp_path / "out").exists()

    def test_plot_sweep_keeps_only_the_chosen_bone_and_side(self, tmp_path, capsys):
        rows = {
            ("b", "left"): ["2,8,b,left,0.1\n", "3,8,b,left,0.2\n"],
            ("b", "right"): ["2,8,b,right,0.3\n"],
            ("c", "left"): ["2,8,c,left,0.4\n", "2,9,c,left,0.5\n"],
        }
        (tmp_path / "all.csv").write_text(self.SWEEP_HEADER + "".join(sum(rows.values(), [])))
        for (bone, side), own in rows.items():
            (tmp_path / "own.csv").write_text(self.SWEEP_HEADER + "".join(own))
            svgs = []
            for table, flags in (("all.csv", ["--bone", bone, "--side", side]), ("own.csv", [])):
                out = tmp_path / f"{bone}-{side}-{table}.svg"
                assert main(["plot", "sweep", str(tmp_path / table), *flags, "--out", str(out)]) == 0
                svgs.append(out.read_bytes())
            assert svgs[0] == svgs[1]
        capsys.readouterr()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert sg.__version__ in capsys.readouterr().out

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eigen", "--frobnicate"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_flag_surface(self):
        """Every subcommand offers exactly the flags it honours."""
        signature = {"--k", "--R", "--lumping", "--no-area-factor", "--method"}
        descriptor = signature | {"--normalize", "--cache-dir"}
        batch = descriptor | {"--pca-dims", "--n-perm", "--seed", "--jobs", "--out-dir"}
        expected = {
            "synth mesh": {"--kind", "--subdivisions", "--axes", "--amplitude", "--seed", "--out"},
            "synth two-class": {
                "--out", "--n", "--subdivisions", "--axes", "--amplitude", "--seed",
            },
            "synth null": {
                "--out", "--n", "--subdivisions", "--amplitude", "--mesh-seed", "--split-seed",
            },
            "eigen": {"--k", "--method", "--lumping", "--out-dir"},
            "signature": signature | {"--out"},
            "gsgw": descriptor | {"--labels", "--out"},
            "reconstruct": {
                "--ks", "--method", "--lumping", "--unweighted", "--dump-meshes", "--out-dir",
            },
            "compare": batch,
            "sweep": batch | {"--Rs", "--ks-grid"},
            "plot nmse": {"--out", "--log-y"},
            "plot gsgw": {"--out", "--max-series"},
            "plot sweep": {"--out", "--metric", "--bone", "--side"},
        }

        def leaves(parser, prefix=()):
            found = {}
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        found.update(leaves(sub, (*prefix, name)))
            if prefix and not found:
                options = {s for a in parser._actions for s in a.option_strings}
                found[" ".join(prefix)] = options - {"-h", "--help"}
            return found

        assert leaves(build_parser()) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["signature", "m.off", "--out", "s.csv"],
            ["compare", "manifest.csv", "--out-dir", "o"],
            ["sweep", "manifest.csv", "--Rs", "3", "--ks-grid", "10", "--out-dir", "o"],
        ],
    )
    def test_kernel_flag_rejected(self, argv, capsys):
        # gsgw is covered by test_gsgw_rejects_unknown_kernel
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--kernel", "mexhat"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "default 31" in text
        assert "default 30" in text
        assert "(default 8)" in text
        assert "default 1000" in text
