"""End-to-end command line behavior, driven in process through main()."""

import argparse
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import sgwshape as sg
from sgwshape.cli import build_parser, main

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


class TestSignatureAndGsgw:
    def test_signature_csv_shape(self, mesh_file, tmp_path):
        out = tmp_path / "sig.csv"
        code = main(["signature", str(mesh_file), *FAST[:4], "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == sg.signature_length(3)
        assert len(rows[0]) == 42

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

    def test_fragile_dims_warning(self, dataset_dir, tmp_path, capsys):
        code = self.run_compare(dataset_dir, tmp_path, "--pca-dims", "4")
        assert code == 0
        assert "pca_dims=4 exceeds half" in capsys.readouterr().err

    def test_all_strata_failed_numerically_exits_3(self, dataset_dir, tmp_path, capsys):
        code = self.run_compare(dataset_dir, tmp_path, "--pca-dims", "5")
        assert code == 3
        capsys.readouterr()

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text("path,subject,group,bone,side\n")
        code = main(["compare", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        capsys.readouterr()


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

    def test_plot_gsgw(self, artifacts, dataset_dir, tmp_path):
        table = tmp_path / "gsgw.csv"
        code = main(
            ["gsgw", str(dataset_dir / "sphere_000.off"),
             str(dataset_dir / "ellipsoid_000.off"),
             "--k", "10", "--R", "3", "--labels", "s,e", "--out", str(table)]
        )
        assert code == 0
        out = tmp_path / "gsgw.svg"
        code = main(["plot", "gsgw", str(table), "--out", str(out)])
        assert code == 0
        self.assert_valid_svg(out)


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
        assert "default 18" in text
        assert "default 1000" in text
