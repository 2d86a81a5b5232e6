"""Acceptance gate: ten go/no-go checks over the whole package.

Each check prints one PASS/FAIL line on the real stdout so the verdicts
stay visible under pytest's capture, then asserts.
"""

import math
import sys
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import kstest, ttest_ind

import sgwshape as sg

from conftest import full_basis, random_rotation, rigid_transform

_reporter = None


@pytest.fixture(scope="module", autouse=True)
def _terminal(request):
    global _reporter
    _reporter = request.config.pluginmanager.get_plugin("terminalreporter")


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:2d}: {status} ({detail})"
    if _reporter is not None:
        _reporter.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {detail}"


def _solve(mesh, k):
    stiffness, mass = sg.laplacian_matrices(mesh)
    return sg.solve_eigen(stiffness, mass, k)


def test_criterion_01_sphere_spectrum():
    start = time.perf_counter()
    mesh = sg.make_synthetic("unit_sphere", 3)
    basis = _solve(mesh, 15)
    elapsed = time.perf_counter() - start

    # the full multiplicity pattern {1,3,5,7} spans 16 modes, so check the
    # 15 requested values as a prefix and the complete bands at k=16
    full = _solve(mesh, 16)
    smooth = [0.0] + [2.0] * 3 + [6.0] * 5 + [12.0] * 7
    worst = 0.0
    for got, want in zip(full.eigenvalues, smooth):
        if want == 0.0:
            ok_mode = abs(got) < 1e-8
        else:
            worst = max(worst, abs(got - want) / want)
            ok_mode = abs(got - want) / want < 0.05
        if not ok_mode:
            _report(1, False, f"eigenvalue {got:.6g} strays from {want}")
    gap = np.abs(basis.eigenvalues - full.eigenvalues[:15]).max()
    prefix_ok = bool(gap < 1e-9 * full.eigenvalues[-1])

    ok = worst < 0.05 and elapsed < 5.0 and prefix_ok
    _report(
        1,
        ok,
        f"m=642 bands 0/2/6/12 x mult 1/3/5/7, worst rel err {worst:.2%}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_02_dense_oracle_equivalence():
    meshes = [
        ("icosphere s2", sg.make_synthetic("unit_sphere", 2), 31),
        ("bumpy s2", sg.make_synthetic("bumpy_sphere", 2, seed=5), 31),
        (
            "ellipsoid s2",
            sg.make_synthetic("ellipsoid", 2, axes=(1.3, 1.0, 0.9)),
            31,
        ),
        ("bumpy s1", sg.make_synthetic("bumpy_sphere", 1, amplitude=0.1, seed=3), 20),
        ("icosahedron", sg.make_synthetic("unit_sphere", 0), 11),
    ]
    worst_val = 0.0
    worst_ortho = 0.0
    for name, mesh, k in meshes:
        stiffness, mass = sg.laplacian_matrices(mesh)
        sparse = sg.solve_eigen(stiffness, mass, k)
        oracle = scipy.linalg.eigh(
            stiffness.toarray(), mass.toarray(), eigvals_only=True
        )[:k]
        scale = max(1.0, float(oracle[-1]))
        worst_val = max(
            worst_val, float(np.abs(sparse.eigenvalues - oracle).max()) / scale
        )
        phi = sparse.eigenvectors
        gram = phi.T @ (sparse.vertex_areas[:, None] * phi)
        worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(k)).max()))
    ok = worst_val < 1e-9 and worst_ortho < 1e-6
    _report(
        2,
        ok,
        f"5 meshes, eigenvalue gap {worst_val:.2e} < 1e-9, "
        f"orthonormality defect {worst_ortho:.2e} < 1e-6",
    )


def test_criterion_03_signature_dimensions():
    table = {1: 2, 2: 5, 5: 20, 30: 495}
    got = {R: sg.signature_length(R) for R in table}
    ok = got == table
    _report(3, ok, f"lengths for R in (1,2,5,30): {tuple(got.values())}")


def test_criterion_04_isometry_invariance():
    mesh = sg.make_synthetic("bumpy_sphere", 2, seed=5)
    basis = _solve(mesh, 31)
    ref = sg.aggregate(sg.signature_matrix(basis, 30), basis.vertex_areas)

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        moved = rigid_transform(mesh, random_rotation(rng), rng.standard_normal(3))
        mb = _solve(moved, 31)
        vec = sg.aggregate(sg.signature_matrix(mb, 30), mb.vertex_areas)
        worst = max(worst, float(np.max(np.abs(vec.values - ref.values) / ref.values)))
    ok = worst < 1e-8
    _report(4, ok, f"10 rigid motions, worst entrywise rel change {worst:.2e} < 1e-8")


def test_criterion_05_eigenspace_rotation_invariance():
    mesh = sg.make_synthetic("unit_sphere", 2)
    basis = _solve(mesh, 10)
    ref = sg.signature_matrix(basis, 5).values

    triple = basis.eigenvectors[:, 1:4]  # the degenerate l=1 eigenspace
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(25):
        q = random_rotation(rng)
        phi = basis.eigenvectors.copy()
        phi[:, 1:4] = triple @ q
        rotated = sg.EigenBasis(basis.eigenvalues, phi, basis.vertex_areas)
        vals = sg.signature_matrix(rotated, 5).values
        worst = max(worst, float(np.abs(vals - ref).max()))
    ok = worst < 1e-10
    _report(5, ok, f"25 eigenspace rotations, worst entry change {worst:.2e} < 1e-10")


def test_criterion_06_hand_oracle_signature():
    eigenvalues = np.array([0.0, 4.0])
    eigenvectors = np.array([[0.3, 0.7], [0.5, -0.2], [0.4, 0.1]])
    areas = np.array([0.9, 1.2, 0.6])
    basis = sg.EigenBasis(eigenvalues, eigenvectors, areas)
    # the grid is derived from the spectrum: lambda_max = 4, lambda_min = 4/20
    R, lo, hi = 3, 0.2, 4.0
    got = sg.signature_matrix(basis, R).values

    # brute force with scalar math only, no shared code with the library
    def g(x):
        return x * math.exp(-x)

    def h(x):
        return math.exp(-1.0) * math.exp(-((x / (0.6 * lo)) ** 4))

    worst = 0.0
    for j in range(3):
        expected = []
        for level in range(1, R + 1):
            if level == 1:
                scales = [2.0 / lo]
            else:
                step = (math.log(2.0 / hi) - math.log(2.0 / lo)) / (level - 1)
                scales = [math.exp(math.log(2.0 / lo) + i * step) for i in range(level)]
                scales[0], scales[-1] = 2.0 / lo, 2.0 / hi
            for t in scales:
                expected.append(
                    sum(
                        g(t * lam) * vec[j] ** 2
                        for lam, vec in zip(eigenvalues, eigenvectors.T)
                    )
                )
            expected.append(
                sum(
                    h(lam) * vec[j] ** 2
                    for lam, vec in zip(eigenvalues, eigenvectors.T)
                )
            )
        expected = np.array(expected) * areas[j] ** 2
        worst = max(worst, float(np.abs(got[:, j] - expected).max()))
    ok = worst < 1e-12
    _report(6, ok, f"3-vertex toy vs scalar brute force, gap {worst:.2e} < 1e-12")


def test_criterion_07_nmse_anchors():
    small = sg.make_synthetic("unit_sphere", 1)  # m = 42, closed
    small_basis = full_basis(*sg.laplacian_matrices(small))
    full = sg.nmse_curve(small, small_basis, [1, small.m])
    anchor_exact = full.nmse[0] == 1.0
    tail_tiny = full.nmse[-1] < 1e-12

    shapes = [
        sg.make_synthetic("unit_sphere", 2),
        sg.make_synthetic("bumpy_sphere", 2, seed=5),
    ]
    monotone = True
    decay_ok = True
    for mesh in shapes:
        basis = _solve(mesh, 50)
        curve = sg.nmse_curve(mesh, basis, list(range(1, 51)))
        vals = np.array(curve.nmse)
        monotone = monotone and bool(np.all(np.diff(vals) <= 1e-15))
        decay_ok = decay_ok and vals[29] < 0.1
    ok = anchor_exact and tail_tiny and monotone and decay_ok
    _report(
        7,
        ok,
        f"NMSE(1)=1 exact: {anchor_exact}, NMSE(m)={full.nmse[-1]:.1e} < 1e-12, "
        f"monotone over k=1..50: {monotone}, NMSE(30) < 0.1: {decay_ok}",
    )


def test_criterion_08_statistics_correctness():
    start = time.perf_counter()

    # (a) agreement with Hotelling's T^2 through its exact relation to Wilks
    rng = np.random.default_rng(2024)
    worst_identity = 0.0
    for _ in range(100):
        n1 = int(rng.integers(5, 13))
        n2 = int(rng.integers(5, 13))
        n = n1 + n2
        d = int(rng.integers(1, min(7, n - 2) + 1))
        x = rng.standard_normal((n, d))
        mask = np.zeros(n, dtype=bool)
        mask[:n1] = True
        data = sg.DataMatrix(x, ["a"] * n1 + ["b"] * n2)
        lam = sg.compare_groups(data, pca_dims=d, n_perm=1, seed=0).statistic

        diff = x[mask].mean(axis=0) - x[~mask].mean(axis=0)
        r1 = x[mask] - x[mask].mean(axis=0)
        r2 = x[~mask] - x[~mask].mean(axis=0)
        pooled = (r1.T @ r1 + r2.T @ r2) / (n - 2)
        t_sq = (n1 * n2 / n) * float(diff @ np.linalg.solve(pooled, diff))
        worst_identity = max(worst_identity, abs(lam - 1.0 / (1.0 + t_sq / (n - 2))))
    identity_ok = worst_identity < 1e-10

    # (b) univariate MANOVA p equals the pooled two-sample t-test p
    worst_t = 0.0
    for trial in range(20):
        gen = np.random.default_rng(500 + trial)
        x = np.concatenate([gen.standard_normal(9), gen.standard_normal(9) + 0.4])
        data = sg.DataMatrix(x[:, None], ["a"] * 9 + ["b"] * 9)
        p = sg.compare_groups(data, pca_dims=1, n_perm=1, seed=0).manova_p
        t_p = float(ttest_ind(x[:9], x[9:]).pvalue)
        worst_t = max(worst_t, abs(p - t_p))
    ttest_ok = worst_t < 1e-10

    # (c) null permutation p-values close to uniform
    gen = np.random.default_rng(2024)
    labels = ["a"] * 8 + ["b"] * 8
    pvals = []
    for seed in range(200):
        data = sg.DataMatrix(gen.standard_normal((16, 3)), labels)
        pvals.append(sg.compare_groups(data, pca_dims=3, n_perm=199, seed=seed).permutation_p)
    ks_stat = float(kstest(pvals, "uniform").statistic)
    uniform_ok = ks_stat < 0.1

    elapsed = time.perf_counter() - start
    ok = identity_ok and ttest_ok and uniform_ok and elapsed < 60.0
    _report(
        8,
        ok,
        f"identity gap {worst_identity:.1e}, t-test gap {worst_t:.1e}, "
        f"null KS {ks_stat:.3f} < 0.1, {elapsed:.1f}s < 60s",
    )


def test_criterion_09_end_to_end_discrimination(tmp_path):
    start = time.perf_counter()
    cache = tmp_path / "cache"

    manifest = sg.DatasetManifest.load(sg.make_two_class_manifest(tmp_path / "two"))
    cfg = sg.RunConfig(cache_dir=str(cache))
    run = sg.run_group_comparison(manifest, cfg)
    comparison = run.strata[0].comparison
    detect_ok = (
        comparison is not None
        and comparison.manova_p < 0.05
        and comparison.permutation_p < 0.05
    )

    null_dir = tmp_path / "null"
    calm = 0
    for split_seed in range(50):
        path = sg.make_null_manifest(
            null_dir, mesh_seed=100, split_seed=split_seed
        )
        null_cfg = sg.RunConfig(cache_dir=str(cache), seed=split_seed)
        null_run = sg.run_group_comparison(sg.DatasetManifest.load(path), null_cfg)
        null_cmp = null_run.strata[0].comparison
        if null_cmp is not None and null_cmp.permutation_p >= 0.05:
            calm += 1
    elapsed = time.perf_counter() - start

    ok = detect_ok and calm >= 45 and elapsed < 600.0
    if comparison is None:
        shown = f"two-class run failed: {run.strata[0].error}"
    else:
        shown = (
            f"two-class manova_p={comparison.manova_p:.4g}, "
            f"perm_p={comparison.permutation_p:.4g}"
        )
    _report(9, ok, f"{shown}, null calm {calm}/50 >= 45, {elapsed:.0f}s < 600s")


def test_criterion_10_determinism(tmp_path):
    manifest_path = sg.make_two_class_manifest(
        tmp_path / "data", n_per_group=4, subdivisions=2
    )
    manifest = sg.DatasetManifest.load(manifest_path)

    trees = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cache = out / "cache"
        cfg = sg.RunConfig(
            k=20, R=10, pca_dims=4, n_perm=200, cache_dir=str(cache)
        )
        run = sg.run_group_comparison(manifest, cfg)
        out.mkdir(parents=True, exist_ok=True)
        run.write_json(out / "report.json")
        run.write_csv(out / "report.csv")
        blobs = {
            blob.name: blob.read_bytes() for blob in sorted(cache.glob("*.sgwc"))
        }
        trees.append(
            {
                "report.json": (out / "report.json").read_bytes(),
                "report.csv": (out / "report.csv").read_bytes(),
                "cache": blobs,
            }
        )

    reports_equal = (
        trees[0]["report.json"] == trees[1]["report.json"]
        and trees[0]["report.csv"] == trees[1]["report.csv"]
    )
    caches_equal = trees[0]["cache"] == trees[1]["cache"]
    n_blobs = len(trees[0]["cache"])
    ok = reports_equal and caches_equal and n_blobs > 0
    _report(
        10,
        ok,
        f"two cold runs: reports identical {reports_equal}, "
        f"{n_blobs} cache blobs identical {caches_equal}",
    )
