"""Generalized eigensolver behavior."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import sgwshape as sg
from sgwshape import eigen
from sgwshape.errors import ConvergenceError, InvalidParam, NumericalError
from sgwshape.gsgw import descriptor_from_summary, summarize

from conftest import random_rotation, rigid_transform


# the OpenBLAS thread controls this process found, before any test replaces the lookup
_CONTROLS = eigen._openblas_thread_controls()

_NEEDS_OPENBLAS = pytest.mark.skipif(not _CONTROLS, reason="no OpenBLAS is loaded into this process")


def _threads():
    return [get() for get, _ in _CONTROLS]


def small_problem(mesh, k=10, method="auto"):
    stiffness, mass = sg.laplacian_matrices(mesh)
    return sg.solve_eigen(stiffness, mass, k, method=method)


class TestSolveEigen:
    def test_first_mode_is_constant(self, icosphere2_basis):
        basis = icosphere2_basis
        phi1 = basis.eigenvectors[:, 0]
        expected = 1.0 / np.sqrt(basis.vertex_areas.sum())
        np.testing.assert_allclose(phi1, expected, rtol=1e-8)
        assert basis.eigenvalues[0] < 1e-8 * basis.eigenvalues[-1]

    def test_eigenvalues_sorted_and_nonnegative(self, bumpy2_basis):
        vals = bumpy2_basis.eigenvalues
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] >= 0

    def test_area_orthonormality(self, bumpy2_basis):
        phi = bumpy2_basis.eigenvectors
        gram = phi.T @ (bumpy2_basis.vertex_areas[:, None] * phi)
        defect = np.abs(gram - np.eye(phi.shape[1])).max()
        assert defect < 1e-8

    def test_generalized_residual(self, bumpy2, bumpy2_basis):
        stiffness, mass = sg.laplacian_matrices(bumpy2)
        phi = bumpy2_basis.eigenvectors
        lam = bumpy2_basis.eigenvalues
        resid = stiffness @ phi - mass @ phi * lam
        scale = np.linalg.norm(mass @ phi, axis=0)
        assert (np.linalg.norm(resid, axis=0) / scale).max() < 1e-8

    def test_sign_convention(self, bumpy2_basis):
        phi = bumpy2_basis.eigenvectors
        peaks = phi[np.abs(phi).argmax(axis=0), np.arange(phi.shape[1])]
        assert np.all(peaks > 0)

    def test_repeat_solve_is_bitwise_identical(self, bumpy2):
        a = small_problem(bumpy2, k=12)
        b = small_problem(bumpy2, k=12)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)

    def test_dense_and_sparse_agree(self, icosphere2):
        dense = small_problem(icosphere2, k=20, method="dense")
        sparse = small_problem(icosphere2, k=20, method="sparse")
        scale = dense.eigenvalues[-1]
        assert np.abs(dense.eigenvalues - sparse.eigenvalues).max() < 1e-9 * scale

    @pytest.mark.parametrize("k", [9, 16, 25, 31, 36, 49])
    def test_sparse_keeps_degenerate_clusters(self, icosphere3, k):
        # the icosphere's spectrum comes in exactly degenerate clusters (the
        # l = 5 band is indices 25-35); at ARPACK's default Krylov size the
        # sparse route must still return every member at the window edge
        dense = small_problem(icosphere3, k=k, method="dense")
        sparse = small_problem(icosphere3, k=k, method="sparse")
        assert sparse.method == "sparse"
        scale = dense.eigenvalues[-1]
        assert np.abs(dense.eigenvalues - sparse.eigenvalues).max() < 1e-9 * scale

    def test_sparse_keeps_degenerate_clusters_at_m2562(self):
        # at m = 2562 the default k = 31 cuts the l = 5 band (indices 25-35), and an
        # oversolve buffer of 4 drops a member there; the oracle is the dense solve of
        # the same similarity-transformed matrix, restricted to its first k pairs
        mesh = sg.make_synthetic("unit_sphere", 4)
        stiffness, mass = sg.laplacian_matrices(mesh)
        inv_sqrt = sp.diags(1.0 / np.sqrt(mass.diagonal()))
        b = (inv_sqrt @ stiffness @ inv_sqrt).toarray()
        expected = scipy.linalg.eigh((b + b.T) * 0.5, eigvals_only=True, subset_by_index=[0, 30])
        sparse = sg.solve_eigen(stiffness, mass, 31, method="sparse")
        assert mesh.m == 2562 and sparse.method == "sparse"
        scale = expected[-1]
        assert np.abs(np.maximum(expected, 0.0) - sparse.eigenvalues).max() < 1e-9 * scale

    def test_sparse_keeps_degenerate_clusters_at_m10242(self):
        # at m = 10242 the l = 5 band splits into clusters of 5, 3 and 3 (near
        # 29.915, 29.9295 and 29.9382), so k = 31 cuts a 3-fold cluster; a dense
        # oracle would take 840 MB here, so the reference is a wider sparse solve
        mesh = sg.make_synthetic("unit_sphere", 5)
        stiffness, mass = sg.laplacian_matrices(mesh)
        cut = sg.solve_eigen(stiffness, mass, 31, method="sparse")
        wide = sg.solve_eigen(stiffness, mass, 48, method="sparse")
        assert mesh.m == 10242 and cut.method == "sparse"
        scale = cut.eigenvalues[-1]
        assert np.abs(wide.eigenvalues[:31] - cut.eigenvalues).max() < 1e-9 * scale

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_matches_dense_pair_by_pair(self, seed):
        # the sparse route solves in band order and puts the eigenvectors back in
        # vertex order; a wrong reordering moves the vectors and the area weights
        mesh = sg.make_synthetic("bumpy_sphere", 3, seed=seed)
        dense = small_problem(mesh, k=31, method="dense")
        sparse = small_problem(mesh, k=31, method="sparse")
        assert mesh.m == 642 and sparse.method == "sparse"
        scale = dense.eigenvalues[-1]
        assert np.abs(sparse.eigenvalues - dense.eigenvalues).max() <= 1e-12 * scale
        np.testing.assert_allclose(summarize(sparse).w_area, summarize(dense).w_area, rtol=1e-10)
        np.testing.assert_allclose(
            np.abs(sparse.eigenvectors[:, :9]), np.abs(dense.eigenvectors[:, :9]), rtol=0, atol=1e-8
        )

    def test_relabelled_vertices_give_the_same_spectrum(self):
        # the sparse route's band ordering depends on the vertex labels; the
        # eigenvalues and the area weights must not
        mesh = sg.make_synthetic("bumpy_sphere", 3, seed=2)
        order = np.random.default_rng(11).permutation(mesh.m)
        new_label = np.argsort(order)
        relabelled = sg.TriangleMesh(mesh.vertices[order], new_label[mesh.triangles])
        assert mesh.m == 642
        base = small_problem(mesh, k=31, method="sparse")
        moved = small_problem(relabelled, k=31, method="sparse")
        np.testing.assert_allclose(moved.eigenvalues[1:], base.eigenvalues[1:], rtol=1e-10)
        assert moved.eigenvalues[0] < 1e-10 * moved.eigenvalues[-1]
        np.testing.assert_allclose(summarize(moved).w_area, summarize(base).w_area, rtol=1e-9)

    def test_rigid_motion_preserves_spectrum(self, bumpy2, bumpy2_basis):
        rng = np.random.default_rng(3)
        moved = rigid_transform(bumpy2, random_rotation(rng), rng.standard_normal(3))
        moved_basis = small_problem(moved, k=31)
        np.testing.assert_allclose(
            moved_basis.eigenvalues[1:],
            bumpy2_basis.eigenvalues[1:],
            rtol=1e-10,
        )

    def test_uniform_scaling_divides_eigenvalues(self, bumpy2, bumpy2_basis):
        scaled = sg.TriangleMesh(bumpy2.vertices * 2.0, bumpy2.triangles)
        scaled_basis = small_problem(scaled, k=31)
        np.testing.assert_allclose(
            scaled_basis.eigenvalues[1:] * 4.0,
            bumpy2_basis.eigenvalues[1:],
            rtol=1e-8,
        )

    def test_invalid_k(self, icosphere2):
        stiffness, mass = sg.laplacian_matrices(icosphere2)
        with pytest.raises(InvalidParam):
            sg.solve_eigen(stiffness, mass, 0)
        with pytest.raises(InvalidParam):
            sg.solve_eigen(stiffness, mass, icosphere2.m + 1)

    def test_unknown_method(self, icosphere2):
        stiffness, mass = sg.laplacian_matrices(icosphere2)
        with pytest.raises(InvalidParam, match="method"):
            sg.solve_eigen(stiffness, mass, 5, method="magic")

    @pytest.mark.parametrize(
        "shape, mass_size, message",
        [
            ((5, 6), 5, "stiffness must be square, got (5, 6)"),
            ((5, 5), 6, "mass matrix shape does not match the stiffness matrix"),
        ],
        ids=["non-square-stiffness", "mass-size"],
    )
    def test_shape_mismatch_rejected(self, shape, mass_size, message):
        stiffness = sp.eye(*shape, format="csr")
        mass = sp.identity(mass_size, format="csr")
        with pytest.raises(InvalidParam) as raised:
            sg.solve_eigen(stiffness, mass, 2)
        assert str(raised.value) == message

    def test_nonpositive_mass_rejected(self):
        stiffness = sp.identity(5, format="csr")
        mass = sp.diags([1.0, 1.0, 0.0, 1.0, 1.0]).tocsr()
        with pytest.raises(InvalidParam, match="mass"):
            sg.solve_eigen(stiffness, mass, 2)

    def test_indefinite_operator_rejected(self):
        stiffness = (-sp.identity(6)).tocsr()
        mass = sp.identity(6, format="csr")
        with pytest.raises(NumericalError, match="negative"):
            sg.solve_eigen(stiffness, mass, 3)

    def test_asymmetric_pattern_rejected(self):
        stiffness = sp.csr_matrix(np.triu(np.ones((6, 6))))
        with pytest.raises(InvalidParam, match="symmetric sparsity pattern"):
            sg.solve_eigen(stiffness, sp.identity(6, format="csr"), 3)

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_duplicate_entries_are_summed(self, icosphere2, icosphere2_basis, method):
        # each entry of W stored as two halves, each row in descending column order
        stiffness, mass = sg.laplacian_matrices(icosphere2)
        indices, data = [], []
        for i in range(stiffness.shape[0]):
            row = slice(stiffness.indptr[i], stiffness.indptr[i + 1])
            indices += np.repeat(stiffness.indices[row][::-1], 2).tolist()
            data += np.repeat(stiffness.data[row][::-1] / 2, 2).tolist()
        split = sp.csr_matrix((data, indices, 2 * stiffness.indptr), shape=stiffness.shape)
        assert not split.has_canonical_format
        basis = sg.solve_eigen(split, mass, 31, method=method)
        np.testing.assert_allclose(
            basis.eigenvalues[1:], icosphere2_basis.eigenvalues[1:], rtol=1e-10
        )

    @pytest.mark.parametrize(
        "stiffness", [-sp.identity(20), sp.csr_matrix((20, 20))], ids=["minus-identity", "zero"]
    )
    def test_indefinite_operator_rejected_on_sparse_route(self, stiffness):
        # the shifted matrix has no Cholesky factor; solving with a partial
        # factor would hand Lanczos a wrong operator
        mass = sp.identity(20, format="csr")
        with pytest.raises(NumericalError, match="stiffness matrix is not positive semidefinite"):
            sg.solve_eigen(stiffness, mass, 3, method="sparse")


def scaled_problem(subdivisions, c):
    """(W, A) of make_synthetic("bumpy_sphere", subdivisions, seed=0) with every vertex times c."""
    mesh = sg.make_synthetic("bumpy_sphere", subdivisions, seed=0)
    return sg.laplacian_matrices(sg.TriangleMesh(c * mesh.vertices, mesh.triangles))


_SCALES = [1e-3, 1.0, 1e3]


class TestLengthUnit:
    """The solver's checks carry no length unit: under x -> c x, W is unchanged,
    A goes as c^2 and each eigenvalue as 1/c^2, so a mesh in metres and the same
    mesh in millimetres are held to the same bar."""

    @pytest.mark.parametrize(
        "subdivisions, method", [(2, "auto"), (3, "auto"), (4, "auto"), (2, "sparse"), (3, "dense")]
    )
    def test_every_scale_solves(self, subdivisions, method):
        reference = sg.solve_eigen(*scaled_problem(subdivisions, 1.0), 31, method=method)
        for c in (1e-3, 1e3):
            got = sg.solve_eigen(*scaled_problem(subdivisions, c), 31, method=method)
            assert got.method == reference.method
            scaled = got.eigenvalues * c**2
            assert scaled[0] <= 1e-10 * reference.eigenvalues[-1]
            np.testing.assert_allclose(scaled[1:], reference.eigenvalues[1:], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_one_pair_is_checked_against_lambda_2(self, method):
        # lambda_1 of a closed mesh is zero, so it cannot set the scale
        for c in _SCALES:
            stiffness, mass = scaled_problem(2, c)
            basis = sg.solve_eigen(stiffness, mass, 1, method=method)
            assert basis.eigenvalues[0] <= 1e-10 / c**2
            np.testing.assert_allclose(
                basis.eigenvectors[:, 0], 1.0 / np.sqrt(mass.diagonal().sum()), rtol=1e-8
            )

    @pytest.mark.parametrize("c", _SCALES)
    @pytest.mark.parametrize(
        "subdivisions, method, solver", [(2, "dense", "eigh"), (3, "sparse", "eigsh")]
    )
    def test_a_perturbed_pair_is_refused(self, monkeypatch, c, subdivisions, method, solver):
        # every eigenvalue 1e-6 relative off; the gate with a unit, 1e-8 on
        # ||W phi - lambda A phi|| / ||A phi||, let this through at c = 1e3
        found = getattr(eigen, solver)

        def perturbed(*args, **kwargs):
            vals, vecs = found(*args, **kwargs)
            return vals * (1.0 + 1e-6), vecs

        monkeypatch.setattr(eigen, solver, perturbed)
        with pytest.raises(ConvergenceError, match=r"residual .* \(relative to lambda_k\) exceeds"):
            sg.solve_eigen(*scaled_problem(subdivisions, c), 31, method=method)

    @pytest.mark.parametrize("c", _SCALES)
    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_a_negative_eigenvalue_is_refused(self, c, method):
        # W - delta A has the pairs of (W, A) with each eigenvalue lowered by
        # delta, so its lowest is -delta = -1e-6 lambda_k: far outside round-off
        # at every scale. The check's old floor of 1.0 (a unit of 1/length^2)
        # clamped it to zero at c = 1e3
        stiffness, mass = scaled_problem(2, c)
        lam_k = sg.solve_eigen(stiffness, mass, 31, method=method).eigenvalues[-1]
        with pytest.raises(NumericalError, match="negative beyond round-off"):
            sg.solve_eigen(stiffness - 1e-6 * lam_k * mass, mass, 31, method=method)


class TestEigenBasis:
    def test_shape_properties(self, bumpy2, bumpy2_basis):
        assert bumpy2_basis.m == bumpy2.m
        assert bumpy2_basis.k == 31


@pytest.fixture(scope="module")
def bumpy3_matrices():
    stiffness, mass = sg.laplacian_matrices(sg.make_synthetic("bumpy_sphere", 3, seed=1))
    assert stiffness.shape[0] == 642
    return stiffness, mass


@pytest.fixture
def two_threads():
    """Every OpenBLAS found at two threads, so that a count left at one shows
    even where the process started at one; the counts found are put back after.
    (Three, on a 2-core host, made one 642-vertex solve take 4 s.)"""
    found = _threads()
    for _, put in _CONTROLS:
        put(2)
    yield [2] * len(_CONTROLS)
    for (_, put), count in zip(_CONTROLS, found):
        put(count)


@pytest.fixture
def solver_threads(monkeypatch):
    """The thread counts of every OpenBLAS found, recorded at each eigh or eigsh call."""
    seen = []

    def spy(real):
        def recording(*args, **kwargs):
            seen.append(_threads())
            return real(*args, **kwargs)

        return recording

    for name in ("eigh", "eigsh"):
        monkeypatch.setattr(eigen, name, spy(getattr(eigen, name)))
    return seen


@pytest.fixture(scope="module")
def bumpy2_file(tmp_path_factory):
    """A bumpy sphere at m = 162, which takes the dense route, as an OFF file."""
    path = tmp_path_factory.mktemp("bumpy2") / "bumpy2.off"
    sg.write_mesh(sg.make_synthetic("bumpy_sphere", 2, seed=1), path)
    return path


@_NEEDS_OPENBLAS
class TestSparseSolveThreads:
    def test_sparse_solve_runs_at_one_thread(self, bumpy3_matrices, two_threads, solver_threads):
        sg.solve_eigen(*bumpy3_matrices, 31)
        assert solver_threads == [[1] * len(_CONTROLS)]

    def test_counts_are_back_after_the_solve(self, bumpy3_matrices, two_threads):
        sg.solve_eigen(*bumpy3_matrices, 31)
        assert _threads() == two_threads

    def test_counts_are_back_after_the_solve_raises(self, monkeypatch, bumpy3_matrices, two_threads):
        def fail(*args, **kwargs):
            raise ConvergenceError("no convergence")

        monkeypatch.setattr(eigen, "eigsh", fail)
        with pytest.raises(ConvergenceError, match="no convergence"):
            sg.solve_eigen(*bumpy3_matrices, 31)
        assert _threads() == two_threads

    def test_counts_are_back_after_concurrent_solves(self, monkeypatch, bumpy3_matrices, two_threads):
        # both solves meet inside eigsh; the one in this thread goes on only
        # after the pool's solve has returned, and must still run at one thread
        both_in = threading.Barrier(2, timeout=60)
        first_out = threading.Event()
        here = threading.current_thread()
        seen = []
        real = eigen.eigsh

        def meet(*args, **kwargs):
            both_in.wait()
            if threading.current_thread() is here:
                first_out.wait(60)
                seen.append(_threads())
            return real(*args, **kwargs)

        def first():
            try:
                return sg.solve_eigen(*bumpy3_matrices, 31)
            finally:
                first_out.set()

        monkeypatch.setattr(eigen, "eigsh", meet)
        with ThreadPoolExecutor(1) as pool:
            future = pool.submit(first)
            second = sg.solve_eigen(*bumpy3_matrices, 31)
        assert first_out.is_set() and seen == [[1] * len(_CONTROLS)]
        assert _threads() == two_threads
        np.testing.assert_array_equal(future.result().eigenvalues, second.eigenvalues)

    def test_counts_hold_while_many_threads_enter_and_leave(self, two_threads):
        # more threads than cores, switching often: a lost update of the depth
        # count would show a library at its old count inside the block, or
        # leave it at one thread after
        def enter_and_leave():
            for _ in range(200):
                with eigen._one_blas_thread():
                    assert _threads() == [1] * len(_CONTROLS)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(enter_and_leave) for _ in range(4)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert eigen._one_thread_depth == 0
        assert _threads() == two_threads

    def test_no_openblas_found_gives_the_same_eigenpairs(self, monkeypatch, bumpy3_matrices):
        one_thread = sg.solve_eigen(*bumpy3_matrices, 31)
        monkeypatch.setattr(eigen, "_openblas_thread_controls", lambda: ())
        default = sg.solve_eigen(*bumpy3_matrices, 31)
        np.testing.assert_array_equal(default.eigenvalues, one_thread.eigenvalues)
        np.testing.assert_array_equal(default.eigenvectors, one_thread.eigenvectors)


@_NEEDS_OPENBLAS
class TestSolvesAtOneThread:
    def test_dense_solve_runs_at_one_thread(self, bumpy2_file, two_threads, solver_threads):
        stiffness, mass = sg.laplacian_matrices(sg.load_mesh(bumpy2_file))
        assert sg.solve_eigen(stiffness, mass, 31).method == "dense"
        assert solver_threads == [[1] * len(_CONTROLS)]
        assert _threads() == two_threads

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_pairs_do_not_depend_on_the_thread_count(self, bumpy2_file, two_threads, method):
        # a solve inside a run's one-thread region gives the pairs a run stores
        stiffness, mass = sg.laplacian_matrices(sg.load_mesh(bumpy2_file))
        default = sg.solve_eigen(stiffness, mass, 31, method=method)
        with eigen._one_blas_thread():
            one_thread = sg.solve_eigen(stiffness, mass, 31, method=method)
        np.testing.assert_array_equal(default.eigenvalues, one_thread.eigenvalues)
        np.testing.assert_array_equal(default.eigenvectors, one_thread.eigenvectors)

    def test_gsgw_for_mesh_equals_the_library_chain(self, bumpy2_file, two_threads):
        cfg = sg.RunConfig(k=31, R=30)
        stiffness, mass = sg.laplacian_matrices(sg.load_mesh(bumpy2_file), lumping=cfg.lumping)
        chain = descriptor_from_summary(
            summarize(sg.solve_eigen(stiffness, mass, cfg.k)), cfg.R
        )
        np.testing.assert_array_equal(sg.gsgw_for_mesh(bumpy2_file, cfg).values, chain.values)


@pytest.mark.parametrize(
    "call",
    [
        lambda mesh, basis, w, a: sg.solve_eigen(w, a, 2.5, method="sparse"),
        lambda mesh, basis, w, a: sg.solve_eigen(w, a, 2.5, method="dense"),
        lambda mesh, basis, w, a: sg.solve_eigen(w, a, True, method="dense"),
        lambda mesh, basis, w, a: summarize(basis).truncate(2.0),
        lambda mesh, basis, w, a: sg.signature_matrix(basis, 2.5),
        lambda mesh, basis, w, a: sg.wavelet_scales(2.5, 1.0, 20.0),
        lambda mesh, basis, w, a: sg.reconstruct_vertices(mesh, basis, 2.5),
        lambda mesh, basis, w, a: sg.nmse_curve(mesh, basis, [2.5]),
    ],
    ids=[
        "solve-sparse-k", "solve-dense-k", "solve-bool-k", "summary-truncate",
        "signature-R", "scales-L", "reconstruct-k", "nmse-k",
    ],
)
def test_counts_that_are_not_integers_are_invalid(bumpy2, bumpy2_basis, call):
    stiffness, mass = sg.laplacian_matrices(bumpy2)
    with pytest.raises(InvalidParam, match="must be an integer"):
        call(bumpy2, bumpy2_basis, stiffness, mass)
