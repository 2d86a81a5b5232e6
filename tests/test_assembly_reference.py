"""Assembly and band fill against plain scipy reference expressions, bit for bit.

The reference builds W by a COO-to-CSR reduction plus a diagonal, A with
``np.add.at``, and B as ``(D W D + (D W D)^T) / 2`` with D = A^{-1/2}, then
fills B's upper triangle in reverse Cuthill-McKee order into LAPACK band
storage, after scaling B by the even power of two that puts its mean
diagonal in [1/2, 2). laplacian_matrices and solve_eigen must give the same
bits: the same stored entries, each summed in the same order, so that every
summary, blob and report is the one these expressions give.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

import sgwshape as sg
from sgwshape import eigen, mesh_io

from conftest import planar_grid


def reference_corner_geometry(mesh):
    (e0, e1, e2), edge_sq, double_area = mesh_io._triangle_geometry(mesh.vertices, mesh.triangles)
    dots = np.stack(
        [-(e1 * e2).sum(axis=1), -(e2 * e0).sum(axis=1), -(e0 * e1).sum(axis=1)], axis=1
    )
    return dots / double_area[:, None], edge_sq, 0.5 * double_area


def reference_stiffness(mesh):
    cots = reference_corner_geometry(mesh)[0]
    m, t = mesh.m, mesh.triangles
    half = 0.5 * cots
    rows = np.concatenate([t[:, 1], t[:, 2], t[:, 2], t[:, 0], t[:, 0], t[:, 1]])
    cols = np.concatenate([t[:, 2], t[:, 1], t[:, 0], t[:, 2], t[:, 1], t[:, 0]])
    vals = np.concatenate([half[:, 0], half[:, 0], half[:, 1], half[:, 1], half[:, 2], half[:, 2]])
    off = sp.coo_matrix((-vals, (rows, cols)), shape=(m, m)).tocsr()
    off.sum_duplicates()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sp.diags(diag, format="csr")).tocsr()


def reference_mass_diagonal(mesh, lumping):
    cots, edge_sq, areas = reference_corner_geometry(mesh)
    if lumping == "barycentric":
        corner_area = np.repeat(areas[:, None] / 3.0, 3, axis=1)
    else:
        wedge = edge_sq * cots
        corner_area = (wedge.sum(axis=1)[:, None] - wedge) / 8.0
        obtuse = cots < 0.0
        has_obtuse = obtuse.any(axis=1)
        if has_obtuse.any():
            split = np.where(obtuse, areas[:, None] / 2.0, areas[:, None] / 4.0)
            corner_area = np.where(has_obtuse[:, None], split, corner_area)
    patch = np.zeros(mesh.m)
    np.add.at(patch, mesh.triangles.ravel(), corner_area.ravel())
    return patch


def reference_similarity(stiffness, areas):
    scaling = sp.diags(1.0 / np.sqrt(areas))
    b = (scaling @ stiffness @ scaling).tocsr()
    return (b + b.T) * 0.5


def reference_sparse_route_matrix(stiffness, areas):
    """B times 4^e, the power of four that puts its mean diagonal in [1/2, 2)."""
    b = reference_similarity(stiffness, areas)
    exponent = np.frexp(np.mean(b.diagonal()))[1]
    return b * 2.0 ** (-2 * (exponent // 2))


def reference_band(b, sigma):
    """B - sigma I in reverse Cuthill-McKee order, in LAPACK upper band storage."""
    m = b.shape[0]
    perm = reverse_cuthill_mckee(b, symmetric_mode=True)
    rank = np.empty(m, dtype=np.intp)
    rank[perm] = np.arange(m)
    entries = b.tocoo()
    row, col = rank[entries.row], rank[entries.col]
    upper = row <= col
    row, col = row[upper], col[upper]
    bw = int(np.max(col - row, initial=0))
    ab = np.zeros((bw + 1, m))
    ab[bw + row - col, col] = entries.data[upper]
    ab[bw] -= sigma
    return ab


def assert_same_csr(got, expected):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.shape == b.shape and a.tobytes() == b.astype(a.dtype).tobytes(), name


def grid3():
    # right triangles split along one diagonal: on the grid lines, the two
    # cotangents opposite an edge cancel exactly, so W drops those entries
    return planar_grid(3, 3)


MESHES = {
    "bumpy2": lambda: sg.make_synthetic("bumpy_sphere", 2, seed=5),
    "icosphere2": lambda: sg.make_synthetic("unit_sphere", 2),
    "grid3": grid3,
}


@pytest.fixture(params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def test_grid_stiffness_drops_its_zero_sums():
    stiffness = sg.laplacian_matrices(grid3())[0]
    assert stiffness.nnz == 33
    assert (stiffness.data != 0).all()


def test_stiffness_is_the_reference(mesh):
    assert_same_csr(sg.laplacian_matrices(mesh)[0], reference_stiffness(mesh))


@pytest.mark.parametrize("lumping", ["mixed", "barycentric"])
def test_mass_is_the_reference(mesh, lumping):
    got = sg.laplacian_matrices(mesh, lumping=lumping)[1].diagonal()
    assert got.tobytes() == reference_mass_diagonal(mesh, lumping).tobytes()


def test_band_and_shift_are_the_reference(mesh, monkeypatch):
    stiffness, mass = sg.laplacian_matrices(mesh)
    seen = {}
    dpbtrf, eigsh = eigen.dpbtrf, eigen.eigsh

    def band_spy(ab, **kwargs):
        seen["band"] = ab.copy()
        return dpbtrf(ab, **kwargs)

    def eigsh_spy(*args, **kwargs):
        seen["sigma"] = kwargs["sigma"]
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(eigen, "dpbtrf", band_spy)
    monkeypatch.setattr(eigen, "eigsh", eigsh_spy)
    sg.solve_eigen(stiffness, mass, 3)

    b = reference_sparse_route_matrix(stiffness, mass.diagonal())
    assert 0.5 <= np.mean(b.diagonal()) < 2.0
    sigma = -0.01 * float(np.mean(b.diagonal()))
    assert seen["sigma"] == sigma
    expected = reference_band(b, sigma)
    assert seen["band"].shape == expected.shape
    assert seen["band"].tobytes() == expected.tobytes()


def test_similarity_matrix_is_the_reference(mesh, monkeypatch):
    # B before its power-of-four scale, which solve_eigen applies in place
    stiffness, mass = sg.laplacian_matrices(mesh)
    seen = {}
    similarity = eigen._similarity

    def similarity_spy(*args):
        b = similarity(*args)
        seen["matrix"] = b.toarray()
        return b

    monkeypatch.setattr(eigen, "_similarity", similarity_spy)
    sg.solve_eigen(stiffness, mass, 3)
    expected = reference_similarity(stiffness, mass.diagonal()).toarray()
    assert seen["matrix"].tobytes() == expected.tobytes()


def test_stored_zeros_are_not_in_the_band(monkeypatch):
    # a stiffness matrix given with an edge's pair of entries stored as zeros:
    # B drops them, as the reference's sparse products do, so the band and
    # its reverse Cuthill-McKee order are those of the reference
    stiffness, mass = sg.laplacian_matrices(grid3())
    stiffness = stiffness.copy()
    stiffness[0, 1] = stiffness[1, 0] = 0.0
    assert stiffness.nnz == 33
    seen = []
    dpbtrf = eigen.dpbtrf

    def band_spy(ab, **kwargs):
        seen.append(ab.copy())
        return dpbtrf(ab, **kwargs)

    monkeypatch.setattr(eigen, "dpbtrf", band_spy)
    sg.solve_eigen(stiffness, mass, 3)
    b = reference_sparse_route_matrix(stiffness, mass.diagonal())
    assert b.nnz == 31
    expected = reference_band(b, -0.01 * float(np.mean(b.diagonal())))
    assert seen[0].shape == expected.shape and seen[0].tobytes() == expected.tobytes()
