"""The package's public names: a fixed set, each one resolvable, and what importing it loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import sgwshape as sg

EXPORTED = {
    "__version__",
    # errors
    "SgwError", "ParseError", "ValidationError", "InvalidParam", "DimensionMismatch",
    "NumericalError", "ConvergenceError", "DegenerateMass", "SingularScatter",
    "GroupCountError",
    # meshes
    "TriangleMesh", "load_mesh", "write_mesh", "make_synthetic",
    # Laplacian and eigenpairs
    "laplacian_matrices", "EigenBasis", "solve_eigen",
    # signatures and descriptors
    "spectrum_bounds", "SignatureMatrix", "mexican_hat", "scaling_kernel",
    "wavelet_scales", "signature_length", "signature_matrix",
    "write_signature_csv", "GsgwVector", "aggregate",
    # reconstruction
    "ReconstructionReport", "reconstruct_vertices", "nmse_curve",
    # statistics
    "DataMatrix", "GroupComparison", "compare_groups",
    # batch runs
    "ManifestEntry", "DatasetManifest", "RunConfig", "RunDiagnostics", "StratumResult",
    "RunResult", "SweepResult", "run_group_comparison", "parameter_sweep",
    "gsgw_for_mesh", "make_two_class_manifest", "make_null_manifest",
}


def test_public_names_are_pinned():
    """A removed name cannot come back, nor a new one appear, unnoticed."""
    assert len(sg.__all__) == len(set(sg.__all__))
    assert set(sg.__all__) == EXPORTED
    assert [name for name in sg.__all__ if not hasattr(sg, name)] == []


def test_every_submodule_export_resolves():
    """A stale ``__all__`` entry breaks ``from sgwshape.<module> import *``; fail here instead."""
    union = set()
    for info in pkgutil.iter_modules(sg.__path__):
        module = importlib.import_module(f"sgwshape.{info.name}")
        exported = getattr(module, "__all__", ())
        assert [name for name in exported if not hasattr(module, name)] == [], info.name
        union.update(exported)
    errors = {name for name, value in vars(sg.errors).items()
              if isinstance(value, type) and issubclass(value, sg.SgwError)}
    assert set(sg.__all__) <= union | errors | {"__version__"}


def test_import_loads_no_scipy_stats():
    """The MANOVA takes its F tail from scipy.special; scipy.stats costs ~0.6 s to import."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, sgwshape, sgwshape.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
