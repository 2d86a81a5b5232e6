"""Spectral graph wavelet shape descriptors for triangle meshes.

The library computes Laplace-Beltrami spectra of triangle meshes, builds
multiresolution per-vertex wavelet signatures and a global area-weighted
descriptor from them, reconstructs geometry from truncated eigenbases,
and compares two shape populations with MANOVA plus a permutation test.
"""

__version__ = "0.1.0"

from .eigen import EigenBasis, solve_eigen
from .errors import (
    ConvergenceError,
    DegenerateMass,
    DimensionMismatch,
    GroupCountError,
    InvalidParam,
    NumericalError,
    ParseError,
    SgwError,
    SingularScatter,
    ValidationError,
)
from .gsgw import GsgwVector, aggregate
from .laplacian import laplacian_matrices
from .mesh_io import TriangleMesh, load_mesh, make_synthetic, write_mesh
from .pipeline import (
    DatasetManifest,
    ManifestEntry,
    RunConfig,
    RunDiagnostics,
    RunResult,
    StratumResult,
    SweepResult,
    gsgw_for_mesh,
    make_null_manifest,
    make_two_class_manifest,
    parameter_sweep,
    run_group_comparison,
)
from .reconstruct import ReconstructionReport, nmse_curve, reconstruct_vertices
from .sgws import (
    SignatureMatrix,
    mexican_hat,
    scaling_kernel,
    signature_length,
    signature_matrix,
    spectrum_bounds,
    wavelet_scales,
    write_signature_csv,
)
from .stats import DataMatrix, GroupComparison, compare_groups

__all__ = [
    "__version__",
    "SgwError",
    "ParseError",
    "ValidationError",
    "InvalidParam",
    "DimensionMismatch",
    "NumericalError",
    "ConvergenceError",
    "DegenerateMass",
    "SingularScatter",
    "GroupCountError",
    "TriangleMesh",
    "load_mesh",
    "write_mesh",
    "make_synthetic",
    "laplacian_matrices",
    "EigenBasis",
    "solve_eigen",
    "spectrum_bounds",
    "SignatureMatrix",
    "mexican_hat",
    "scaling_kernel",
    "wavelet_scales",
    "signature_length",
    "signature_matrix",
    "write_signature_csv",
    "GsgwVector",
    "aggregate",
    "ReconstructionReport",
    "reconstruct_vertices",
    "nmse_curve",
    "DataMatrix",
    "GroupComparison",
    "compare_groups",
    "ManifestEntry",
    "DatasetManifest",
    "RunConfig",
    "RunDiagnostics",
    "StratumResult",
    "RunResult",
    "SweepResult",
    "run_group_comparison",
    "parameter_sweep",
    "gsgw_for_mesh",
    "make_two_class_manifest",
    "make_null_manifest",
]
