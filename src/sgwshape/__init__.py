"""Spectral graph wavelet shape descriptors for triangle meshes.

The library computes Laplace-Beltrami spectra of triangle meshes, builds
multiresolution per-vertex wavelet signatures and a global area-weighted
descriptor from them, reconstructs geometry from truncated eigenbases,
and compares two shape populations with MANOVA plus a permutation test.
"""

__version__ = "0.1.0"

from .eigen import DENSE_CUTOFF, EigenBasis, solve_eigen
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
from .gsgw import GsgwVector, aggregate, gsgw_distance
from .laplacian import (
    apply_operator,
    laplacian_matrices,
    mass_matrix,
    stiffness_matrix,
)
from .mesh_io import (
    TriangleMesh,
    load_mesh,
    make_synthetic,
    rigid_transform,
    write_mesh,
)
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
from .reconstruct import (
    ReconstructionReport,
    nmse_curve,
    reconstruct_vertices,
    spectral_reconstruct,
)
from .sgws import (
    SignatureMatrix,
    mexican_hat,
    scaling_kernel,
    signature_length,
    signature_matrix,
    spectrum_bounds,
    vertex_signature,
    wavelet_scales,
    write_signature_csv,
)
from .stats import (
    DataMatrix,
    GroupComparison,
    compare_groups,
    manova_two_group,
    pca_reduce,
    permutation_test,
    wilks_lambda,
)

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
    "rigid_transform",
    "stiffness_matrix",
    "mass_matrix",
    "laplacian_matrices",
    "apply_operator",
    "EigenBasis",
    "solve_eigen",
    "spectrum_bounds",
    "DENSE_CUTOFF",
    "SignatureMatrix",
    "mexican_hat",
    "scaling_kernel",
    "wavelet_scales",
    "signature_length",
    "vertex_signature",
    "signature_matrix",
    "write_signature_csv",
    "GsgwVector",
    "aggregate",
    "gsgw_distance",
    "ReconstructionReport",
    "reconstruct_vertices",
    "spectral_reconstruct",
    "nmse_curve",
    "DataMatrix",
    "GroupComparison",
    "pca_reduce",
    "wilks_lambda",
    "manova_two_group",
    "permutation_test",
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
