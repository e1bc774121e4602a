"""The public surface of the package, pinned: a name added to or removed
from ``subsmooth.__all__`` must be a deliberate change of this list."""

import subsmooth

SURFACE = [
    "Certificate", "ConsistencyError", "DegenerateAError", "EigenspaceError",
    "Eigenstructure", "EmptyEigenspaceError", "FinSeq", "Kind", "LaurentPoly",
    "LimitSample", "Mask", "MaskFileError", "NotDivisibleError", "NotInTildeError",
    "RatMatrix", "Refusal", "SingularMatrixError", "SpectralConditionError",
    "SpectralReport", "SubsmoothError", "SymbolMatrix", "TAYLOR_OPERATOR",
    "TaylorReport", "WorkBudgetError", "ZINV2_MINUS_1", "ZINV_MINUS_1", "Z_PLUS_1",
    "apply", "canonical_transform", "catalog", "certify_hermite", "certify_vector",
    "check_interpolatory", "check_spectral", "check_taylor", "column_space_basis",
    "common_one_eigenspace", "conjugate", "derive_phi", "derived",
    "difference_operator", "divide_exact", "errors", "even_odd_mean", "hermite_mask",
    "hermite_smoothing", "intertwine", "inverse_taylor", "invert", "iterated_symbol",
    "kernel_basis", "laurent", "linalg", "maskfile", "masks", "rat", "refine",
    "render", "scalar_mask", "smooth_hermite", "smooth_raw", "smooth_vector",
    "stencil_norm", "taylor_scheme", "untwine", "vector_mask", "vector_smoothing",
    "zeta_of",
]


def test_public_surface_is_pinned():
    assert len(SURFACE) == 68
    assert sorted(subsmooth.__all__) == SURFACE
