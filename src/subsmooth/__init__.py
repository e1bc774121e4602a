"""Exact symbol calculus for smoothing subdivision schemes.

The package raises the regularity of scalar, vector and Hermite
subdivision schemes by manipulating their Laurent-polynomial symbols in
exact rational arithmetic: derived schemes and their right inverses,
Taylor factorization for Hermite data, canonical eigenspace transforms,
contractivity certificates and exact limit-curve sampling.
"""

from .errors import (ConsistencyError, DegenerateAError, EigenspaceError,
                     EmptyEigenspaceError, MaskFileError, NotDivisibleError,
                     NotInTildeError, SingularMatrixError,
                     SpectralConditionError, SubsmoothError, WorkBudgetError)
from .linalg import RatMatrix, column_space_basis, invert, kernel_basis, rat
from .laurent import (TAYLOR_OPERATOR, LaurentPoly, SymbolMatrix, Z_PLUS_1,
                      ZINV2_MINUS_1, ZINV_MINUS_1, ZINV_PLUS_1, difference_operator,
                      divide_exact, intertwine, root_multiplicity_at_one, untwine)
from .masks import (Eigenstructure, Kind, Mask, canonical_transform,
                    common_one_eigenspace, conjugate, derive_phi,
                    even_odd_mean, even_odd_sums, hermite_mask, operator_norm,
                    scalar_mask, scheme_scalar, stencil_norm, vector_mask)
from .vector_smoothing import (admits_derived, admits_smoothing, derived,
                               derived_scalar, smooth_raw, smooth_scalar,
                               smooth_vector)
from .hermite_smoothing import (SpectralReport, TaylorReport, check_interpolatory,
                                check_spectral, check_taylor, inverse_taylor,
                                smooth_hermite, taylor_scheme,
                                zeta_multiplicity_forecast, zeta_of)
from .refine import (Certificate, FinSeq, LimitSample, Refusal, apply,
                     certify_c0, certify_hermite, certify_vector, difference,
                     iterated_symbol, render, taylor_diff)
from . import catalog, maskfile

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
