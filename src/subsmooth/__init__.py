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
from .linalg import RatMatrix, invert, rat
from .laurent import (TAYLOR_OPERATOR, LaurentPoly, SymbolMatrix, Z_PLUS_1,
                      ZINV2_MINUS_1, ZINV_MINUS_1, difference_operator, divide_exact,
                      intertwine, untwine)
from .masks import (Eigenstructure, Kind, Mask, canonical_transform,
                    common_one_eigenspace, conjugate, derive_phi, even_odd_mean,
                    hermite_mask, scalar_mask, stencil_norm, vector_mask)
from .vector_smoothing import derived, smooth_raw, smooth_vector
from .hermite_smoothing import (SpectralReport, TaylorReport, check_interpolatory,
                                check_spectral, check_taylor, inverse_taylor,
                                smooth_hermite, taylor_scheme, zeta_of)
from .refine import (Certificate, FinSeq, LimitSample, Refusal, apply,
                     certify_hermite, certify_vector, iterated_symbol, render)
from . import catalog, maskfile

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
