"""Derived schemes and smoothing operators for scalar and vector masks.

The derived scheme of a mask intertwines it with the partial difference
operator: Delta_k S_A = 1/2 S_(derived A) Delta_k.  Its right inverse, the
smoothing operator, raises the regularity of the limit by one order.  Both
are laurent.intertwine and laurent.untwine with the operator symbol
D = diag((1/z - 1) I_k, I) of Delta_k; a derived scheme or a smoothed mask
exists exactly when their divisions by the diagonal of D are exact.

``smooth_vector`` is the full procedure: one untwine in the basis whose
leading columns span the common 1-eigenspace, R**-1 and R folded into its
product, then R X R**-1 back.  The back-transform keeps the eigenspace of
the result equal to the input's, so each round needs one canonical transform.
"""

from __future__ import annotations

from .errors import ConsistencyError, NotDivisibleError
from .laurent import difference_operator, intertwine, untwine
from .linalg import RatMatrix
from .masks import Eigenstructure, Kind, Mask, canonical_transform, common_one_eigenspace


def _out_kind(mask: Mask) -> Kind:
    # Hermite masks go through the Taylor factorization, not these operators.
    if mask.kind is Kind.HERMITE:
        raise ValueError("difference operators apply to scalar/vector masks")
    return mask.kind


def derived(mask: Mask, k: int, r: RatMatrix | None = None,
            r_inv: RatMatrix | None = None) -> Mask:
    """Derived scheme with respect to the partial difference on the first k
    components: symbol 2 D(z) A(z) D(z**2)**-1, or 2 D(z) R**-1 A(z) R D(z**2)**-1
    in the basis of the columns of r (r_inv is R**-1, trusted), in one product.

    Exists iff A11(-1) = 0 and A21(+-1) = 0 (leading block of size k); a
    violation surfaces as NotDivisibleError.
    """
    kind = _out_kind(mask)
    return Mask(kind, intertwine(mask.symbol, difference_operator(mask.p, k), r, r_inv))


def smooth_raw(mask: Mask, k: int, r: RatMatrix | None = None,
               r_inv: RatMatrix | None = None) -> Mask:
    """Smoothing: symbol 1/2 D(z)**-1 B(z) D(z**2), or 1/2 D(z)**-1 R**-1 B(z) R D(z**2)
    in the basis of the columns of r (r_inv is R**-1, trusted), in one product.

    Exists iff B12(1) = 0 (in that basis); right inverse of derived().
    """
    kind = _out_kind(mask)
    return Mask(kind, untwine(mask.symbol, difference_operator(mask.p, k), r, r_inv))


# -- full procedure -------------------------------------------------------------------

def _smooth_in_basis(mask: Mask, es: Eigenstructure) -> Mask:
    """Smooth the leading es.k components in the basis of the columns of es.r
    (exact when es.r puts a common 1-eigenspace first), then R X R**-1; R = I,
    as for every scalar mask, changes no basis."""
    basis = () if es.r == RatMatrix.identity(mask.p) else (es.r, es.r_inv)
    try:
        smoothed = smooth_raw(mask, es.k, *basis)
    except NotDivisibleError:
        raise ConsistencyError("conjugated mask lost the smoothing condition") from None
    return Mask(mask.kind, smoothed.symbol.transform(es.r, es.r_inv)) if basis else smoothed


def _check_window(mask: Mask, out: Mask, slack: int) -> None:
    """Postcondition of a smoothing round: the support of out lies in
    [lo - slack, hi] for the support [lo, hi] of mask."""
    s_in, s_out = mask.support, out.support
    if s_in is not None and s_out is not None:
        if s_out[0] < s_in[0] - slack or s_out[1] > s_in[1]:
            raise ConsistencyError(
                f"support {s_out} exceeds the guaranteed window "
                f"[{s_in[0] - slack}, {s_in[1]}]")


def smooth_vector(mask: Mask) -> Mask:
    """One smoothing round for a scalar or vector mask.

    Conjugates by a canonical transform, applies smooth_raw with k = dim of
    the common 1-eigenspace, and transforms back.  The result has the same
    common 1-eigenspace as the input, and its support grows by at most 2 on
    the left and 0 on the right; both postconditions are verified before
    returning.
    """
    _out_kind(mask)
    es = canonical_transform(mask)  # EmptyEigenspaceError for 1-eigenspace {0}
    out = _smooth_in_basis(mask, es)
    # the eigenspace basis is read off the reduced echelon form, which the
    # kernel determines, so equal eigenspaces give equal basis lists
    if common_one_eigenspace(out) != list(es.basis):
        raise ConsistencyError("smoothing changed the common 1-eigenspace")
    _check_window(mask, out, 2)
    return out  # its eigenspace, computed above, serves the next round
