"""Derived schemes and smoothing operators for scalar and vector masks.

The derived scheme of a mask intertwines it with the partial difference
operator: Delta_k S_A = 1/2 S_(derived A) Delta_k.  Its right inverse, the
smoothing operator, raises the regularity of the limit by one order.  Both
are laurent.intertwine and laurent.untwine with the operator symbol
D = diag((1/z - 1) I_k, I) of Delta_k; a derived scheme or a smoothed mask
exists exactly when their divisions by the diagonal of D are exact.

``smooth_vector`` is the full procedure: conjugate the mask so its common
1-eigenspace spans the leading coordinates, smooth, transform back.  The
back-transform keeps the eigenspace of the result equal to the input's, so
repeated smoothing only needs a fresh canonical transform per round.
"""

from __future__ import annotations

from .errors import ConsistencyError, NotDivisibleError
from .laurent import difference_operator, intertwine, untwine
from .masks import (Eigenstructure, Kind, Mask, canonical_transform,
                    common_one_eigenspace, conjugate)


def _out_kind(mask: Mask) -> Kind:
    # Hermite masks go through the Taylor factorization, not these operators.
    if mask.kind is Kind.HERMITE:
        raise ValueError("difference operators apply to scalar/vector masks")
    return mask.kind


def derived(mask: Mask, k: int) -> Mask:
    """Derived scheme with respect to the partial difference on the first k
    components: symbol 2 D(z) A(z) D(z**2)**-1.

    Exists iff A11(-1) = 0 and A21(+-1) = 0 (leading block of size k); a
    violation surfaces as NotDivisibleError.
    """
    kind = _out_kind(mask)
    return Mask(kind, intertwine(mask.symbol, difference_operator(mask.p, k)))


def smooth_raw(mask: Mask, k: int) -> Mask:
    """Smoothing without any basis change: symbol 1/2 D(z)**-1 B(z) D(z**2).

    Exists iff B12(1) = 0; right inverse of derived().
    """
    kind = _out_kind(mask)
    return Mask(kind, untwine(mask.symbol, difference_operator(mask.p, k)))


# -- full procedure -------------------------------------------------------------------

def _smooth_in_basis(mask: Mask, es: Eigenstructure) -> Mask:
    """Conjugate by es.r, smooth the leading es.k components (exact when
    es.r puts a common 1-eigenspace first), conjugate back."""
    barred = conjugate(mask, es.r, r_inv=es.r_inv)
    try:
        smoothed = smooth_raw(barred, es.k)
    except NotDivisibleError:
        raise ConsistencyError("conjugated mask lost the smoothing condition") from None
    return conjugate(smoothed, es.r_inv, r_inv=es.r)


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
