"""Taylor factorization and smoothing of Hermite subdivision schemes.

A Hermite mask refines (value, derivative) pairs.  When it reproduces
constants and linears (the spectral condition, with shift parameter phi),
it factors through the Taylor operator

    T = [Delta, -1; 0, 1],      T S_A = 1/2 S_(taylor A) T,

and the Taylor scheme is a vector scheme satisfying the Taylor conditions.
Smoothing a Hermite scheme = smoothing its Taylor scheme as a vector
scheme, re-normalizing with the shear [[1, 0], [zeta - 1, 1]] so the Taylor
conditions hold again, and inverting the factorization; one round lowers
phi by exactly 1/2 and grows the support by at most 5 on the left.  The
constant zeta = zeta_of(A) is read off the input mask.  A round is two
laurent.untwine calls, by the Taylor-basis operator with the shear folded in
and by T, and its output carries its Taylor scheme into the next round.  The
same round as explicit polynomial formulas in zeta lives in the tests as an
independent oracle.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import (ConsistencyError, DegenerateAError, NotDivisibleError,
                     NotInTildeError, SpectralConditionError)
from .laurent import (_ONE, _ZERO, TAYLOR_OPERATOR, ZINV_MINUS_1, LaurentPoly, SymbolMatrix,
                      intertwine, untwine)
from .linalg import RatMatrix
from .masks import Kind, Mask, common_one_eigenspace, hermite_mask, vector_mask
from .vector_smoothing import _check_window

HALF = Fraction(1, 2)
E2 = RatMatrix.column([0, 1])  # the basis common_one_eigenspace lists for span{e2}


class SpectralReport(namedtuple("SpectralReport", "holds violated")):
    """Outcome of the eight spectral-condition equalities.

    ``violated`` lists the failing condition groups (1)-(4).  The shift
    parameter phi of condition (3) is Mask.phi.
    """

    __slots__ = ()


class TaylorReport(namedtuple("TaylorReport", "holds_taylor in_tilde")):
    """Outcome of the Taylor conditions for a 2x2 vector mask.

    ``in_tilde`` additionally requires the common 1-eigenspace to equal
    span{e2} exactly.
    """

    __slots__ = ()


def check_spectral(mask: Mask) -> SpectralReport:
    """Evaluate the spectral condition exactly.

    Conditions, in terms of the symbol entries a_ij:
      (1) a11(1) = 2,  a11(-1) = 0
      (2) a21(1) = 0,  a21(-1) = 0
      (3) a11'(1) - 2 a12(1) = 2 phi,   a11'(-1) + 2 a12(-1) = 0
      (4) a21'(1) - 2 a22(1) = -2,      a21'(-1) + 2 a22(-1) = 0
    (1)+(2) are reproduction of constants, (3)+(4) of linears.
    """
    if mask.p != 2:
        raise ValueError("spectral condition applies to 2x2 masks")
    (a11, a12), (a21, a22) = mask.symbol.entries
    # each condition times the denominators of its entries, so that it compares integers
    d11, d12, d21, d22 = a11.den, a12.den, a21.den, a22.den
    violated = []
    if not (a11._sum_at(1) == 2 * d11 and a11._sum_at(-1) == 0):
        violated.append(1)
    if not (a21._sum_at(1) == 0 and a21._sum_at(-1) == 0):
        violated.append(2)
    if not a11._slope_at(-1) * d12 + 2 * a12._sum_at(-1) * d11 == 0:
        violated.append(3)
    if not (a21._slope_at(1) * d22 - 2 * a22._sum_at(1) * d21 == -2 * d21 * d22
            and a21._slope_at(-1) * d22 + 2 * a22._sum_at(-1) * d21 == 0):
        violated.append(4)
    return SpectralReport(holds=not violated, violated=tuple(violated))


def check_interpolatory(mask: Mask) -> bool:
    """True iff the coefficient at index 0 is diag(1, 1/2) and every other
    even-indexed coefficient vanishes, read off each entry's even-index
    numerators."""
    if mask.p != 2:
        raise ValueError("interpolatory check applies to 2x2 masks")
    if mask.support is None:
        return False
    (a11, a12), (a21, a22) = mask.symbol.entries
    for e, (n, d) in ((a11, (1, 1)), (a12, (0, 1)), (a21, (0, 1)), (a22, (1, 2))):
        evens = list(e.nums[e.lo % 2::2])  # the exponents lo + lo % 2, ..., step 2
        at0 = 0
        if 0 <= (k := -(e.lo + e.lo % 2) // 2) < len(evens):
            at0, evens[k] = evens[k], 0
        if at0 * d != n * e.den or any(evens):
            return False
    return True


def check_taylor(mask: Mask) -> TaylorReport:
    """Evaluate the Taylor conditions exactly:
      (1) b12(1) = 0, b12(-1) = 0
      (2) b22(1) = 2, b22(-1) = 0
      (3) b11(1) + b21(1) = 2
    (1)+(2) say that e2 lies in the common 1-eigenspace; its basis then lists E2.
    (3) is compared as integers, times the denominators of b11 and b21.
    """
    if mask.p != 2:
        raise ValueError("Taylor conditions apply to 2x2 masks")
    basis = common_one_eigenspace(mask)
    b11, b21 = mask.symbol[0, 0], mask.symbol[1, 0]
    holds = E2 in basis and (b11._sum_at(1) * b21.den + b21._sum_at(1) * b11.den
                             == 2 * b11.den * b21.den)
    return TaylorReport(holds_taylor=holds, in_tilde=holds and basis == [E2])


def taylor_scheme(mask: Mask) -> Mask:
    """The vector scheme the Taylor operator intertwines with the input:
    symbol 2 T(z) A(z) T(z**2)**-1.

    It exists iff a11(-1) = 0 and a21(+-1) = 0 (reproduction of constants),
    otherwise NotDivisibleError; under the full spectral condition the
    output satisfies the Taylor conditions.  The mask keeps it.
    """
    if mask.p != 2:
        raise ValueError("Taylor factorization applies to 2x2 masks")
    return vars(mask).get("_taylor") or vars(mask).setdefault(
        "_taylor", vector_mask(intertwine(mask.symbol, TAYLOR_OPERATOR)))


def inverse_taylor(mask: Mask) -> Mask:
    """Right inverse of the Taylor factorization: symbol
    1/2 T(z)**-1 B(z) T(z**2).

    It exists iff (b12 - b11 - b21 + b22)(1) = 0, which the Taylor
    conditions imply, otherwise NotDivisibleError.  The output is a Hermite
    mask; on Taylor-class input it satisfies the spectral condition, and
    it carries the input as its Taylor scheme: intertwine(untwine(X, T), T) = X.
    """
    if mask.p != 2:
        raise ValueError("inverse Taylor factorization applies to 2x2 masks")
    out = hermite_mask(untwine(mask.symbol, TAYLOR_OPERATOR))
    vars(out)["_taylor"] = mask if mask.kind is Kind.VECTOR else vector_mask(mask.symbol)
    return out


def smooth_hermite(mask: Mask) -> Mask:
    """One Hermite smoothing round (compositional pipeline).

    Steps: zeta = zeta_of(mask) (DegenerateAError when a22(1) = 2) -> Taylor
    scheme (carried from the round that made the mask) -> one untwine by
    G_zeta = G S: vector smoothing in the basis that puts span{e2} first (G),
    then conjugation by the shear S = [[1, 0], [zeta - 1, 1]], which restores
    the trace condition b11(1) + b21(1) = 2 -> inverse Taylor factorization.
    A sheared scheme that leaves span{e2} (S fixes e2), or a shear that misses
    the trace condition (the inverse factorization does not divide), is a
    ConsistencyError.  Verifies phi drops by 1/2 and the support stays within
    [lo-5, hi].  A vector mask that meets the spectral condition is a
    ValueError: it has no phi.
    """
    rep = check_spectral(mask)
    if not rep.holds:
        raise SpectralConditionError(
            f"spectral condition fails; violated conditions {list(rep.violated)}")
    if mask.kind is not Kind.HERMITE:
        raise ValueError("Hermite smoothing applies to Hermite masks")
    zeta = zeta_of(mask)
    tay = taylor_scheme(mask)
    if common_one_eigenspace(tay) != [E2]:
        raise NotInTildeError(
            "Taylor scheme eigenspace is not span{e2}; the vanishing "
            "first-component hypothesis cannot be established")
    g_zeta = SymbolMatrix(((_ONE, _ZERO), (LaurentPoly({-1: zeta, 0: -1 - zeta}), ZINV_MINUS_1)))
    try:
        sheared = vector_mask(untwine(tay.symbol, g_zeta))
    except NotDivisibleError:
        raise ConsistencyError("conjugated mask lost the smoothing condition") from None
    if common_one_eigenspace(sheared) != [E2]:
        raise ConsistencyError("smoothed Taylor scheme left the eigenspace span{e2}")
    try:
        out = inverse_taylor(sheared)
    except NotDivisibleError:
        raise ConsistencyError(
            f"the shear by zeta = {zeta} missed the Taylor trace condition") from None

    if out.phi != mask.phi - HALF:
        raise ConsistencyError(
            f"phi moved from {mask.phi} to {out.phi}, expected a drop of 1/2")
    _check_window(mask, out, 5)
    return out


def zeta_of(mask: Mask) -> Fraction:
    """Re-normalization constant a smoothing round on this Hermite mask
    uses: zeta = 1 + a12(1)/(2 - a22(1))."""
    a12, a22 = mask.symbol[0, 1], mask.symbol[1, 1]
    gap = 2 * a22.den - a22._sum_at(1)  # (2 - a22(1)) * a22.den
    if not gap:
        raise DegenerateAError("zeta undefined: a22(1) = 2")
    return Fraction(a12.den * gap + a12._sum_at(1) * a22.den, a12.den * gap)
