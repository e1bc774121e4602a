"""The closed-form Hermite smoothing round, kept as an independent oracle.

``smooth_hermite_closed_form`` evaluates one round through explicit
polynomial formulas in the re-normalization constant zeta, without the
Taylor factorization, the canonical transform or the intertwining solve
that ``subsmooth.smooth_hermite`` composes; the two must agree bit for bit.

``smooth_hermite_three_steps`` composes the round without folding the
shear into the smoothing operator: a fresh Taylor scheme, one untwine by
the Taylor-basis operator ``TAYLOR_BASIS_OPERATOR`` (G_1), a conjugation by
the shear and the inverse factorization.

``zeta_multiplicity_forecast`` predicts how many rounds keep zeta = 1 from
the root multiplicity at 1 of the coupling entry a12.

``spectral_report``, ``taylor_report``, ``interpolatory``, ``phi_value`` and
``zeta_value`` read the symbol's values, derivatives and coefficients as
Fractions; the package compares integer sums against multiples of the
entries' denominators.
"""

from __future__ import annotations

import math
from fractions import Fraction

from subsmooth import (TAYLOR_OPERATOR, ConsistencyError, Kind, LaurentPoly, Mask,
                       NotDivisibleError, NotInTildeError, RatMatrix,
                       SpectralConditionError, SymbolMatrix, ZINV2_MINUS_1,
                       ZINV_MINUS_1, check_spectral, conjugate, divide_exact,
                       hermite_mask, intertwine, inverse_taylor, untwine, vector_mask,
                       zeta_of)
from subsmooth.vector_smoothing import _check_window

from tests.masks_oracle import eigenspace_is_e2

HALF = Fraction(1, 2)
ZINV_PLUS_1 = LaurentPoly({-1: 1, 0: 1})
# G_1 = R diag(1/z - 1, 1) R**-1 for R = [[0, 1], [1, -1]], which puts the
# 1-eigenspace span{e2} of a Taylor scheme first
TAYLOR_BASIS_OPERATOR = SymbolMatrix(((LaurentPoly({0: 1}), LaurentPoly()),
                                      (LaurentPoly({-1: 1, 0: -2}), ZINV_MINUS_1)))


def smooth_hermite_three_steps(mask: Mask) -> Mask:
    """One Hermite round with the checks and messages of smooth_hermite:
    Taylor scheme by intertwine, untwine by G_1, conjugation by the shear
    [[1, 0], [zeta - 1, 1]], inverse Taylor factorization."""
    rep = check_spectral(mask)
    if not rep.holds:
        raise SpectralConditionError(
            f"spectral condition fails; violated conditions {list(rep.violated)}")
    if mask.kind is not Kind.HERMITE:
        raise ValueError("Hermite smoothing applies to Hermite masks")
    zeta = zeta_of(mask)
    tay = vector_mask(intertwine(mask.symbol, TAYLOR_OPERATOR))
    if not eigenspace_is_e2(tay):
        raise NotInTildeError(
            "Taylor scheme eigenspace is not span{e2}; the vanishing "
            "first-component hypothesis cannot be established")
    try:
        smoothed = vector_mask(untwine(tay.symbol, TAYLOR_BASIS_OPERATOR))
    except NotDivisibleError:
        raise ConsistencyError("conjugated mask lost the smoothing condition") from None
    if not eigenspace_is_e2(smoothed):
        raise ConsistencyError("smoothed Taylor scheme left the eigenspace span{e2}")
    shear = RatMatrix.from_rows([[1, 0], [zeta - 1, 1]])
    try:
        out = inverse_taylor(conjugate(smoothed, shear))
    except NotDivisibleError:
        raise ConsistencyError(
            f"the shear by zeta = {zeta} missed the Taylor trace condition") from None
    if out.phi != mask.phi - HALF:
        raise ConsistencyError(
            f"phi moved from {mask.phi} to {out.phi}, expected a drop of 1/2")
    _check_window(mask, out, 5)
    return out


def smooth_hermite_closed_form(mask: Mask) -> Mask:
    """One Hermite smoothing round through the explicit polynomial formulas.

    With zeta = 1 + a12(1)/(2 - a22(1)), the smoothed symbol is a fixed
    polynomial combination of the four input entries (the zeta = 1 special
    case is also evaluated as an internal cross-check when applicable), and
    phi must drop by exactly 1/2.  Must agree exactly with smooth_hermite().
    """
    rep = check_spectral(mask)
    if not rep.holds:
        raise SpectralConditionError(
            f"spectral condition fails; violated conditions {list(rep.violated)}")
    zeta = zeta_of(mask)  # DegenerateAError when a22(1) = 2
    out = hermite_mask(_closed_form_general(mask.symbol, zeta))
    if zeta == 1:
        special = _closed_form_special(mask.symbol)
        if special != out.symbol:
            raise ConsistencyError("general and zeta=1 closed forms disagree")
    if out.phi != mask.phi - HALF:
        raise ConsistencyError(f"closed form moved phi from {mask.phi} to {out.phi}")
    return out


def root_multiplicity_at_one(f: LaurentPoly):
    """Largest m with (z-1)**m dividing f in the Laurent ring; inf for f = 0.

    1/z - 1 is an associate of z - 1 in the Laurent ring, so dividing by it
    repeatedly counts the multiplicity.
    """
    if f.is_zero():
        return math.inf
    m = 0
    g = f
    while g.evaluate(1) == 0:
        g = divide_exact(g, ZINV_MINUS_1)
        m += 1
    return m


def zeta_multiplicity_forecast(mask: Mask):
    """Multiplicity r of the root at 1 of the coupling entry a12.

    r - 1 further smoothing rounds stay in the zeta = 1 branch; returns
    math.inf when a12 is identically zero (every round has zeta = 1).
    """
    if not check_spectral(mask).holds:
        raise SpectralConditionError("forecast requires the spectral condition")
    return root_multiplicity_at_one(mask.symbol[0, 1])


def _lp(coeffs: dict[int, Fraction]) -> LaurentPoly:
    return LaurentPoly(coeffs)


def _closed_form_general(s: SymbolMatrix, zeta: Fraction) -> SymbolMatrix:
    a11, a12, a21, a22 = s[0, 0], s[0, 1], s[1, 0], s[1, 1]
    z2 = zeta * zeta

    c11 = (a12 * _lp({-3: zeta - z2, -2: z2, -1: z2 - 1, 0: -(z2 + zeta)})
           + a11 * (ZINV_MINUS_1.scale(zeta * (1 - zeta)) + _lp({0: zeta}))
           + a22 * (ZINV2_MINUS_1.scale(zeta) - LaurentPoly({0: 1})).scale(zeta - 1)
           + a21.scale(z2 - zeta))
    c11 = (c11 * ZINV_PLUS_1).scale(HALF)

    num12 = (a12 * _lp({-3: (1 - zeta) ** 2, -2: zeta * (1 - zeta),
                        -1: zeta * (1 - zeta), 0: z2})
             + a22 * (ZINV2_MINUS_1.scale(-((1 - zeta) ** 2)) + _lp({0: zeta - 1}))
             + a11 * (ZINV_MINUS_1.scale((1 - zeta) ** 2) + _lp({0: 1 - zeta}))
             - a21.scale((1 - zeta) ** 2))
    c12 = divide_exact(num12.scale(HALF), ZINV_MINUS_1)

    c21 = (a12 * _lp({-3: -z2, -2: zeta + z2, -1: zeta + z2, 0: -((zeta + 1) ** 2)})
           + a11 * (LaurentPoly({0: 1}) - ZINV_MINUS_1.scale(zeta)).scale(zeta)
           + a22 * (ZINV2_MINUS_1.scale(zeta) - LaurentPoly({0: 1})).scale(zeta)
           + a21.scale(z2))
    c21 = (c21 * ZINV2_MINUS_1).scale(HALF)

    c22 = (a12 * _lp({-3: z2 - zeta, -2: 1 - z2, -1: -z2, 0: z2 + zeta})
           + a11 * (LaurentPoly({0: 1}) - ZINV_MINUS_1.scale(zeta)).scale(1 - zeta)
           + a22 * (ZINV2_MINUS_1.scale(1 - zeta) + LaurentPoly({0: 1})).scale(zeta)
           + a21.scale(zeta - z2))
    c22 = c22.scale(HALF)

    return SymbolMatrix(((c11, c12), (c21, c22)))


def _closed_form_special(s: SymbolMatrix) -> SymbolMatrix:
    # zeta = 1 branch (a12(1) = 0)
    a11, a12, a21, a22 = s[0, 0], s[0, 1], s[1, 0], s[1, 1]
    zinv2_minus_2 = _lp({-2: 1, 0: -2})
    zinv_minus_2 = _lp({-1: 1, 0: -2})

    c11 = ((a12 * zinv2_minus_2 + a11) * ZINV_PLUS_1).scale(HALF)
    c12 = divide_exact(a12, ZINV_MINUS_1).scale(HALF)
    c21 = ((a21 - a11 * zinv_minus_2 + a22 * zinv2_minus_2
            - a12 * zinv_minus_2 * zinv2_minus_2) * ZINV2_MINUS_1).scale(HALF)
    c22 = (a22 - a12 * zinv_minus_2).scale(HALF)
    return SymbolMatrix(((c11, c12), (c21, c22)))


def spectral_report(mask: Mask) -> tuple[bool, tuple[int, ...]]:
    """check_spectral's (holds, violated) from Fraction values and derivatives."""
    s = mask.symbol
    a11, a12, a21, a22 = s[0, 0], s[0, 1], s[1, 0], s[1, 1]
    violated = []
    if not (a11.evaluate(1) == 2 and a11.evaluate(-1) == 0):
        violated.append(1)
    if not (a21.evaluate(1) == 0 and a21.evaluate(-1) == 0):
        violated.append(2)
    if not (a11.derivative_at(-1) + 2 * a12.evaluate(-1) == 0):
        violated.append(3)
    if not (a21.derivative_at(1) - 2 * a22.evaluate(1) == -2
            and a21.derivative_at(-1) + 2 * a22.evaluate(-1) == 0):
        violated.append(4)
    return not violated, tuple(violated)


def taylor_report(mask: Mask) -> tuple[bool, bool]:
    """check_taylor's (holds_taylor, in_tilde) from Fraction values: b12(+-1) = 0,
    b22(1) = 2, b22(-1) = 0 and b11(1) + b21(1) = 2, and for in_tilde a common
    1-eigenspace of tests/masks_oracle that is span{e2}."""
    s = mask.symbol
    b11, b12, b21, b22 = s[0, 0], s[0, 1], s[1, 0], s[1, 1]
    holds = (b12.evaluate(1) == 0 and b12.evaluate(-1) == 0 and b22.evaluate(1) == 2
             and b22.evaluate(-1) == 0 and b11.evaluate(1) + b21.evaluate(1) == 2)
    return holds, holds and eigenspace_is_e2(mask)


def interpolatory(mask: Mask) -> bool:
    """check_interpolatory from the RatMatrix coefficient at each even index."""
    s = mask.support
    if s is None:
        return False
    if mask.coefficient(0) != RatMatrix.from_rows([[1, 0], [0, HALF]]):
        return False
    return all(mask.coefficient(i).is_zero() for i in range(s[0], s[1] + 1)
               if i != 0 and i % 2 == 0)


def phi_value(symbol: SymbolMatrix) -> Fraction:
    """derive_phi: (a11'(1) - 2 a12(1)) / 2."""
    return (symbol[0, 0].derivative_at(1) - 2 * symbol[0, 1].evaluate(1)) / 2


def zeta_value(mask: Mask) -> Fraction | None:
    """zeta_of: 1 + a12(1)/(2 - a22(1)), None where a22(1) = 2."""
    a12, a22 = mask.symbol[0, 1].evaluate(1), mask.symbol[1, 1].evaluate(1)
    return None if a22 == 2 else 1 + a12 / (2 - a22)
