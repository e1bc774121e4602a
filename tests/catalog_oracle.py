"""The catalog as it was first written down, kept as an independent oracle.

Each B-spline symbol is the product ((z+1)/2 * z^-1)**l * (z+1) and each fixed
entry is built from rational coefficients, the smoothed references as the
factored forms in which the round's output was recorded; the package writes
every entry as integer numerators over one denominator per mask.
"""

from __future__ import annotations

from fractions import Fraction

from subsmooth import (LaurentPoly, Mask, SymbolMatrix, hermite_mask, scalar_mask,
                       vector_mask)


def bspline(degree: int) -> Mask:
    f = LaurentPoly({0: 1, 1: 1})
    factor = LaurentPoly({-1: Fraction(1, 2), 0: Fraction(1, 2)})
    for _ in range(degree):
        f = f * factor
    return scalar_mask(f)


def double_knot() -> Mask:
    e = Fraction(1, 8)
    return vector_mask(SymbolMatrix((
        (LaurentPoly({0: 2 * e, 1: 6 * e, 2: e}), LaurentPoly({1: 2 * e, 2: 5 * e})),
        (LaurentPoly({0: 5 * e, 1: 2 * e}), LaurentPoly({0: e, 1: 6 * e, 2: 2 * e})),
    )))


def merrien() -> Mask:
    return hermite_mask(SymbolMatrix((
        (LaurentPoly({-1: "1/2", 0: 1, 1: "1/2"}), LaurentPoly({-1: "-1/8", 1: "1/8"})),
        (LaurentPoly({-1: "3/4", 1: "-3/4"}), LaurentPoly({-1: "-1/8", 0: "1/2", 1: "-1/8"})),
    )))


def derham() -> Mask:
    return hermite_mask(SymbolMatrix((
        (LaurentPoly({-2: "5/32", -1: "27/32", 0: "27/32", 1: "5/32"}),
         LaurentPoly({-2: "-3/64", -1: "-9/64", 0: "9/64", 1: "3/64"})),
        (LaurentPoly({-2: "9/16", -1: "9/16", 0: "-9/16", 1: "-9/16"}),
         LaurentPoly({-2: "-5/32", -1: "3/32", 0: "3/32", 1: "-5/32"})),
    )))


def merrien_smoothed() -> Mask:
    s = Fraction(1, 16)
    c11 = (LaurentPoly({-1: 1, 0: 1}) * LaurentPoly({-1: 1, 0: 1})
           * LaurentPoly({-2: -1, -1: 1, 0: 6, 1: 2})).scale(s)
    c12 = LaurentPoly({0: -1, 1: -1}).scale(s)
    c21 = (LaurentPoly({-2: 1, 0: -1})
           * LaurentPoly({-4: 1, -3: -3, -2: -3, -1: 13, 0: 6})).scale(s)
    c22 = LaurentPoly({-2: 1, -1: -3, 0: 3, 1: 1}).scale(s)
    return hermite_mask(SymbolMatrix(((c11, c12), (c21, c22))))


def derham_smoothed() -> Mask:
    s = Fraction(1, 128)
    c11 = (LaurentPoly({-1: 1, 0: 1})
           * LaurentPoly({-4: -3, -3: -9, -2: 25, -1: 75, 0: 36, 1: 4})).scale(s)
    c12 = LaurentPoly({-1: 1, 0: 4, 1: 1}).scale(-3 * s)
    c21 = (LaurentPoly({-2: 1, 0: -1})
           * LaurentPoly({-5: 3, -4: -7, -3: -37, -2: 37, -1: 128, 0: 20, 1: -8})).scale(s)
    c22 = LaurentPoly({-3: 3, -2: -7, -1: -21, 0: 21, 1: -4}).scale(s)
    return hermite_mask(SymbolMatrix(((c11, c12), (c21, c22))))


FIXED = {"double-knot": double_knot, "merrien": merrien, "derham": derham,
         "merrien-smoothed": merrien_smoothed, "derham-smoothed": derham_smoothed}
