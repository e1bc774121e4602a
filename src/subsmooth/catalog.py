"""Built-in schemes used throughout the tests and demos.

The entries are classical examples from the subdivision literature:
B-spline degree-raising schemes, the double-knot cubic spline vector
scheme, the interpolatory piecewise-cubic Hermite scheme of Merrien, and a
de Rham-type corner-cutting Hermite scheme derived from it.  The
``*-smoothed`` entries are reference results of one smoothing round,
stored independently so pipelines can be checked against fixed data.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .laurent import LaurentPoly, SymbolMatrix, Z_PLUS_1
from .masks import Mask, hermite_mask, scalar_mask, vector_mask


def bspline(degree: int) -> Mask:
    """Scalar scheme of B-spline degree l: ((z+1)/2 * z^-1)**l * (z+1).

    Degree l >= 1 has smoothness C^(l-1); degree 0 is the piecewise
    constant splitting scheme 1 + z.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    f = Z_PLUS_1
    factor = LaurentPoly({-1: Fraction(1, 2), 0: Fraction(1, 2)})
    for _ in range(degree):
        f = f * factor
    return scalar_mask(f)


def double_knot() -> Mask:
    """C^1 vector scheme for cubic splines with double knots (p = 2)."""
    e = Fraction(1, 8)
    sym = SymbolMatrix((
        (LaurentPoly({0: 2 * e, 1: 6 * e, 2: e}), LaurentPoly({1: 2 * e, 2: 5 * e})),
        (LaurentPoly({0: 5 * e, 1: 2 * e}), LaurentPoly({0: e, 1: 6 * e, 2: 2 * e})),
    ))
    return vector_mask(sym)


def merrien() -> Mask:
    """Interpolatory HC^1 Hermite scheme (piecewise cubic; Merrien 1992)."""
    sym = SymbolMatrix((
        (LaurentPoly({-1: "1/2", 0: 1, 1: "1/2"}), LaurentPoly({-1: "-1/8", 1: "1/8"})),
        (LaurentPoly({-1: "3/4", 1: "-3/4"}), LaurentPoly({-1: "-1/8", 0: "1/2", 1: "-1/8"})),
    ))
    return hermite_mask(sym)


def derham() -> Mask:
    """De Rham-type HC^2 Hermite scheme obtained by corner cutting."""
    sym = SymbolMatrix((
        (LaurentPoly({-2: "5/32", -1: "27/32", 0: "27/32", 1: "5/32"}),
         LaurentPoly({-2: "-3/64", -1: "-9/64", 0: "9/64", 1: "3/64"})),
        (LaurentPoly({-2: "9/16", -1: "9/16", 0: "-9/16", 1: "-9/16"}),
         LaurentPoly({-2: "-5/32", -1: "3/32", 0: "3/32", 1: "-5/32"})),
    ))
    return hermite_mask(sym)


def merrien_smoothed() -> Mask:
    """Reference: one smoothing round applied to the Merrien scheme (HC^2)."""
    s = Fraction(1, 16)
    c11 = (LaurentPoly({-1: 1, 0: 1}) * LaurentPoly({-1: 1, 0: 1})
           * LaurentPoly({-2: -1, -1: 1, 0: 6, 1: 2})).scale(s)
    c12 = LaurentPoly({0: -1, 1: -1}).scale(s)
    c21 = (LaurentPoly({-2: 1, 0: -1})
           * LaurentPoly({-4: 1, -3: -3, -2: -3, -1: 13, 0: 6})).scale(s)
    c22 = LaurentPoly({-2: 1, -1: -3, 0: 3, 1: 1}).scale(s)
    return hermite_mask(SymbolMatrix(((c11, c12), (c21, c22))))


def derham_smoothed() -> Mask:
    """Reference: one smoothing round applied to the de Rham scheme (HC^3)."""
    s = Fraction(1, 128)
    c11 = (LaurentPoly({-1: 1, 0: 1})
           * LaurentPoly({-4: -3, -3: -9, -2: 25, -1: 75, 0: 36, 1: 4})).scale(s)
    c12 = LaurentPoly({-1: 1, 0: 4, 1: 1}).scale(-3 * s)
    c21 = (LaurentPoly({-2: 1, 0: -1})
           * LaurentPoly({-5: 3, -4: -7, -3: -37, -2: 37, -1: 128, 0: 20, 1: -8})).scale(s)
    c22 = LaurentPoly({-3: 3, -2: -7, -1: -21, 0: 21, 1: -4}).scale(s)
    return hermite_mask(SymbolMatrix(((c11, c12), (c21, c22))))


_FIXED = {
    "double-knot": double_knot,
    "merrien": merrien,
    "derham": derham,
    "merrien-smoothed": merrien_smoothed,
    "derham-smoothed": derham_smoothed,
}

_BSPLINE_RE = re.compile(r"bspline([0-9]+)")


def names() -> list[str]:
    return ["bspline{l}"] + sorted(_FIXED)


def get(name: str) -> Mask:
    """Look up a catalog scheme by name (e.g. "bspline3", "merrien")."""
    m = _BSPLINE_RE.fullmatch(name)
    if m:
        digits = m.group(1)
        # a degree has at most two digits; a longer run is refused unread
        if len(digits) > 2 or int(digits) > 64:
            raise KeyError(f"b-spline degree {digits} out of range (<= 64)")
        return bspline(int(digits))
    try:
        return _FIXED[name]()
    except KeyError:
        raise KeyError(f"unknown catalog scheme {name!r}; "
                       f"available: {', '.join(names())}") from None
