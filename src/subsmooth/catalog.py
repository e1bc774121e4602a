"""Built-in schemes used throughout the tests and demos.

The entries are classical examples from the subdivision literature:
B-spline degree-raising schemes, the double-knot cubic spline vector
scheme, the interpolatory piecewise-cubic Hermite scheme of Merrien, and a
de Rham-type corner-cutting Hermite scheme derived from it.  The
``*-smoothed`` entries are reference results of one smoothing round,
stored independently so pipelines can be checked against fixed data.  Each
entry is written as integer numerators over one denominator per mask; the
factored forms of the references live in the tests as an oracle.
"""

from __future__ import annotations

import re
from math import comb

from .laurent import _normalize, _raw, _symbol
from .masks import Mask, hermite_mask, scalar_mask, vector_mask


def _entries(den: int, rows):
    """The symbol whose entry (lo, nums) is sum_i nums[i]/den * z**(lo + i)."""
    return _symbol(tuple(tuple(_normalize(lo, nums, den) for lo, nums in row) for row in rows))


def bspline(degree: int) -> Mask:
    """Scalar scheme of B-spline degree l: ((z+1)/2 * z^-1)**l * (z+1), that is
    z^-l (z+1)^(l+1) / 2^l, read off the binomial coefficients.

    Degree l >= 1 has smoothness C^(l-1); degree 0 is the piecewise
    constant splitting scheme 1 + z.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return scalar_mask(_raw(-degree, tuple(comb(degree + 1, i) for i in range(degree + 2)),
                            1 << degree))


def double_knot() -> Mask:
    """C^1 vector scheme for cubic splines with double knots (p = 2)."""
    return vector_mask(_entries(8, (((0, (2, 6, 1)), (1, (2, 5))),
                                    ((0, (5, 2)), (0, (1, 6, 2))))))


def merrien() -> Mask:
    """Interpolatory HC^1 Hermite scheme (piecewise cubic; Merrien 1992)."""
    return hermite_mask(_entries(8, (((-1, (4, 8, 4)), (-1, (-1, 0, 1))),
                                     ((-1, (6, 0, -6)), (-1, (-1, 4, -1))))))


def derham() -> Mask:
    """De Rham-type HC^2 Hermite scheme obtained by corner cutting."""
    return hermite_mask(_entries(64, (((-2, (10, 54, 54, 10)), (-2, (-3, -9, 9, 3))),
                                      ((-2, (36, 36, -36, -36)), (-2, (-10, 6, 6, -10))))))


def merrien_smoothed() -> Mask:
    """Reference: one smoothing round applied to the Merrien scheme (HC^2)."""
    return hermite_mask(_entries(16, (((-4, (-1, -1, 7, 15, 10, 2)), (0, (-1, -1))),
                                      ((-6, (1, -3, -4, 16, 9, -13, -6)), (-2, (1, -3, 3, 1))))))


def derham_smoothed() -> Mask:
    """Reference: one smoothing round applied to the de Rham scheme (HC^3)."""
    return hermite_mask(_entries(128, (
        ((-5, (-3, -12, 16, 100, 111, 40, 4)), (-1, (-3, -12, -3))),
        ((-7, (3, -7, -40, 44, 165, -17, -136, -20, 8)), (-3, (3, -7, -21, 21, -4))))))


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
