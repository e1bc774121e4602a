"""Entry-by-entry loops over Fractions, kept as slow independent oracles.

``apply``, ``difference`` and ``taylor_diff`` are the sequence operations
as sums over the entries of the data, reading a mask only through
``support``/``coefficient`` and a sequence only through ``support``/``at``;
the package computes them as products of symbols: ``subsmooth.apply`` and
the products with ``difference_operator`` and ``TAYLOR_OPERATOR``.  The ``*_condition``
functions are the explicit root conditions under which the derived scheme,
the smoothing operator and the two Taylor factorizations exist; the package
finds out by attempting the exact divisions.  ``full_support_window`` is the
range on which a truncated step agrees with the infinite one, which
reproduction tests compare on.  ``to_csv`` writes a sequence row by row
through Fractions; the package formats whole columns of integers.
``float_refusal`` and ``exact_refusal`` are the messages of the cells that
the two CSV forms cannot hold, found before any conversion: by the bound of
the float range, and by the column guard the exact writer used to run.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import floordiv

from subsmooth import FinSeq, SubsmoothError


def apply(mask, c: FinSeq) -> FinSeq:
    """One subdivision step: (S c)_i = sum_j A_{i-2j} c_j, exactly."""
    if mask.p != c.p:
        raise ValueError(f"mask dimension {mask.p} != data dimension {c.p}")
    ms = mask.support
    if ms is None or c.is_zero():
        return FinSeq.make(c.p, 0, [])
    lo_m, hi_m = ms
    lo_c, hi_c = c.support
    coeffs = {i: mask.coefficient(i) for i in range(lo_m, hi_m + 1)}
    out_lo = 2 * lo_c + lo_m
    out_hi = 2 * hi_c + hi_m
    acc = [[Fraction(0)] * c.p for _ in range(out_hi - out_lo + 1)]
    for j in range(lo_c, hi_c + 1):
        cj = c.at(j)
        for s in range(lo_m, hi_m + 1):
            m = coeffs[s]
            if m.is_zero():
                continue
            row = acc[2 * j + s - out_lo]
            for r in range(c.p):
                row[r] += sum(m[r, t] * cj[t] for t in range(c.p))
    return FinSeq.make(c.p, out_lo, acc)


def full_support_window(mask, c: FinSeq) -> tuple[int, int] | None:
    """Output indices of one subdivision step whose stencil lies entirely
    inside the stored window of c.

    On this range the result agrees with applying the mask to any infinite
    extension of c, which is what truncated reproduction tests compare
    against.
    """
    ms, cs = mask.support, c.support
    if ms is None or cs is None:
        return None
    lo_m, hi_m = ms
    lo_c, hi_c = cs
    lo = 2 * lo_c + hi_m
    hi = 2 * hi_c + lo_m
    return (lo, hi) if lo <= hi else None


def to_csv(c: FinSeq, exact: bool = False) -> str:
    """One row per index: t, then the p values, as floats with 17
    significant digits or, with exact, as p/q strings."""
    lines = ["t," + ",".join(f"c{r + 1}" for r in range(c.p))]
    scale = 2 ** c.n
    for i, v in enumerate(c.values, c.offset):
        if exact:
            lines.append(",".join(map(str, (Fraction(i, scale), *v))))
        else:
            lines.append(",".join(f"{float(x):.17g}" for x in (Fraction(i, scale), *v)))
    return "\n".join(lines) + "\n"


# x / den overflows exactly when |x| >= den * this: the values from here on
# round to 2**1024
FLOAT_OVERFLOW = (2 ** 54 - 1) << 970


def _csv_columns(c: FinSeq):
    """Per CSV column, t first: its name and its values as Fractions."""
    scale = 2 ** c.n
    yield "t", [Fraction(i, scale) for i in range(c.offset, c.offset + len(c.values))]
    for r in range(c.p):
        yield f"component c{r + 1}", [v[r] for v in c.values]


def float_refusal(c: FinSeq) -> str | None:
    """The refusal of the first value beyond the float range, column by
    column, or None when every value has a float."""
    for name, values in _csv_columns(c):
        for i, x in enumerate(values, c.offset):
            if abs(x) >= FLOAT_OVERFLOW:
                return f"{name} at {index(i)} is beyond the float range; render it with --exact"
    return None


def unprintable(n: int) -> str | None:
    """Why str(n) would fail under the interpreter's digit limit for integer
    strings (read, never set), or None when it would not."""
    limit = sys.get_int_max_str_digits()
    n = abs(n)
    # n < 8**limit < 10**limit needs no power of ten
    if not limit or n.bit_length() <= 3 * limit or n < 10 ** limit:
        return None
    d = int((n.bit_length() - 1) * 0.30102999566398120) + 1
    return (f"{d + (n >= 10 ** d)} digits, over the limit of {limit} digits "
            "for integer strings")


def index(i: int) -> str:
    """How a refusal names index i: "index i", or "an index of d digits" when
    str(i) would fail under the digit limit, d counted by str() without one."""
    if unprintable(i) is None:
        return f"index {i}"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"an index of {len(str(abs(i)))} digits"
    finally:
        sys.set_int_max_str_digits(limit)


def lowest_terms_guard(name: str, nums: list[int] | range, den: int, lo: int):
    """The numerator and denominator of Fraction(x, den) for each x.  A value
    str() would refuse is a SubsmoothError naming the column and the index of
    its largest cell, lo that of nums[0]: the check the exact writer ran on
    each column, in order, before it formatted any."""
    gs = list(map(gcd, nums, repeat(den)))
    ns = list(map(floordiv, nums, gs))
    ds = list(map(den.__floordiv__, gs))
    top = max(max(ns), -min(ns), max(ds))
    why = unprintable(top)
    if why:
        big = list(map(max, map(abs, ns), ds))
        raise SubsmoothError(f"{name} at {index(lo + big.index(top))} has {why}")
    return ns, ds


def exact_refusal(c: FinSeq) -> SubsmoothError | None:
    """What lowest_terms_guard raises on the columns of c, each over the lcm
    of its denominators: its refusal, or None when it raises nothing."""
    if c.is_zero():
        return None
    try:
        for name, values in _csv_columns(c):
            den = lcm(*(x.denominator for x in values))
            lowest_terms_guard(name, [x.numerator * (den // x.denominator) for x in values],
                               den, c.offset)
    except SubsmoothError as exc:
        return exc
    return None


def difference(c: FinSeq, k: int) -> FinSeq:
    """Forward difference on the first k components, identity on the rest."""
    if not 1 <= k <= c.p:
        raise ValueError("k out of range")
    if c.is_zero():
        return c
    lo, hi = c.support
    vals = []
    for i in range(lo - 1, hi + 1):  # index lo-1 picks up c_lo - 0
        cur, nxt = c.at(i), c.at(i + 1)
        vals.append([nxt[t] - cur[t] for t in range(k)] + list(cur[k:]))
    return FinSeq.make(c.p, lo - 1, vals)


def taylor_diff(c: FinSeq) -> FinSeq:
    """Taylor operator on pairs: (Tc)_i = (c1_{i+1} - c1_i - c2_i, c2_i)."""
    if c.p != 2:
        raise ValueError("Taylor operator applies to 2-vector data")
    if c.is_zero():
        return c
    lo, hi = c.support
    vals = []
    for i in range(lo - 1, hi + 1):  # index lo-1 picks up c_lo - 0
        cur, nxt = c.at(i), c.at(i + 1)
        vals.append([nxt[0] - cur[0] - cur[1], cur[1]])
    return FinSeq.make(2, lo - 1, vals)


def derived_condition(mask, k: int) -> bool:
    """A11(-1) = 0, A21(-1) = 0 and A21(1) = 0 (leading block of size k)."""
    sym = mask.symbol
    return (all(sym[i, j].evaluate(-1) == 0 for i in range(k) for j in range(k))
            and all(sym[i, j].evaluate(-1) == 0 and sym[i, j].evaluate(1) == 0
                    for i in range(k, mask.p) for j in range(k)))


def smoothing_condition(mask, k: int) -> bool:
    """B12(1) = 0 (leading block of size k)."""
    sym = mask.symbol
    return all(sym[i, j].evaluate(1) == 0
               for i in range(k) for j in range(k, mask.p))


def taylor_condition(mask) -> bool:
    """a11(-1) = 0 and a21(+-1) = 0: the divisions of the Taylor scheme."""
    s = mask.symbol
    return (s[0, 0].evaluate(-1) == 0 and s[1, 0].evaluate(1) == 0
            and s[1, 0].evaluate(-1) == 0)


def inverse_taylor_condition(mask) -> bool:
    """(b12 - b11 - b21 + b22)(1) = 0: the division of the inverse."""
    s = mask.symbol
    return (s[0, 1] - s[0, 0] - s[1, 0] + s[1, 1]).evaluate(1) == 0
