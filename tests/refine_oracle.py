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
"""

from __future__ import annotations

from fractions import Fraction

from subsmooth import FinSeq


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
