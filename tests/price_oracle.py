"""The work price of a symbol operation as laurent._charge first computed it,
kept as a reference for the exact price.

The package multiplies each distinct pair of denominators once per
operation; this copy multiplies them once per pair, as the price was
defined.  Both read the budget and the floor from ``subsmooth.laurent`` when
called, so a test that patches MAX_WORK patches both.
"""

from __future__ import annotations

from itertools import repeat

from subsmooth import WorkBudgetError, laurent


def loops_over_f(a, c) -> bool:
    """Whether a pair's kernel loops over the terms of f (nums a) rather
    than g (nums c): the operand with fewer nonzero terms, f on a tie."""
    na, nc = len(a), len(c)
    return na == 1 or nc != 1 and na - a.count(0) <= nc - c.count(0)


def charge(fs, gs, jobs, bits=1) -> None:
    """WorkBudgetError, carrying the price, when the _products calls of one
    operation (jobs: pairs, factors' bit lengths or None) cost more than
    MAX_WORK: per pair, the nonzero terms of the operand the kernel loops over
    times the other's length, each at least _FLOOR or the words of both largest
    numerators times those of the factor and denominator share.  Pairs are
    priced only when a bound from their operands fs and gs alone is over."""
    max_work, floor = laurent.MAX_WORK, laurent._FLOOR

    def words(numss):  # 64-bit words of the largest numerator in the tuples
        return (max(max(map(max, numss)), -min(map(min, numss))).bit_length() >> 6) + 1
    fnums, gnums = [f.nums for f in fs if f.nums], [g.nums for g in gs if g.nums]
    dens = (len(fs) + len(gs)) * sum(x.den.bit_length() for x in (*fs, *gs)) + bits
    if fnums and gnums and sum(map(len, fnums)) * sum(map(len, gnums)) * max(
            words(fnums + gnums) ** 2 * (dens // 64 + 1), floor) <= max_work:
        return
    price, sizes = 0, {}  # words((nums,)) of each operand, scanned once
    for pairs, bs in jobs:
        live = [(f.nums, g.nums, f.den * g.den, b) for (f, g), b in zip(pairs, bs or repeat(1))
                if f.nums and g.nums and b]
        top = max((d for _, _, d, _ in live), default=1)
        den = top.bit_length() + sum(d.bit_length() for d in {x[2] for x in live} if top % d)
        for a, c, d, b in live:
            wa, wc = (sizes.get(id(x)) or sizes.setdefault(id(x), words((x,))) for x in (a, c))
            looped, other = (a, c) if loops_over_f(a, c) else (c, a)
            price += (len(looped) - looped.count(0)) * len(other) * max(
                wa * wc * ((den - d.bit_length() + b) // 64 + 1), floor)
    if price > max_work:
        raise WorkBudgetError(price, max_work)
