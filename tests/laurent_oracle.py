"""The dict-of-Fraction Laurent kernel, kept as a slow independent oracle.

A polynomial here is a plain dict exponent -> nonzero Fraction.  Products
run the double loop over all term pairs, sums go term by term and division
by a binomial is synthetic division in Fractions.  None of it touches the
package's integer kernel; ``to_dict`` reads a LaurentPoly only through its
``coeffs`` mapping.
"""

from __future__ import annotations

from fractions import Fraction


def to_dict(f) -> dict[int, Fraction]:
    return dict(f.coeffs)


def _clean(d: dict[int, Fraction]) -> dict[int, Fraction]:
    return {e: c for e, c in d.items() if c != 0}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _clean(out)


def sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) - c
    return _clean(out)


def mul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _clean(out)


def dilate(a: dict, factor: int = 2) -> dict:
    return {factor * e: c for e, c in a.items()}


class NotDivisible(Exception):
    pass


def divide_exact(f: dict, d: dict) -> dict:
    """Quotient f/d for a two-term d, lowest exponent first; raises
    NotDivisible when a remainder is left."""
    if not f:
        return {}
    a, b = min(d), max(d)
    hi_q = max(f) - b
    rem = dict(f)
    q: dict[int, Fraction] = {}
    while rem:
        e = min(rem)
        qe = e - a
        if qe > hi_q:
            raise NotDivisible(rem)
        c = rem[e] / d[a]
        q[qe] = c
        for de, dc in d.items():
            ee = qe + de
            nv = rem.get(ee, Fraction(0)) - c * dc
            if nv == 0:
                rem.pop(ee, None)
            else:
                rem[ee] = nv
    return q


def matmul(x: list[list[dict]], y: list[list[dict]]) -> list[list[dict]]:
    p = len(x)
    out = []
    for i in range(p):
        row = []
        for j in range(p):
            acc: dict = {}
            for k in range(p):
                acc = add(acc, mul(x[i][k], y[k][j]))
            row.append(acc)
        out.append(row)
    return out


def iterated_symbol(entries: list[list[dict]], L: int) -> list[list[dict]]:
    """A(z) A(z**2) ... A(z**(2**(L-1))), every factor dilated from A."""
    out = entries
    for n in range(1, L):
        dil = entries
        for _ in range(n):
            dil = [[dilate(e) for e in row] for row in dil]
        out = matmul(out, dil)
    return out


def stencil_norm(entries: list[list[dict]], arity: int) -> Fraction:
    """Max over residue classes mod arity of the max row sum of |coeffs|."""
    best = Fraction(0)
    for row in entries:
        sums: dict[int, Fraction] = {}
        for e in row:
            for k, c in e.items():
                sums[k % arity] = sums.get(k % arity, Fraction(0)) + abs(c)
        best = max([best, *sums.values()])
    return best
