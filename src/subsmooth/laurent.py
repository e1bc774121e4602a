"""Laurent polynomials over the rationals and square matrices of them.

A Laurent polynomial is stored as integer numerators over one denominator:
the triple ``(lo, nums, den)`` stands for sum_i nums[i]/den * z**(lo + i).
The triple is normalized -- no zero numerator at either end, ``den > 0``,
``gcd(den, *nums) == 1``, and zero is ``(0, (), 1)`` -- so equality of the
triples is equality of the polynomials.  These are the generating functions
of finitely supported sequences: all of the subdivision calculus in this
package is phrased in terms of them.

Arithmetic stays in the integers, in one kernel: ``_products`` returns
sum m * f(z) * g(z**step) over pairs (f, g) and integer factors m on one
denominator.  A product is one pair with step 1, a sum pairs each operand
with 1, a matrix entry is one row of pairs, a constant basis change weighs
the entries by integer factors, and A(z) c(z**2) and A(z**(2**k)) pass
their step instead of building the dilated operand.  A symbol product,
refinement step or basis change first prices its pairs (``_charge``) against
MAX_WORK, calibrated in README "Command line".  Rationals appear only at the
boundary: ``coeff``, ``coeffs``, ``evaluate`` and ``derivative_at`` return
Fractions.

Division is deliberately restricted to the four binomials the smoothing
calculus needs (z+1, 1/z+1, 1/z-1, 1/z**2-1); each has an exact quotient in
the Laurent ring precisely when the matching root condition holds.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import repeat
from operator import add
from types import MappingProxyType

from .errors import NotDivisibleError, WorkBudgetError
from .linalg import RatMatrix, _matrix, rat

MAX_WORK, _FLOOR = 8 * 10 ** 7, 16


_new = object.__new__
_set = object.__setattr__


def _raw(lo: int, nums: tuple, den: int) -> "LaurentPoly":
    """A LaurentPoly from a triple that is already normalized."""
    f = _new(LaurentPoly)
    _set(f, "lo", lo)
    _set(f, "nums", nums)
    _set(f, "den", den)
    return f


def _normalize(lo: int, nums: Sequence[int], den: int) -> "LaurentPoly":
    """A LaurentPoly from any numerators over a positive denominator."""
    n = len(nums)
    start = 0
    while start < n and not nums[start]:
        start += 1
    if start == n:
        return _ZERO
    end = n
    while not nums[end - 1]:
        end -= 1
    if start or end != n:
        nums = nums[start:end]
        lo += start
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
    return _raw(lo, tuple(nums), den)


def _integer_rows(m: RatMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rows of m times the lcm of its denominators, and that lcm."""
    ratios = [x.as_integer_ratio() for x in m.entries]
    den = math.lcm(*(d for _, d in ratios))
    ints = tuple(n * (den // d) for n, d in ratios)
    return tuple(ints[i:i + m.cols] for i in range(0, len(ints), m.cols)), den


def _charge(fs, gs, jobs, bits=1) -> None:
    """WorkBudgetError, before any product runs, when the _products calls of
    one operation (jobs: pairs, factors' bit lengths or None) cost more than
    MAX_WORK: per pair, the nonzero terms of the operand the kernel loops over
    times the other's length, each at least _FLOOR or the words of both largest
    numerators times those of the factor and denominator share.  Pairs are
    priced only when a bound from their operands fs and gs alone is over."""
    def words(numss):  # 64-bit words of the largest numerator in the tuples
        return (max(max(map(max, numss)), -min(map(min, numss))).bit_length() >> 6) + 1
    fnums, gnums = [f.nums for f in fs if f.nums], [g.nums for g in gs if g.nums]
    dens = (len(fs) + len(gs)) * sum(x.den.bit_length() for x in (*fs, *gs)) + bits
    if fnums and gnums and sum(map(len, fnums)) * sum(map(len, gnums)) * max(
            words(fnums + gnums) ** 2 * (dens // 64 + 1), _FLOOR) <= MAX_WORK:
        return
    price = 0
    for pairs, bs in jobs:
        live = [(f.nums, g.nums, f.den * g.den, b) for (f, g), b in zip(pairs, bs or repeat(1))
                if f.nums and g.nums and b]
        top = max((d for _, _, d, _ in live), default=1)
        den = top.bit_length() + sum(d.bit_length() for d in {x[2] for x in live} if top % d)
        for a, c, d, b in live:
            za, zc = len(a) - a.count(0), len(c) - c.count(0)
            terms = za * len(c) if len(a) == 1 or len(c) != 1 and za <= zc else zc * len(a)
            price += terms * max(words((a,)) * words((c,))
                                 * ((den - d.bit_length() + b) // 64 + 1), _FLOOR)
    if price > MAX_WORK:
        raise WorkBudgetError(price, MAX_WORK)


def _products(pairs, step: int = 1, factors=None) -> "LaurentPoly":
    """sum m * f(z) * g(z**step) over the pairs (f, g) and their integer
    factors m (all 1 without factors), on one denominator.

    Each pair loops over the nonzero terms of its sparser operand and adds
    that term's multiple of the other operand straight into one integer
    buffer, the pair's share m * den // (f.den * g.den) of the common
    denominator folded into the term: a term of f adds into every step-th
    slot, a term of g into consecutive slots at step * j.  No zero of
    g(z**step) is read and the sum is normalized once, at the end, so the
    operands need a positive denominator but need not be normalized."""
    terms = []
    den, lo, hi = 1, math.inf, -math.inf
    for (f, g), m in zip(pairs, repeat(1) if factors is None else factors):
        a, c = f.nums, g.nums
        if a and c and m:
            start, d = f.lo + step * g.lo, f.den * g.den
            terms.append((start, a, c, d, m))
            if den % d:
                den = math.lcm(den, d)
            if start < lo:
                lo = start
            end = start + len(a) + step * (len(c) - 1)
            if end > hi:
                hi = end
    if not terms:
        return _ZERO
    out = [0] * (hi - lo)
    for start, a, c, d, m in terms:
        k = den // d * m
        start -= lo
        na, nc = len(a), len(c)
        if na == 1 or nc != 1 and na - a.count(0) <= nc - c.count(0):
            n = step * (nc - 1) + 1
            for i, x in enumerate(a, start):
                if x:
                    x *= k
                    out[i:i + n:step] = map(add, out[i:i + n:step],
                                            c if x == 1 else map(x.__mul__, c))
        else:
            for i, y in zip(range(start, start + step * nc, step), c):
                if y:
                    y *= k
                    out[i:i + na] = map(add, out[i:i + na],
                                        a if y == 1 else map(y.__mul__, a))
    return _normalize(lo, out, den)


class LaurentPoly:
    """Finitely supported map exponent -> rational, as integer numerators
    ``nums`` for exponents ``lo, lo+1, ...`` over the denominator ``den``;
    immutable."""

    __slots__ = ("lo", "nums", "den")

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        clean = {int(e): rat(c) for e, c in coeffs.items()} if coeffs else {}
        clean = {e: c for e, c in clean.items() if c}
        if not clean:
            lo, nums, den = 0, (), 1
        else:
            den = math.lcm(*(c.denominator for c in clean.values()))
            lo = min(clean)
            out = [0] * (max(clean) - lo + 1)
            for e, c in clean.items():
                out[e - lo] = c.numerator * (den // c.denominator)
            nums = tuple(out)  # gcd(den, *nums) is 1 for reduced Fractions
        _set(self, "lo", lo)
        _set(self, "nums", nums)
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def from_coeffs(lo: int, coeffs: Sequence) -> "LaurentPoly":
        """Coefficients for consecutive exponents starting at ``lo``."""
        return LaurentPoly({lo + i: c for i, c in enumerate(coeffs)})

    # -- basic queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def support(self) -> tuple[int, int] | None:
        """(min exponent, max exponent), or None for the zero polynomial."""
        if not self.nums:
            return None
        return self.lo, self.lo + len(self.nums) - 1

    @property
    def coeffs(self) -> Mapping[int, Fraction]:
        """Read-only map exponent -> nonzero coefficient."""
        lo, den = self.lo, self.den
        return MappingProxyType({lo + i: Fraction(x, den)
                                 for i, x in enumerate(self.nums) if x})

    def coeff(self, e: int) -> Fraction:
        i = e - self.lo
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    # -- ring operations ---------------------------------------------------------
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other.nums:
            return self
        if not self.nums:
            return other
        return _products(((self, _ONE), (other, _ONE)))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return _raw(self.lo, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _products(((self, other),))

    def scale(self, c) -> "LaurentPoly":
        c = rat(c)
        if not c or not self.nums:
            return _ZERO
        n = c.numerator
        return _normalize(self.lo, [n * x for x in self.nums],
                          self.den * c.denominator)

    def shift(self, by: int) -> "LaurentPoly":
        """Multiply by z**by."""
        return _raw(self.lo + by, self.nums, self.den) if self.nums else self

    def dilate(self, factor: int = 2) -> "LaurentPoly":
        """Substitute z -> z**factor (upsampling of the coefficient sequence)."""
        nums = self.nums
        if len(nums) < 2:
            return _raw(factor * self.lo, nums, self.den)
        out = [0] * (factor * (len(nums) - 1) + 1)
        out[::factor] = nums
        return _raw(factor * self.lo, tuple(out), self.den)

    # -- evaluation ----------------------------------------------------------------
    def evaluate(self, x) -> Fraction:
        """Exact value at a nonzero rational point (used at x = +-1)."""
        nums = self.nums
        if x == 1:
            return Fraction(sum(nums), self.den)
        if x == -1:
            s = sum(nums[::2]) - sum(nums[1::2])
            return Fraction(-s if self.lo % 2 else s, self.den)
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(nums):
            acc = acc * x + c
        return acc * x ** self.lo / self.den

    def derivative_at(self, x) -> Fraction:
        lo = self.lo
        if x == 1:
            return Fraction(sum((lo + i) * c for i, c in enumerate(self.nums)),
                            self.den)
        if x == -1:  # (-1)**(e-1) = -1 for even exponents e
            s = sum((lo + i) * c if (lo + i) % 2 else -(lo + i) * c
                    for i, c in enumerate(self.nums))
            return Fraction(s, self.den)
        x = rat(x)
        return sum(((lo + i) * c * x ** (lo + i - 1) for i, c in enumerate(self.nums)),
                   Fraction(0)) / self.den

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.nums == other.nums
                and self.lo == other.lo and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.lo, self.nums, self.den))

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for i, x in enumerate(self.nums):
            if not x:
                continue
            e = self.lo + i
            c = Fraction(x, self.den)
            if e == 0:
                term = str(c)
            else:
                zpow = "z" if e == 1 else f"z^{e}"
                if c == 1:
                    term = zpow
                elif c == -1:
                    term = f"-{zpow}"
                else:
                    term = f"{c}*{zpow}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


_ZERO = _raw(0, (), 1)
_ONE = _raw(0, (1,), 1)

# The four binomial divisors used by the smoothing calculus.
Z_PLUS_1 = LaurentPoly({1: 1, 0: 1})            # z + 1
ZINV_PLUS_1 = LaurentPoly({-1: 1, 0: 1})        # 1/z + 1
ZINV_MINUS_1 = LaurentPoly({-1: 1, 0: -1})      # 1/z - 1
ZINV2_MINUS_1 = LaurentPoly({-2: 1, 0: -1})     # 1/z**2 - 1

_BINOMIALS = (Z_PLUS_1, ZINV_PLUS_1, ZINV_MINUS_1, ZINV2_MINUS_1)


def divide_exact(f: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact quotient f/d in the Laurent ring for one of the four binomials.

    Integer synthetic division from the lowest exponent upward: each binomial
    is z**a * (1 + s*z**g) with s = +-1, so the quotient numerators are
    q[j] = nums[j] - s*q[j-g] over the same denominator.  The quotient in the
    Laurent ring is unique, so the direction is only a determinism choice.
    Raises NotDivisibleError (carrying the remainder) when the matching root
    condition fails, e.g. dividing by 1/z - 1 a polynomial with f(1) != 0.
    """
    if d not in _BINOMIALS:
        raise ValueError(f"unsupported divisor {d}")
    if f.is_zero():
        return f
    gap = len(d.nums) - 1
    s = d.nums[-1]
    nums = f.nums
    n = len(nums)
    if n <= gap:
        raise NotDivisibleError(f"{f} is not divisible by {d}", remainder=f)
    q = list(nums[:n - gap])
    for j in range(gap, n - gap):
        q[j] -= s * q[j - gap]
    rem = [nums[j] - s * q[j - gap] if j >= gap else nums[j]
           for j in range(n - gap, n)]
    if any(rem):
        raise NotDivisibleError(f"{f} is not divisible by {d}",
                                remainder=_normalize(f.lo + n - gap, rem, f.den))
    return _raw(f.lo - d.lo, tuple(q), f.den)


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


def joint_support(polys) -> tuple[int, int] | None:
    """(min, max) exponent over the nonzero terms of all polys, or None."""
    sups = [f.support for f in polys if f.nums]
    if not sups:
        return None
    return min(s[0] for s in sups), max(s[1] for s in sups)


def _symbol(entries: tuple) -> "SymbolMatrix":
    """A SymbolMatrix from a square tuple of tuples of LaurentPoly,
    unchecked; for results computed here."""
    s = _new(SymbolMatrix)
    _set(s, "p", len(entries))
    _set(s, "entries", entries)
    return s


class SymbolMatrix:
    """Square matrix of LaurentPoly; the symbol of a matrix mask."""

    __slots__ = ("p", "entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        p = len(entries)
        if any(len(row) != p for row in entries):
            raise ValueError("symbol matrix must be square")
        rows = tuple(tuple(e for e in row) for row in entries)
        for row in rows:
            for e in row:
                if not isinstance(e, LaurentPoly):
                    raise TypeError("entries must be LaurentPoly")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolMatrix is immutable")

    # -- constructors -------------------------------------------------------------
    @staticmethod
    def zero(p: int) -> "SymbolMatrix":
        return SymbolMatrix(tuple(tuple(LaurentPoly.zero() for _ in range(p))
                                  for _ in range(p)))

    # -- queries ---------------------------------------------------------------------
    def __getitem__(self, idx) -> LaurentPoly:
        i, j = idx
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    @property
    def support(self) -> tuple[int, int] | None:
        return joint_support(e for row in self.entries for e in row)

    def coefficient(self, i: int) -> RatMatrix:
        """The matrix coefficient of z**i."""
        return _matrix(self.p, self.p,
                       tuple(e.coeff(i) for row in self.entries for e in row))

    def evaluate(self, x) -> RatMatrix:
        return _matrix(self.p, self.p,
                       tuple(e.evaluate(x) for row in self.entries for e in row))

    # -- algebra -----------------------------------------------------------------------
    def map(self, fn) -> "SymbolMatrix":
        return SymbolMatrix(tuple(tuple(fn(e) for e in row) for row in self.entries))

    def mul_dilated(self, other: "SymbolMatrix", step: int = 1) -> "SymbolMatrix":
        """The product self(z) * other(z**step), not building other(z**step)."""
        if self.p != other.p:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.entries))
        _charge(sum(self.entries, ()), sum(other.entries, ()),
                ((zip(row, col), None) for row in self.entries for col in cols))
        return _symbol(tuple(tuple(_products(zip(row, col), step) for col in cols)
                             for row in self.entries))
    __mul__ = mul_dilated

    def transform(self, left: RatMatrix, right: RatMatrix) -> "SymbolMatrix":
        """The symbol left * self(z) * right for constant p x p matrices.

        Entry (i, j) is one kernel call pairing each self[k,l] with 1 / (dl * dr),
        weighed by (dl * left[i,k]) * (dr * right[l,j]), dl and dr the lcm of
        the denominators of left and right."""
        p = self.p
        if not left.rows == left.cols == right.rows == right.cols == p:
            raise ValueError("dimension mismatch")
        lft, dl = _integer_rows(left)
        rgt, dr = _integer_rows(right)
        unit, cols = _raw(0, (1,), dl * dr), list(zip(*rgt))
        pairs = [(unit, e) for row in self.entries for e in row]
        _charge([unit] * p * p, sum(self.entries, ()), ((pairs, [
            x.bit_length() + y.bit_length() if x and y else 0 for x in li for y in col])
            for li in lft for col in cols), 2 * max(map(int.bit_length, sum(lft + rgt, ()))))
        return _symbol(tuple(tuple(_products(pairs, 1, [a * b for a in li for b in col])
                                   for col in cols) for li in lft))

    def mul_vector(self, v: Sequence[LaurentPoly], step: int = 1
                   ) -> tuple[LaurentPoly, ...]:
        """The product self(z) * v(z**step) with a column of p polynomials."""
        if len(v) != self.p:
            raise ValueError("dimension mismatch")
        _charge(sum(self.entries, ()), v, ((zip(row, v), None) for row in self.entries))
        return tuple(_products(zip(row, v), step) for row in self.entries)

    def scale(self, c) -> "SymbolMatrix":
        c = rat(c)
        return self.map(lambda e: e.scale(c))

    def dilate(self, factor: int = 2) -> "SymbolMatrix":
        return self.map(lambda e: e.dilate(factor))

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"SymbolMatrix[{rows}]"


# -- operator symbols and intertwining ---------------------------------------------
#
# An operator symbol D is upper triangular with diagonal entries 1 or 1/z - 1:
# the partial difference diag((1/z - 1) I_k, I) and the Taylor operator
# [[1/z - 1, -1], [0, 1]] are the two in use.  A mask A and the mask B with
# D S_A = 1/2 S_B D are related by B(z) = 2 D(z) A(z) D(z**2)**-1; both
# inverses are triangular solves whose divisions are exact precisely when the
# result is a Laurent polynomial, so NotDivisibleError is the existence test.

# Symbol of the Taylor operator on (value, derivative) pairs:
# (T c)_i = (c1_(i+1) - c1_i - c2_i, c2_i).
TAYLOR_OPERATOR = SymbolMatrix(((ZINV_MINUS_1, -_ONE), (_ZERO, _ONE)))


def difference_operator(p: int, k: int) -> SymbolMatrix:
    """Symbol of the forward difference on the first k of p components:
    diag((1/z - 1) I_k, I_(p-k))."""
    if not 1 <= k <= p:
        raise ValueError(f"k must be in 1..{p}, got {k}")
    return SymbolMatrix(tuple(tuple((ZINV_MINUS_1 if i < k else _ONE) if i == j
                                    else _ZERO for j in range(p))
                              for i in range(p)))


def _solve(t, r, order) -> list:
    """Rows x with t x = r, solved row by row in the given order, which must
    visit every row after the rows its off-diagonal entries refer to."""
    x = [None] * len(t)
    for i in order:
        row = r[i]
        for k, tik in enumerate(t[i]):
            if k != i and tik.nums:
                if x[k] is None:
                    raise ValueError("an operator symbol must be upper triangular")
                row = [a - tik * b for a, b in zip(row, x[k])]
        d = t[i][i]
        x[i] = row if d == _ONE else [divide_exact(a, d) for a in row]
    return x


def intertwine(a: SymbolMatrix, d: SymbolMatrix) -> SymbolMatrix:
    """The symbol 2 D(z) A(z) D(z**2)**-1 of the scheme B with D S_A = 1/2 S_B D.

    Raises NotDivisibleError when no such mask exists."""
    m = d * a
    # X D(z**2) = M is D(z**2)^T X^T = M^T, a forward substitution
    cols = _solve(list(zip(*d.dilate().entries)), list(zip(*m.entries)),
                  range(a.p))
    return SymbolMatrix(tuple(zip(*cols))).scale(2)


def untwine(b: SymbolMatrix, d: SymbolMatrix) -> SymbolMatrix:
    """Right inverse of intertwine: the symbol 1/2 D(z)**-1 B(z) D(z**2).

    Raises NotDivisibleError when no such mask exists."""
    rows = _solve(d.entries, b.mul_dilated(d, 2).entries, reversed(range(b.p)))
    return SymbolMatrix(rows).scale(Fraction(1, 2))
