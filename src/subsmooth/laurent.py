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
with 1, a matrix entry is one row of pairs, a basis change or operator
product weighs one-term pairs by integer factors, and A(z) c(z**2) and
A(z**(2**k)) pass their step instead of building the dilated operand.  The
kernel has two strategies, chosen by size: below _PACK_MIN term products
(len f - 1) * (len g - 1) summed over the pairs it adds each term's multiple
of the other operand into a list of integers (``_schoolbook``); from there
on, unless an output numerator needs more than _PACK_MAX bytes, it packs the
operand that each pair does not loop over into one integer by Kronecker
substitution and adds one multiple of it per looped term (``_kronecker``).
Each of these operations first prices its pairs (``_charge``) against
MAX_WORK, calibrated in README "Command line"; the price counts the term
products of the terms both strategies loop over (``_loops_over_f``),
whichever runs.  Rationals appear only at the boundary: ``coeff``,
``coeffs``, ``evaluate`` and ``derivative_at`` return Fractions.

Operator symbols are data: intertwine and untwine are one product by the
operator's terms and one triangular solve by it (``_twine``), dividing only
by 1/z-1 and 1/z**2-1, each exact precisely when its root condition holds.
In a constant basis R they fold R**-1 and R into that one product, so a
descent or a smoothing round in a canonical basis is one twine; a basis
change alone (SymbolMatrix.transform) is the twine by the identity.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add, sub
from struct import iter_unpack
from types import MappingProxyType

from .errors import NotDivisibleError, WorkBudgetError
from .linalg import RatMatrix, _matrix, rat

MAX_WORK, _FLOOR = 8 * 10 ** 7, 16
# _products packs its operands from _PACK_MIN term products on, while an
# output numerator fits in _PACK_MAX bytes: below either, packing and
# unpacking cost more than they save (measured, README "Performance").
_PACK_MIN, _PACK_MAX = 1000, 24
_WORD = 8  # bytes of a slot read as a machine integer, array("q")
_ROW = 64  # slots split by one struct format
_FLIP = bytes(b ^ 0x80 for b in range(256))
_BIG_ENDIAN = sys.byteorder == "big"


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
    price, sizes = 0, {}  # words((nums,)) of each operand, scanned once
    for pairs, bs in jobs:
        live = [(f.nums, g.nums, f.den * g.den, b) for (f, g), b in zip(pairs, bs or repeat(1))
                if f.nums and g.nums and b]
        top = max((d for _, _, d, _ in live), default=1)
        den = top.bit_length() + sum(d.bit_length() for d in {x[2] for x in live} if top % d)
        for a, c, d, b in live:
            wa, wc = (sizes.get(id(x)) or sizes.setdefault(id(x), words((x,))) for x in (a, c))
            looped, other = (a, c) if _loops_over_f(a, c) else (c, a)
            price += (len(looped) - looped.count(0)) * len(other) * max(
                wa * wc * ((den - d.bit_length() + b) // 64 + 1), _FLOOR)
    if price > MAX_WORK:
        raise WorkBudgetError(price, MAX_WORK)


def _products(pairs, step: int = 1, factors=None, packs=None) -> "LaurentPoly":
    """sum m * f(z) * g(z**step) over the pairs (f, g) and their integer
    factors m (all 1 without factors), on one denominator.

    Each pair loops over the nonzero terms of its sparser operand and adds
    that term's multiple of the other operand into the sum, the pair's share
    m * den // (f.den * g.den) of the common denominator folded into the
    term: a term of f adds into every step-th slot, a term of g into
    consecutive slots at step * j.  The sum is a list of integers
    (_schoolbook) below _PACK_MIN term products beyond each pair's first
    pass, (len f - 1) * (len g - 1) summed over the pairs, and from there on
    one integer to which each term adds its multiple of the other operand
    packed into one integer (_kronecker); the dict packs shares the packed
    operands of one symbol operation and their largest numerators.  No zero
    of g(z**step) is read and the sum is normalized once, at the end, so the
    operands need a positive denominator but need not be normalized."""
    terms = []
    den, lo, hi, work = 1, math.inf, -math.inf, 0
    for (f, g), m in zip(pairs, repeat(1) if factors is None else factors):
        a, c = f.nums, g.nums
        if a and c and m:
            start, d = f.lo + step * g.lo, f.den * g.den
            terms.append((start, a, c, d, m))
            work += (len(a) - 1) * (len(c) - 1)
            if den % d:
                den = math.lcm(den, d)
            if start < lo:
                lo = start
            end = start + len(a) + step * (len(c) - 1)
            if end > hi:
                hi = end
    if not terms:
        return _ZERO
    terms = [(start - lo, a, c, den // d * m) for start, a, c, d, m in terms]
    if work < _PACK_MIN:
        return _normalize(lo, _schoolbook(terms, hi - lo, step), den)
    return _normalize(lo, _kronecker(terms, hi - lo, step, {} if packs is None else packs), den)


def _loops_over_f(a, c) -> bool:
    """Whether a pair's kernel loops over the terms of f (nums a) rather
    than g (nums c): the operand with fewer nonzero terms, f on a tie."""
    na, nc = len(a), len(c)
    return na == 1 or nc != 1 and na - a.count(0) <= nc - c.count(0)


def _schoolbook(terms, n: int, step: int) -> list:
    """The numerators of sum k * a(z) * c(z**step) * z**start over the terms
    (start, a, c, k), in one list of n integers."""
    out = [0] * n
    for start, a, c, k in terms:
        na, nc = len(a), len(c)
        if _loops_over_f(a, c):
            span = step * (nc - 1) + 1
            for i, x in enumerate(a, start):
                if x:
                    x *= k
                    out[i:i + span:step] = map(add, out[i:i + span:step],
                                               c if x == 1 else map(x.__mul__, c))
        else:
            for i, y in zip(range(start, start + step * nc, step), c):
                if y:
                    y *= k
                    out[i:i + na] = map(add, out[i:i + na],
                                        a if y == 1 else map(y.__mul__, a))
    return out


def _kronecker(terms, n: int, step: int, packs: dict) -> list:
    """_schoolbook by Kronecker substitution: the operand a pair does not
    loop over, p(z), becomes the integer p(2**w) for a slot width w = 8 * wb
    bits that holds every output numerator with its sign (a bound per pair:
    |k| * max|a| * max|c| * min(len a, len c)), so that each term of the
    looped operand is one integer product, shift and sum.  The sum is
    unpacked once.  Slots wider than _PACK_MAX bytes go to _schoolbook
    instead."""
    def top(x):  # max |x|, once per operand: an int key, apart from _pack's tuple keys
        return packs.get(id(x)) or packs.setdefault(id(x), max(max(x), -min(x)))
    bound = sum(abs(k) * top(a) * top(c) * min(len(a), len(c)) for _, a, c, k in terms)
    wb = max(-(-(bound.bit_length() + 1) // 8), _WORD)
    if wb > _PACK_MAX:
        return _schoolbook(terms, n, step)
    w, acc = 8 * wb, 0
    for start, a, c, k in terms:
        if _loops_over_f(a, c):
            looped, other, pitch = a, _pack(c, wb, step, packs), 1
        else:
            looped, other, pitch = c, _pack(a, wb, 1, packs), step
        for i, x in enumerate(looped):
            if x:
                acc += x * k * other << w * (start + pitch * i)
    return _unpack(acc, n, wb)


def _pack(nums, wb: int, step: int, packs: dict) -> int:
    """sum nums[i] * 2**(8 * wb * step * i), packed once per operand, slot
    width and step in packs, whose operands stay alive while it is used."""
    key = (id(nums), wb, step)
    packed = packs.get(key)
    if packed is None:
        gap = bytes(wb * (step - 1))
        if wb == _WORD:  # x + 2**63 is x as an int64 with its top bit flipped
            raw = array("q", nums)
            if _BIG_ENDIAN:
                raw.byteswap()
            raw = raw.tobytes()
            biased = bytearray(len(raw) * step)
            for j in range(wb - 1):
                biased[j::wb * step] = raw[j::wb]
            biased[wb - 1::wb * step] = raw[wb - 1::wb].translate(_FLIP)
        else:
            biased = gap.join(map(int.to_bytes, map(add, nums, repeat(1 << 8 * wb - 1)),
                                  repeat(wb), repeat("little")))
        packed = packs[key] = (int.from_bytes(biased, "little")
                               - _biases(len(nums), wb, gap))
    return packed


def _biases(n: int, wb: int, gap: bytes = b"") -> int:
    """2**(8 * wb - 1) in each of n slots of wb bytes, gap bytes apart."""
    return int.from_bytes((bytes(wb - 1) + b"\x80" + gap) * n, "little")


def _unpack(acc: int, n: int, wb: int) -> list:
    """The n signed slots of wb bytes of acc, lowest first.  Each slot holds
    less than 2**(8 * wb - 1) in absolute value, so with that added to every
    slot the slots are non-negative and need no carries."""
    if wb == _WORD:  # flipping the top bit gives each slot as an int64
        slots = bytearray((acc + _biases(n, wb)).to_bytes(n * wb, "little"))
        slots[wb - 1::wb] = slots[wb - 1::wb].translate(_FLIP)
        out = array("q", slots)
        if _BIG_ENDIAN:
            out.byteswap()
        return out.tolist()
    # whole rows of _ROW slots, so that one small Struct splits them
    rows = -(-n // _ROW) * _ROW
    slots = (acc + _biases(n, wb)).to_bytes(rows * wb, "little")
    split = chain.from_iterable(iter_unpack(f"{wb}s" * _ROW, slots))
    top = 1 << 8 * wb - 1
    return list(map(sub, map(int.from_bytes, islice(split, n), repeat("little")),
                    repeat(top)))


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

    def dilate(self) -> "LaurentPoly":
        """Substitute z -> z**2 (upsampling of the coefficient sequence)."""
        nums = self.nums
        if len(nums) < 2:
            return _raw(2 * self.lo, nums, self.den)
        out = [0] * (2 * len(nums) - 1)
        out[::2] = nums
        return _raw(2 * self.lo, tuple(out), self.den)

    # -- evaluation ----------------------------------------------------------------
    def _sum_at(self, x) -> int:
        """den * self(x) at x = 1 or x = -1: the numerators summed with signs."""
        nums = self.nums
        if x == 1:
            return sum(nums)
        if x == -1:  # the terms of even exponent minus those of odd exponent
            return sum(nums[self.lo % 2::2]) - sum(nums[1 - self.lo % 2::2])
        raise ValueError(f"evaluate is defined at 1 and -1 only, got {x}")

    def evaluate(self, x) -> Fraction:
        """Exact value at x = 1 or x = -1, the only points the calculus reads."""
        return Fraction(self._sum_at(x), self.den)

    def derivative_at(self, x) -> Fraction:
        """Exact derivative at x = 1 or x = -1."""
        lo = self.lo
        if x == 1:
            return Fraction(sum((lo + i) * c for i, c in enumerate(self.nums)),
                            self.den)
        if x == -1:  # (-1)**(e-1) = -1 for even exponents e
            s = sum((lo + i) * c if (lo + i) % 2 else -(lo + i) * c
                    for i, c in enumerate(self.nums))
            return Fraction(s, self.den)
        raise ValueError(f"derivative_at is defined at 1 and -1 only, got {x}")

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

Z_PLUS_1 = LaurentPoly({1: 1, 0: 1})            # z + 1, the b-spline of degree 0
# The two divisors of the smoothing calculus.
ZINV_MINUS_1 = LaurentPoly({-1: 1, 0: -1})      # 1/z - 1
ZINV2_MINUS_1 = LaurentPoly({-2: 1, 0: -1})     # 1/z**2 - 1
_DIVISORS = (ZINV_MINUS_1, ZINV2_MINUS_1)


def divide_exact(f: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact quotient f/d in the Laurent ring for d = 1/z - 1 or 1/z**2 - 1.

    Integer synthetic division from the lowest exponent upward: d is
    z**-g * (1 - z**g), so the quotient numerators are q[j] = nums[j] + q[j-g]
    over the same denominator.  The quotient in the Laurent ring is unique, so
    the direction is only a determinism choice.  Raises NotDivisibleError
    (carrying the remainder) when f(1) != 0, or for 1/z**2 - 1 also when
    f(-1) != 0.
    """
    if d not in _DIVISORS:
        raise ValueError(f"unsupported divisor {d}")
    if f.is_zero():
        return f
    gap = len(d.nums) - 1
    nums = f.nums
    n = len(nums)
    if n <= gap:
        raise NotDivisibleError(f"{f} is not divisible by {d}", remainder=f)
    q = list(nums[:n - gap])
    for j in range(gap, n - gap):
        q[j] += q[j - gap]
    rem = [nums[j] + q[j - gap] if j >= gap else nums[j] for j in range(n - gap, n)]
    if any(rem):
        raise NotDivisibleError(f"{f} is not divisible by {d}",
                                remainder=_normalize(f.lo + n - gap, rem, f.den))
    return _raw(f.lo - d.lo, tuple(q), f.den)


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
        packs = {}
        return _symbol(tuple(tuple(_products(zip(row, col), step, None, packs) for col in cols)
                             for row in self.entries))
    __mul__ = mul_dilated

    def transform(self, left: RatMatrix, right: RatMatrix) -> "SymbolMatrix":
        """The symbol left * self(z) * right for constant p x p matrices: _twine
        by the identity operator."""
        p = self.p
        if not left.rows == left.cols == right.rows == right.cols == p:
            raise ValueError("dimension mismatch")
        eye = tuple(tuple(_ONE if i == j else _ZERO for j in range(p)) for i in range(p))
        return _symbol(tuple(map(tuple, _twine(self.entries, eye, 1, 1, _integer_rows(left),
                                               _integer_rows(right)))))

    def mul_vector(self, v: Sequence[LaurentPoly], step: int = 1
                   ) -> tuple[LaurentPoly, ...]:
        """The product self(z) * v(z**step) with a column of p polynomials."""
        if len(v) != self.p:
            raise ValueError("dimension mismatch")
        _charge(sum(self.entries, ()), v, ((zip(row, v), None) for row in self.entries))
        packs = {}
        return tuple(_products(zip(row, v), step, None, packs) for row in self.entries)

    def scale(self, c) -> "SymbolMatrix":
        c = rat(c)
        return self.map(lambda e: e.scale(c))

    def dilate(self) -> "SymbolMatrix":
        """Substitute z -> z**2 in every entry."""
        return self.map(LaurentPoly.dilate)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"SymbolMatrix[{rows}]"


# -- operator symbols and intertwining ---------------------------------------------
#
# An operator symbol D is triangular with diagonal entries 1 or 1/z - 1.  Three
# are in use: the partial difference diag((1/z - 1) I_k, I), the Taylor
# operator T = [[1/z - 1, -1], [0, 1]], and a Hermite round's smoothing operator
# G_zeta = G S = [[1, 0], [zeta/z - 1 - zeta, 1/z - 1]]: G = R diag(1/z - 1, 1) R**-1
# for R = [[0, 1], [1, -1]], which puts the 1-eigenspace span{e2} of a Taylor
# scheme first, and the shear S = [[1, 0], [zeta - 1, 1]], so that a round is two
# untwines, by G_zeta and by T.  Masks A and B with D S_A = 1/2 S_B D have
# B(z) = 2 D(z) A(z) D(z**2)**-1 and A(z) = 1/2 D(z)**-1 B(z) D(z**2), both _twine:
# a product by D's terms and a triangular solve by D, exact precisely when the
# result is a Laurent polynomial, so NotDivisibleError is the existence test.

# Symbol of the Taylor operator on (value, derivative) pairs:
# (T c)_i = (c1_(i+1) - c1_i - c2_i, c2_i).
TAYLOR_OPERATOR = SymbolMatrix(((ZINV_MINUS_1, -_ONE), (_ZERO, _ONE)))


def difference_operator(p: int, k: int) -> SymbolMatrix:
    """Symbol of the forward difference on the first k of p components:
    diag((1/z - 1) I_k, I_(p-k))."""
    if not 1 <= k <= p:
        raise ValueError(f"k must be in 1..{p}, got {k}")
    return _symbol(tuple(tuple((ZINV_MINUS_1 if i < k else _ONE) if i == j else _ZERO
                               for j in range(p)) for i in range(p)))


def _solve(t, r, step: int) -> list:
    """Rows x with t(z**step) x = r for a triangular t, each after the rows it refers
    to: the divisor t[i][i] is dilated, the other entries pass step to the kernel."""
    rows, x = range(len(t)), [None] * len(t)
    for i in rows if any(t[j][k].nums for j in rows for k in range(j)) else reversed(rows):
        row = r[i]
        for k, tik in enumerate(t[i]):
            if k != i and tik.nums:
                if x[k] is None:
                    raise ValueError("an operator symbol must be triangular")
                row = [_products(((a, _ONE), (b, tik)), step, (1, -1)) for a, b in zip(row, x[k])]
        d = t[i][i] if step == 1 else t[i][i].dilate()
        x[i] = row if d == _ONE else [divide_exact(a, d) for a in row]
    return x


def _twine(s: tuple, d: tuple, step: int, scale, left=None, right=None) -> list:
    """Rows of the X with D(z**(3 - step)) X = scale L S(z) R D(z**step), step 1 or 2, for
    constant L and R given as integer rows over a denominator (the identity without
    them): entry (i, j) of the right side is one kernel call pairing s[a,k] with
    z**e / (h dl den) at z**step, weighed by the integer l n c, for each l / dl = L[i,a]
    and each term c z**e / den of R[k,m] D[m,j] over m, den the lcm of D's denominators
    times R's and n / h = scale, so that a long rational of D or R, such as zeta, is
    priced as a factor of bit length bits(l) + bits(n c) - 1, before any product."""
    n, h = scale.as_integer_ratio()
    den = math.lcm(*(e.den for row in d for e in row))
    cols = [[(k, e.lo + i, x * (den // e.den)) for k, e in enumerate(col)
             for i, x in enumerate(e.nums) if x] for col in zip(*d)]
    if right is not None:  # the terms of R D: R[k,l] times those of D[l,j], over dr den
        rows, den = right[0], den * right[1]
        cols = [[(k, e, row[l] * c) for k, row in enumerate(rows) for l, e, c in col if row[l]]
                for col in cols]
    lefts, dl = ([((a, 1),) for a in range(len(s))], 1) if left is None else (
        [[(a, x) for a, x in enumerate(row) if x] for row in left[0]], left[1])
    cols = [[(k, _raw(e, (1,), h * dl * den), n * c) for k, e, c in col] for col in cols]
    jobs = [[([(s[a][k], u) for a, _ in line for k, u, _ in c],
              [(x, m) for _, x in line for _, _, m in c]) for c in cols] for line in lefts]
    top = (max((x.bit_length() for line in lefts for _, x in line), default=1)
           + max((m.bit_length() for col in cols for _, _, m in col), default=1) - 1)
    _charge([e for line in lefts for a, _ in line for e in s[a]],  # a row of S once per use
            [u for col in cols for _, u, _ in col],
            ((pairs, [x.bit_length() + m.bit_length() - 1 for x, m in xms])
             for line in jobs for pairs, xms in line), top)
    return _solve(d, [[_products(ps, step, [x * m for x, m in xms]) for ps, xms in line]
                      for line in jobs], 3 - step)


def _basis(r, r_inv, transpose: bool):
    """L and R of _twine for the conjugation R**-1 A R, as _integer_rows, or their
    transposes; None and None without r."""
    if r is None:
        return None, None
    (a, da), (b, db) = _integer_rows(r), _integer_rows(r_inv)
    return ((tuple(zip(*a)), da), (tuple(zip(*b)), db)) if transpose else ((b, db), (a, da))


def intertwine(a: SymbolMatrix, d: SymbolMatrix, r: RatMatrix | None = None,
               r_inv: RatMatrix | None = None) -> SymbolMatrix:
    """The symbol 2 D(z) A'(z) D(z**2)**-1 of the scheme B with D S_A' = 1/2 S_B D, for
    A' = R**-1 A R (A without r; r_inv is R**-1, trusted), from D(z**2)^T B^T =
    2 R^T A(z)^T R^-T D(z)^T.  Raises NotDivisibleError when no such mask exists."""
    return _symbol(tuple(zip(*_twine(tuple(zip(*a.entries)), tuple(zip(*d.entries)), 1, 2,
                                     *_basis(r, r_inv, True)))))


def untwine(b: SymbolMatrix, d: SymbolMatrix, r: RatMatrix | None = None,
            r_inv: RatMatrix | None = None) -> SymbolMatrix:
    """Right inverse of intertwine: the symbol 1/2 D(z)**-1 B'(z) D(z**2) for
    B' = R**-1 B R (B without r; r_inv is R**-1, trusted).  Raises NotDivisibleError
    when no such mask exists."""
    return _symbol(tuple(map(tuple, _twine(b.entries, d.entries, 2, Fraction(1, 2),
                                           *_basis(r, r_inv, False)))))
