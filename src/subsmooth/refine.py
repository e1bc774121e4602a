"""Applying schemes to data, contractivity certificates, limit rendering.

Everything before the final float conversion is exact rational: applying a
mask to a finitely supported sequence, iterated symbols and operator norms.
Contractivity certificates are therefore machine-checkable witnesses, not
numerical estimates: a granted certificate states an exact operator norm < 1.
The CSV is one % format of its table, t at 14 digits where 17 print the same.

A refusal is always inconclusive.  The norm criterion is sufficient for
convergence, not necessary, so failing to find a contractive power proves
nothing about the scheme.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd
from operator import floordiv

from .errors import EigenspaceError, SubsmoothError, WorkBudgetError
from .laurent import LaurentPoly, SymbolMatrix, joint_support
from .masks import Kind, Mask, canonical_transform, common_one_eigenspace, stencil_norm
from .vector_smoothing import derived
from .hermite_smoothing import E2, check_spectral, taylor_scheme

DEFAULT_LMAX = 12
MAX_LMAX = 16
MAX_SYMBOL_TERMS = 2 ** 20
MAX_RENDER_ROWS = 2 ** 17
MAX_ROUNDS = 64


class FinSeq(namedtuple("FinSeq", "comps n", defaults=(0,))):
    """Finitely supported sequence of p-vectors, stored as its generating
    function: ``comps[r]`` is sum_i c_i[r] z**i, so equality is semantic.

    ``n`` is the grid level of a sampled limit function: the CSV and rows
    views put index i at t = i / 2**n, floats only there.  render sets it;
    every other operation keeps the level of its sequence operand.
    Immutable; the instance dict holds only the cached ``values``.
    """

    def __setattr__(self, name, value):
        raise AttributeError("FinSeq is immutable")

    @staticmethod
    def make(p: int, offset: int, values) -> "FinSeq":
        """values[i] is the vector at index offset + i."""
        vals = list(values)
        if any(len(v) != p for v in vals):
            raise ValueError("vector dimension mismatch")
        return FinSeq(tuple(LaurentPoly.from_coeffs(offset, [v[r] for v in vals])
                            for r in range(p)))

    @staticmethod
    def delta(p: int, component: int = 1) -> "FinSeq":
        """Unit impulse at index 0 in the given 1-based component."""
        if not 1 <= component <= p:
            raise ValueError("component out of range")
        return FinSeq.make(p, 0, [[int(r == component - 1) for r in range(p)]])

    @property
    def p(self) -> int:
        return len(self.comps)

    def is_zero(self) -> bool:
        return self.support is None

    @property
    def support(self) -> tuple[int, int] | None:
        return joint_support(self.comps)

    @property
    def offset(self) -> int:
        s = self.support
        return 0 if s is None else s[0]

    def at(self, i: int) -> tuple[Fraction, ...]:
        return tuple(f.coeff(i) for f in self.comps)

    @cached_property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vectors from the first to the last nonzero one."""
        s = self.support
        return () if s is None else tuple(map(self.at, range(s[0], s[1] + 1)))

    def scale(self, c) -> "FinSeq":
        return FinSeq(tuple(f.scale(c) for f in self.comps), self.n)

    def __add__(self, other: "FinSeq") -> "FinSeq":
        if self.p != other.p:
            raise ValueError("dimension mismatch")
        return FinSeq(tuple(map(LaurentPoly.__add__, self.comps, other.comps)), self.n)

    def _columns(self) -> list[tuple[str, list[int] | range, int]]:
        """For t = i / 2**n, then per component: its name, its numerators on
        the whole support and its denominator."""
        lo, hi = self.support
        cols = [("t", range(lo, hi + 1), 2 ** self.n)]
        for r, f in enumerate(self.comps):
            nums = ([0] * (f.lo - lo) + list(f.nums) + [0] * (hi + 1 - f.lo - len(f.nums))
                    if f.nums else [0] * (hi - lo + 1))
            cols.append((f"component c{r + 1}", nums, f.den))
        return cols

    def _float_columns(self) -> list[list[float]]:
        """t, then the p values as floats: x / den, the correctly rounded
        value.  A value beyond the float range is a SubsmoothError."""
        cols = []
        for name, nums, den in self._columns():
            top = den * _FLOAT_OVERFLOW
            ends = (nums[0], nums[-1]) if type(nums) is range else nums
            if max(ends) >= top or -min(ends) >= top:
                i = next(i for i, x in enumerate(nums) if abs(x) >= top)
                raise SubsmoothError(f"{name} at index {self.offset + i} is beyond "
                                     "the float range; render it with --exact")
            cols.append(list(map(den.__rtruediv__, nums)))
        return cols

    @property
    def rows(self) -> list[tuple[float, tuple[float, ...]]]:
        if self.is_zero():
            return []
        ts, *cols = self._float_columns()
        return list(zip(ts, zip(*cols)))

    def to_csv(self, exact: bool = False) -> str:
        """One row per index: t, then the p values, as floats with 17
        significant digits or, with exact, as p/q strings (str(Fraction))."""
        head = "t," + ",".join(f"c{r + 1}" for r in range(self.p)) + "\n"
        if self.is_zero():
            return head
        lo, hi = self.support
        if exact:  # x/d cells, then x for x/1 as in str(Fraction): no numerator holds a /
            cols = [c for col in self._columns() for c in _lowest_terms(*col, lo)]
            row = ",".join(["%d/%d"] * (self.p + 1))
        else:  # %.14g prints each t as %.17g does when every |i| * 5**n < 10**14
            short = 0 <= self.n <= 20 and max(-lo, hi) * 5 ** self.n < 10 ** 14
            row = ",".join(["%.14g" if short else "%.17g"] + ["%.17g"] * self.p)
            cols = self._float_columns()
        text = ((row + "\n") * (hi - lo + 1)) % tuple(chain.from_iterable(zip(*cols)))
        return head + (text.replace("/1,", ",").replace("/1\n", "\n") if exact else text)


# render returns the sequence it refined, sampled at its level
LimitSample = FinSeq

# x / den overflows exactly when |x| >= den * this: the values from here on
# round to 2**1024
_FLOAT_OVERFLOW = (2 ** 54 - 1) << 970


def _unprintable(n: int) -> str | None:
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


def _lowest_terms(name: str, nums: list[int] | range, den: int, lo: int) -> tuple[list, list]:
    """The numerator and denominator of Fraction(x, den) for each x, from the
    gcd of x and den, without building Fractions.  A value str() would refuse
    is a SubsmoothError naming the column and the index, lo that of nums[0]."""
    gs = list(map(gcd, nums, repeat(den)))
    ns = list(map(floordiv, nums, gs))
    ds = list(map(den.__floordiv__, gs))
    top = max(max(ns), -min(ns), max(ds))
    why = _unprintable(top)
    if why:
        big = list(map(max, map(abs, ns), ds))
        raise SubsmoothError(f"{name} at index {lo + big.index(top)} has {why}")
    return ns, ds


def apply(mask: Mask, c: FinSeq) -> FinSeq:
    """One subdivision step (S c)_i = sum_j A_{i-2j} c_j, i.e. A(z) c(z**2)."""
    if mask.p != c.p:
        raise ValueError(f"mask dimension {mask.p} != data dimension {c.p}")
    return FinSeq(mask.symbol.mul_vector(c.comps, 2), c.n)


def iterated_symbol(mask: Mask, L: int, *, _prev: SymbolMatrix | None = None) -> SymbolMatrix:
    """Symbol of the L-fold operator: A(z) A(z**2) ... A(z**(2**(L-1))).

    ``_prev`` is internal to the contractivity search, which passes the
    symbol it just built for L - 1 so that the result is the one product
    _prev(z) * A(z**(2**(L-1))); it is trusted, not checked.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    out, start = mask.symbol, 1
    if _prev is not None and L > 1:
        out, start = _prev, L - 1
    for k in range(start, L):
        out = out.mul_dilated(mask.symbol, 2 ** k)
    return out


# -- certificates -----------------------------------------------------------------

class Certificate(namedtuple("Certificate", "L norm_value ks support ell phi",
                             defaults=(None, None))):
    """Witness that descents of eigenspace dimensions ks (the last one for the
    final canonical transform) reach a derived scheme of this support with
    |(1/2 S)^L| = norm_value < 1; ell is None for C0, phi set for Hermite."""

    __slots__ = ()

    def __str__(self) -> str:
        head = "C0 certificate" if self.ell is None else f"chain certificate (ell={self.ell})"
        pre = () if self.phi is None else (f"spectral condition holds with phi={self.phi}",
                                          "taylor scheme eigenspace is span{e2}")
        return "\n  - ".join((f"{head}: |(1/2 S)^{self.L}| = {self.norm_value} < 1", *pre,
                              *(f"descent {r}: derived scheme with k={k}"
                                for r, k in enumerate(self.ks[:-1], 1)),
                              f"canonical transform with k={self.ks[-1]}",
                              f"derived scheme support {self.support}",
                              f"contractive at L={self.L} with norm {self.norm_value}"))


class Refusal(namedtuple("Refusal", "stage reason norms", defaults=((),))):
    """Inconclusive outcome; carries the stage that stopped the search, why,
    and any exact norms that were computed."""

    __slots__ = ()

    def __str__(self) -> str:
        lines = [f"inconclusive at stage '{self.stage}': {self.reason}"]
        if self.norms:
            lines.append("  norms per power: " +
                         ", ".join(str(n) for n in self.norms))
        return "\n".join(lines)


def _contractive_power(mask: Mask, lmax: int):
    """Smallest L with |(1/2 S)^L| < 1, that exact norm and the norms found;
    without one, None, why the search stopped (lmax, MAX_SYMBOL_TERMS, the
    work budget or the digit limit of integer strings) and the norms found."""
    norms = []
    symbol = None
    lo, hi = mask.support
    for L in range(1, lmax + 1):
        width = (2 ** L - 1) * (hi - lo) + 1
        if width > MAX_SYMBOL_TERMS:
            return None, (f"the iterated symbol at L={L} would be {width} terms "
                          f"wide, over the budget of {MAX_SYMBOL_TERMS}"), norms
        try:
            symbol = iterated_symbol(mask, L, _prev=symbol)
        except WorkBudgetError as exc:
            return None, f"the iterated symbol at L={L} {exc.cost}", norms
        norm = stencil_norm(symbol, 2 ** L) * Fraction(1, 2 ** L)
        why = _unprintable(max(abs(norm.numerator), norm.denominator))
        if why:
            return None, f"the norm at L={L} would print {why}", norms
        norms.append(norm)
        if norm < 1:
            return L, norm, norms
    return None, f"no power up to {lmax} is contractive", norms


def certify_vector(mask: Mask, ell: int, lmax: int = DEFAULT_LMAX):
    """Certificate that a scalar/vector scheme is C^ell: descend ell + 1
    derived schemes (fresh canonical transform each round, each descent one
    intertwine in that basis), then search
    L <= lmax for an exact norm |(1/2 S)^L| < 1 of the last one.  A derived
    scheme without a canonical transform ends the search as a refusal; the
    input without one is an EigenspaceError."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    ks = []
    current = mask
    for r in range(1, ell + 2):
        try:
            es = canonical_transform(current)
            current = derived(current, es.k, es)
        except (EigenspaceError, WorkBudgetError) as exc:
            if r == 1 and isinstance(exc, EigenspaceError):  # the input's own
                raise
            return Refusal(stage=f"descent {r}", reason=str(exc))
        ks.append(es.k)
    L, norm, norms = _contractive_power(current, lmax)
    if L is None:
        stage = f"contractivity after {ell} descents" if ell else "contractivity"
        return Refusal(stage=stage, reason=norm, norms=tuple(norms))
    return Certificate(L, norm, tuple(ks), current.support, ell or None)


def certify_hermite(mask: Mask, ell: int, lmax: int = DEFAULT_LMAX):
    """Certificate chain that a Hermite scheme is HC^ell.

    Verifies the spectral condition, computes the Taylor scheme, checks its
    eigenspace is span{e2} (the vanishing-first-component hypothesis), then
    certifies the Taylor scheme is C^(ell-1) by ell-1 derived-scheme
    descents ending in a contractivity search.  A vector mask that meets the
    spectral condition is a ValueError: it has no phi.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1 for Hermite certificates")
    rep = check_spectral(mask)
    if not rep.holds:
        return Refusal(stage="spectral condition",
                       reason=f"violated conditions {list(rep.violated)}")
    if mask.kind is not Kind.HERMITE:
        raise ValueError("Hermite certificates apply to Hermite masks")
    tay = taylor_scheme(mask)
    if common_one_eigenspace(tay) != [E2]:
        return Refusal(stage="taylor eigenspace",
                       reason="common 1-eigenspace of the Taylor scheme "
                              "is not span{e2}")
    res = certify_vector(tay, ell - 1, lmax)
    return res if isinstance(res, Refusal) else res._replace(ell=ell, phi=mask.phi)


# -- limit rendering -----------------------------------------------------------------

def render(mask: Mask, n: int, component: int = 1) -> LimitSample:
    """n exact refinement steps from a unit impulse in the given component.

    Hermite data is re-normalized by diag(1, 2**n) afterwards so both
    channels approximate the limit function and its derivative on the grid
    i / 2**n.  Conversion to floats happens only in the CSV/rows views.
    A step over the work budget is a SubsmoothError naming it.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    c = FinSeq.delta(mask.p, component)
    for step in range(1, n + 1):
        try:
            c = apply(mask, c)
        except WorkBudgetError as exc:
            raise SubsmoothError(f"--depth {n}: refinement step {step} {exc.cost}") from None
    comps = c.comps
    if mask.kind is Kind.HERMITE:
        comps = (comps[0], comps[1].scale(2 ** n))
    return FinSeq(comps, n)
