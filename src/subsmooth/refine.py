"""Applying schemes to data, contractivity certificates, limit rendering.

Everything before the final float conversion is exact rational: applying a
mask to a finitely supported sequence, difference operators, iterated
symbols and operator norms.  Contractivity certificates are therefore
machine-checkable witnesses, not numerical estimates: a granted
certificate states an exact operator norm < 1.

A refusal is always inconclusive.  The norm criterion is sufficient for
convergence, not necessary, so failing to find a contractive power proves
nothing about the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .laurent import (TAYLOR_OPERATOR, LaurentPoly, SymbolMatrix,
                      difference_operator, joint_support)
from .masks import Kind, Mask, canonical_transform, conjugate, stencil_norm
from .vector_smoothing import derived
from .hermite_smoothing import _eigenspace_is_e2, check_spectral, taylor_scheme

DEFAULT_LMAX = 12

# Work ceilings the CLI checks before it starts: the iterated symbol at power
# L is (2**L - 1) * (hi - lo) + 1 terms wide, a render at depth n has about
# 2**n * (hi - lo + 1) rows, and every smoothing round widens the support.
# The contractivity search checks the width of each power before building it,
# and the work of its product: p**3 products of that width times the 64-bit
# words of the previous power's and the mask's largest numerators.  The
# costliest power of a catalog search up to MAX_LMAX (derham --ell 3, L = 16)
# is 3,669,968; one near the bound takes about 0.8 s on a 2-core x86 host.
MAX_LMAX = 16
MAX_SYMBOL_TERMS = 2 ** 20
MAX_SYMBOL_WORK = 4 * 10 ** 6
MAX_RENDER_ROWS = 2 ** 17
MAX_ROUNDS = 64


@dataclass(frozen=True)
class FinSeq:
    """Finitely supported sequence of p-vectors, stored as its generating
    function: ``comps[r]`` is sum_i c_i[r] z**i, so equality is semantic.

    ``n`` is the grid level of a sampled limit function: the CSV and rows
    views put index i at t = i / 2**n, floats only there.  render sets it;
    every other operation keeps the level of its sequence operand.
    """

    comps: tuple[LaurentPoly, ...]
    n: int = 0

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

    @property
    def rows(self) -> list[tuple[float, tuple[float, ...]]]:
        s = self.support
        if s is None:
            return []
        lo, hi = s
        cols = []
        for f in self.comps:  # x / den is the correctly rounded float
            nums = (0,) * (f.lo - lo) + f.nums if f.nums else ()
            cols.append([x / f.den for x in nums] + [0.0] * (hi - lo + 1 - len(nums)))
        scale = 2 ** self.n
        return [((lo + i) / scale, v) for i, v in enumerate(zip(*cols))]

    def to_csv(self, exact: bool = False) -> str:
        """One row per index: t, then the p values, as floats with 17
        significant digits or, with exact, as p/q strings."""
        lines = ["t," + ",".join(f"c{r + 1}" for r in range(self.p))]
        if exact:
            scale = 2 ** self.n
            for i, v in enumerate(self.values, self.offset):
                lines.append(",".join(map(str, (Fraction(i, scale), *v))))
        else:
            for t, v in self.rows:
                lines.append(",".join(f"{x:.17g}" for x in (t, *v)))
        return "\n".join(lines) + "\n"


# render returns the sequence it refined, sampled at its level
LimitSample = FinSeq


def apply(mask: Mask, c: FinSeq) -> FinSeq:
    """One subdivision step (S c)_i = sum_j A_{i-2j} c_j, i.e. A(z) c(z**2)."""
    if mask.p != c.p:
        raise ValueError(f"mask dimension {mask.p} != data dimension {c.p}")
    return FinSeq(mask.symbol.mul_vector([f.dilate() for f in c.comps]), c.n)


def full_support_window(mask: Mask, c: FinSeq) -> tuple[int, int] | None:
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


def difference(c: FinSeq, k: int) -> FinSeq:
    """Forward difference on the first k components, identity on the rest."""
    return FinSeq(difference_operator(c.p, k).mul_vector(c.comps), c.n)


def taylor_diff(c: FinSeq) -> FinSeq:
    """Taylor operator on pairs: (Tc)_i = (c1_{i+1} - c1_i - c2_i, c2_i)."""
    if c.p != 2:
        raise ValueError("Taylor operator applies to 2-vector data")
    return FinSeq(TAYLOR_OPERATOR.mul_vector(c.comps), c.n)


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
        out = out * mask.symbol.dilate(2 ** k)
    return out


# -- certificates -----------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Witness that a scheme converges (kind "C0") or that a smoothness
    chain down to a contractive stage exists (kind "chain")."""

    kind: str
    L: int
    norm_value: Fraction
    steps: tuple[str, ...]
    ell: int | None = None

    def __str__(self) -> str:
        head = "C0 certificate" if self.kind == "C0" else f"chain certificate (ell={self.ell})"
        lines = [f"{head}: |(1/2 S)^{self.L}| = {self.norm_value} < 1"]
        lines += [f"  - {s}" for s in self.steps]
        return "\n".join(lines)


@dataclass(frozen=True)
class Refusal:
    """Inconclusive outcome; carries the stage that stopped the search and
    any exact norms that were computed."""

    stage: str
    reason: str
    norms: tuple[Fraction, ...] = ()

    def __str__(self) -> str:
        lines = [f"inconclusive at stage '{self.stage}': {self.reason}"]
        if self.norms:
            lines.append("  norms per power: " +
                         ", ".join(str(n) for n in self.norms))
        return "\n".join(lines)


def _symbol_width(mask: Mask, L: int) -> int:
    """Terms in each entry's span of the iterated symbol at power L."""
    lo, hi = mask.support
    return (2 ** L - 1) * (hi - lo) + 1


def _words(symbol: SymbolMatrix) -> int:
    """64-bit words of the largest integer numerator of the symbol."""
    return max(max(max(e.nums), -min(e.nums)).bit_length()
               for row in symbol.entries for e in row if e.nums) // 64 + 1


def _contractive_power(mask: Mask, lmax: int):
    """Smallest L with |(1/2 S)^L| < 1, that exact norm and the norms found;
    without one, None, why the search stopped (at lmax or before a power
    over MAX_SYMBOL_TERMS or MAX_SYMBOL_WORK) and the norms found."""
    norms = []
    symbol = None
    words, mask_words = 1, _words(mask.symbol)
    for L in range(1, lmax + 1):
        width = _symbol_width(mask, L)
        if width > MAX_SYMBOL_TERMS:
            return None, (f"the iterated symbol at L={L} would be {width} terms "
                          f"wide, over the budget of {MAX_SYMBOL_TERMS}"), norms
        work = mask.p ** 3 * width * words * mask_words
        if work > MAX_SYMBOL_WORK:
            return None, (f"the iterated symbol at L={L} would cost {work} word "
                          f"products, over the budget of {MAX_SYMBOL_WORK}"), norms
        symbol = iterated_symbol(mask, L, _prev=symbol)
        words = _words(symbol)
        norm = stencil_norm(symbol, 2 ** L) * Fraction(1, 2 ** L)
        norms.append(norm)
        if norm < 1:
            return L, norm, norms
    return None, f"no power up to {lmax} is contractive", norms


def certify_c0(mask: Mask, lmax: int = DEFAULT_LMAX):
    """Convergence certificate by contractivity of the halved derived scheme.

    Conjugates the mask canonically, takes the derived scheme there, and
    searches L <= lmax for an exact norm |(1/2 S)^L| < 1.  Returns a
    Certificate or an (inconclusive) Refusal.  Raises for masks without a
    usable eigenspace or violating the derived-scheme conditions.
    """
    return certify_vector(mask, 0, lmax)


def certify_vector(mask: Mask, ell: int, lmax: int = DEFAULT_LMAX):
    """Certificate that a scalar/vector scheme is C^ell: descend ell + 1
    derived schemes (fresh canonical transform each round), then search
    L <= lmax for an exact norm |(1/2 S)^L| < 1 of the last one."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    steps: list[str] = []
    current = mask
    for r in range(1, ell + 2):
        es = canonical_transform(current)
        current = derived(conjugate(current, es.r, r_inv=es.r_inv), es.k)
        steps.append(f"descent {r}: derived scheme with k={es.k}" if r <= ell
                     else f"canonical transform with k={es.k}")
    steps.append(f"derived scheme support {current.support}")
    L, norm, norms = _contractive_power(current, lmax)
    if L is None:
        stage = f"contractivity after {ell} descents" if ell else "contractivity"
        return Refusal(stage=stage, reason=norm, norms=tuple(norms))
    steps.append(f"contractive at L={L} with norm {norm}")
    return Certificate(kind="chain" if ell else "C0", L=L, norm_value=norm,
                       steps=tuple(steps), ell=ell or None)


def certify_hermite(mask: Mask, ell: int, lmax: int = DEFAULT_LMAX):
    """Certificate chain that a Hermite scheme is HC^ell.

    Verifies the spectral condition, computes the Taylor scheme, checks its
    eigenspace is span{e2} (the vanishing-first-component hypothesis), then
    certifies the Taylor scheme is C^(ell-1) by ell-1 derived-scheme
    descents ending in a contractivity search.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1 for Hermite certificates")
    rep = check_spectral(mask)
    if not rep.holds:
        return Refusal(stage="spectral condition",
                       reason=f"violated conditions {list(rep.violated)}")
    tay = taylor_scheme(mask)
    if not _eigenspace_is_e2(tay):
        return Refusal(stage="taylor eigenspace",
                       reason="common 1-eigenspace of the Taylor scheme "
                              "is not span{e2}")
    res = certify_vector(tay, ell - 1, lmax)
    pre = (f"spectral condition holds with phi={rep.phi}",
           "taylor scheme eigenspace is span{e2}")
    if isinstance(res, Refusal):
        return res
    return Certificate(kind="chain", L=res.L, norm_value=res.norm_value,
                       steps=pre + res.steps, ell=ell)


# -- limit rendering -----------------------------------------------------------------

def render(mask: Mask, n: int, component: int = 1) -> LimitSample:
    """n exact refinement steps from a unit impulse in the given component.

    Hermite data is re-normalized by diag(1, 2**n) afterwards so both
    channels approximate the limit function and its derivative on the grid
    i / 2**n.  Conversion to floats happens only in the CSV/rows views.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    c = FinSeq.delta(mask.p, component)
    for _ in range(n):
        c = apply(mask, c)
    comps = c.comps
    if mask.kind is Kind.HERMITE:
        comps = (comps[0], comps[1].scale(2 ** n))
    return FinSeq(comps, n)
