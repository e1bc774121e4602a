"""Seeded random generators for masks and sequences, plus small exact
polynomial helpers used as independent oracles.

Masks with prescribed symbol values at z = 1 and z = -1 are built by
adding an affine correction a + b*z to a random Laurent polynomial, which
hits the two target values exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from subsmooth import (FinSeq, Kind, LaurentPoly, Mask, RatMatrix, SymbolMatrix,
                       catalog, common_one_eigenspace, conjugate, hermite_mask,
                       inverse_taylor, invert, smooth_hermite, smooth_vector,
                       taylor_scheme, vector_mask)

from tests.long_den import long_denominator_doc  # noqa: F401  (re-exported)
from tests.masks_oracle import hstack, rank


def rand_fraction(rng: random.Random, num: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_laurent(rng: random.Random, lo: int = -2, hi: int = 2) -> LaurentPoly:
    return LaurentPoly({e: rand_fraction(rng) for e in range(lo, hi + 1)})


def with_values(f: LaurentPoly, at1, atm1) -> LaurentPoly:
    """f plus an affine correction so the result takes the given values at
    z = 1 and z = -1."""
    u = Fraction(at1) - f.evaluate(1)
    v = Fraction(atm1) - f.evaluate(-1)
    a = (u + v) / 2
    b = (u - v) / 2
    return f + LaurentPoly({0: a, 1: b})


def rand_seq(rng: random.Random, p: int, length: int = 5) -> FinSeq:
    offset = rng.randint(-3, 3)
    vals = [[rand_fraction(rng) for _ in range(p)] for _ in range(length)]
    return FinSeq.make(p, offset, vals)


def rand_unimodular(rng: random.Random, n: int) -> RatMatrix:
    """Random integer matrix with determinant +-1 (product of shears)."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return RatMatrix.from_rows(rows)


def _sym(entries) -> SymbolMatrix:
    return SymbolMatrix(tuple(tuple(row) for row in entries))


def rand_derivable_mask(rng: random.Random, p: int, k: int) -> Mask:
    """Random vector mask admitting the derived scheme for this k:
    leading k x k block vanishes at -1, lower-left block at both +-1."""
    entries = [[None] * p for _ in range(p)]
    for i in range(p):
        for j in range(p):
            f = rand_laurent(rng)
            if i < k and j < k:
                f = with_values(f, f.evaluate(1), 0)
            elif i >= k and j < k:
                f = with_values(f, 0, 0)
            entries[i][j] = f
    return vector_mask(_sym(entries))


def rand_smoothable_mask(rng: random.Random, p: int, k: int) -> Mask:
    """Random vector mask admitting blockwise smoothing for this k:
    upper-right block vanishes at 1."""
    entries = [[None] * p for _ in range(p)]
    for i in range(p):
        for j in range(p):
            f = rand_laurent(rng)
            if i < k and j >= k:
                f = with_values(f, 0, f.evaluate(-1))
            entries[i][j] = f
    return vector_mask(_sym(entries))


def with_eigenspace(mask: Mask, k: int) -> Mask:
    """mask with each entry of its first k columns corrected to 2 on the
    diagonal, else 0, at z = 1 and to 0 at z = -1, so that e_1..e_k lie in
    its common 1-eigenspace.  A mask of rand_derivable_mask or
    rand_smoothable_mask for this k keeps its own conditions."""
    s = mask.symbol
    return vector_mask(_sym([[with_values(s[i, j], 2 * (i == j), 0) if j < k else s[i, j]
                              for j in range(mask.p)] for i in range(mask.p)]))


def rand_taylor_mask(rng: random.Random) -> Mask:
    """Random 2x2 mask satisfying the Taylor conditions."""
    b11 = rand_laurent(rng)
    b12 = with_values(rand_laurent(rng), 0, 0)
    b21 = with_values(rand_laurent(rng), 2 - b11.evaluate(1), rand_fraction(rng))
    b22 = with_values(rand_laurent(rng), 2, 0)
    return vector_mask(_sym([[b11, b12], [b21, b22]]))


def rand_spectral_mask(rng: random.Random, zeta_one: bool = False,
                       laurent=rand_laurent) -> Mask:
    """Random Hermite mask satisfying the spectral condition, each entry
    laurent(rng) plus an affine correction.

    With zeta_one the coupling entry vanishes at 1 (the smoothing round
    then has zeta = 1); otherwise its value there is a random nonzero
    rational.
    """
    a11 = with_values(laurent(rng), 2, 0)
    a21 = with_values(laurent(rng), 0, 0)
    a22 = with_values(laurent(rng),
                      (a21.derivative_at(1) + 2) / 2,
                      -a21.derivative_at(-1) / 2)
    coupling_at_1 = Fraction(0) if zeta_one else \
        Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([-1, 1])
    a12 = with_values(laurent(rng), coupling_at_1,
                      -a11.derivative_at(-1) / 2)
    return hermite_mask(_sym([[a11, a12], [a21, a22]]))


def rand_smoothing_ready_spectral(rng: random.Random,
                                  zeta_one: bool = False, laurent=rand_laurent) -> Mask:
    """Random spectral mask on which the Hermite smoothing round is
    well-defined (a22(1) != 2 and the Taylor scheme has eigenspace
    span{e2}); regenerates until both hold."""
    while True:
        m = rand_spectral_mask(rng, zeta_one=zeta_one, laurent=laurent)
        if m.symbol[1, 1].evaluate(1) == 2:
            continue
        basis = common_one_eigenspace(taylor_scheme(m))
        if len(basis) == 1 and basis[0][0, 0] == 0:
            return m


def long_spectral_mask(seed: int, bits: int, terms: int) -> Mask:
    """A seeded smoothing-ready spectral mask whose entries, before their
    affine corrections, have `terms` coefficients of `bits`-bit numerators
    over independent `bits`-bit denominators, so that the entries' common
    denominators and zeta run to thousands of bits."""
    def rand_bits(rng):
        return rng.getrandbits(bits - 1) | 1 << bits - 1

    def laurent(rng):
        lo = -(terms // 2)
        return LaurentPoly({e: Fraction(rng.choice((-1, 1)) * rand_bits(rng), rand_bits(rng))
                            for e in range(lo, lo + terms)})
    return rand_smoothing_ready_spectral(random.Random(f"long/{seed}/{bits}/{terms}"),
                                         laurent=laurent)


def rand_convergent_style_mask(rng: random.Random, p: int, k: int) -> Mask:
    """Random vector mask whose common 1-eigenspace has dimension k and
    whose even/odd mean matrix is non-defective at the eigenvalue 1, so a
    canonical transform exists.

    Built in normalized coordinates (first k columns fixed to the leading
    eigenvectors, trailing block kept away from the eigenvalue 2 at z = 1)
    and conjugated by a random unimodular matrix.
    """
    while True:
        entries = [[None] * p for _ in range(p)]
        for i in range(p):
            for j in range(p):
                f = rand_laurent(rng)
                if j < k:
                    f = with_values(f, 2 if i == j else 0, 0)
                entries[i][j] = f
        sym = _sym(entries)
        if p > k:
            trailing = RatMatrix.from_rows(
                [[sym[i, j].evaluate(1) - (2 if i == j else 0)
                  for j in range(k, p)] for i in range(k, p)])
            if rank(trailing) != p - k:
                continue  # trailing block has eigenvalue 2 at z=1; retry
        barred = vector_mask(sym)
        r = rand_unimodular(rng, p)
        return conjugate(barred, invert(r))


def not_in_tilde_mask() -> Mask:
    """A Hermite mask with the spectral condition whose Taylor scheme,
    diag(1 + z, 1 + z), has the whole plane as its 1-eigenspace."""
    f = LaurentPoly({0: 1, 1: 1})
    zero = LaurentPoly()
    return inverse_taylor(vector_mask(_sym([[f, zero], [zero, f]])))


# -- masks that certify ------------------------------------------------------------
#
# The smoothing round carries regularity from its input to its output, so
# these masks are granted by construction; a test that draws from them sees
# certificates, not only refusals.

_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@lru_cache(maxsize=None)
def smoothed(name: str, rounds: int) -> Mask:
    """The catalog mask name after the given number of smoothing rounds."""
    mask = catalog.get(name)
    for _ in range(rounds):
        mask = smooth_hermite(mask) if mask.kind is Kind.HERMITE else smooth_vector(mask)
    return mask


@st.composite
def granted_vector_masks(draw):
    """(mask, ell) that certify_vector grants at lmax 12: double-knot (C^1)
    or its smoothed mask (C^2), conjugated by a random invertible rational
    2x2 matrix, with ell up to that order.  The norm is an infinity norm, so
    L and norm_value depend on the basis."""
    rounds = draw(st.integers(0, 1))
    a, b, c, d = draw(st.lists(_fractions, min_size=4, max_size=4)
                      .filter(lambda e: e[0] * e[3] != e[1] * e[2]))
    r = RatMatrix.from_rows([[a, b], [c, d]])
    return conjugate(smoothed("double-knot", rounds), r), draw(st.integers(0, 1 + rounds))


@st.composite
def granted_hermite_masks(draw):
    """(mask, ell) that certify_hermite grants at lmax 8: merrien (HC^1) or
    derham (HC^2) smoothed 1-4 times, each round adding one order, with ell
    from 1 up to the order reached."""
    name, order = draw(st.sampled_from((("merrien", 1), ("derham", 2))))
    rounds = draw(st.integers(1, 4))
    return smoothed(name, rounds), draw(st.integers(1, order + rounds))


# -- symbol-level intertwining identities ---------------------------------------

def delta_symbol(p: int, k: int) -> SymbolMatrix:
    """Symbol of the partial forward difference: diag((1/z - 1) I_k, I_{p-k})."""
    d = LaurentPoly({-1: 1, 0: -1})
    one = LaurentPoly({0: 1})
    zero = LaurentPoly({})
    rows = [[(d if i < k else one) if i == j else zero for j in range(p)]
            for i in range(p)]
    return SymbolMatrix(tuple(tuple(r) for r in rows))


def taylor_symbol() -> SymbolMatrix:
    """Symbol of the Taylor operator: [[1/z - 1, -1], [0, 1]]."""
    return SymbolMatrix((
        (LaurentPoly({-1: 1, 0: -1}), LaurentPoly({0: -1})),
        (LaurentPoly({}), LaurentPoly({0: 1})),
    ))


def scaled(s: SymbolMatrix, c) -> SymbolMatrix:
    """c * s, entry by entry."""
    return SymbolMatrix([[e.scale(c) for e in row] for row in s.entries])


def intertwines_difference(a: Mask, b: Mask, k: int) -> bool:
    """Exact symbol form of: Delta_k S_a = 1/2 S_b Delta_k."""
    d = delta_symbol(a.p, k)
    return d * a.symbol == scaled(b.symbol.mul_dilated(d, 2), Fraction(1, 2))


def intertwines_taylor(a: Mask, b: Mask) -> bool:
    """Exact symbol form of: T S_a = 1/2 S_b T."""
    t = taylor_symbol()
    return t * a.symbol == scaled(b.symbol.mul_dilated(t, 2), Fraction(1, 2))


def span_equal(va: list[RatMatrix], vb: list[RatMatrix]) -> bool:
    """Exact equality of the spans of two lists of column vectors."""
    if len(va) != len(vb):
        return False
    if not va:
        return True
    return rank(hstack(*va, *vb)) == len(va)


def norm_via_repeated_apply(mask: Mask, L: int) -> Fraction:
    """Independent recomputation of |(1/2 S)^L|: extract the iterated stencil
    by applying the operator L times to unit impulses, then take the max row
    sum per residue class mod 2**L.  Uses none of the symbol machinery: the
    refinement is the entry loop of tests/refine_oracle.py."""
    from tests.refine_oracle import apply
    p = mask.p
    cols = []
    for t in range(1, p + 1):
        c = FinSeq.delta(p, t)
        for _ in range(L):
            c = apply(mask, c)
        cols.append(c)
    arity = 2 ** L
    lo = min(c.support[0] for c in cols if not c.is_zero())
    hi = max(c.support[1] for c in cols if not c.is_zero())
    best = Fraction(0)
    for eps in range(arity):
        rowsums = [Fraction(0)] * p
        for i in range(lo, hi + 1):
            if (i - eps) % arity != 0:
                continue
            for r in range(p):
                rowsums[r] += sum(abs(cols[t].at(i)[r]) for t in range(p))
        best = max(best, max(rowsums))
    return best * Fraction(1, arity)


# -- exact polynomial helpers (independent of the package's Laurent type) ------

def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_scale(a: list[Fraction], c: Fraction) -> list[Fraction]:
    return [c * x for x in a]


def poly_trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def char_poly(m: RatMatrix) -> list[Fraction]:
    """Coefficients of det(m - x*I) in x, via Leibniz expansion.

    Quadratic cost in permutations; fine for the small p used in tests and
    entirely independent of the package's polynomial code.
    """
    import itertools
    n = m.rows
    acc = [Fraction(0)]
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):  # parity via cycle decomposition
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = [Fraction(sign)]
        for i in range(n):
            entry = [m[i, perm[i]]]
            if perm[i] == i:
                entry = [m[i, i], Fraction(-1)]
            term = poly_mul(term, entry)
        if len(term) > len(acc):
            acc += [Fraction(0)] * (len(term) - len(acc))
        for i, x in enumerate(term):
            acc[i] += x
    return poly_trim(acc)
