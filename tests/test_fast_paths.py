"""The product kernel and the column CSV writer against slow references:
the dict-of-Fraction product with the explicitly dilated operand of
tests/laurent_oracle.py, the kernel's schoolbook loop for its packed
strategy, and the row-by-row Fraction writer of tests/refine_oracle.py with
its refusals of values that floats or integer strings cannot hold."""

import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsmooth import FinSeq, LaurentPoly, SubsmoothError, SymbolMatrix, laurent, refine
from subsmooth.laurent import _products, _raw

from tests import laurent_oracle
from tests import refine_oracle as oracle
from tests.test_kernel import assert_normalized

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

# zeros at the ends and inside, signs, one-word and multi-word integers
coefficients = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 130, 2 ** 130))
# mostly zeros, so that either operand of a pair can be the sparser one
sparse = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-2 ** 70, 2 ** 70))


@st.composite
def operands(draw):
    """The zero polynomial, or numerators over a denominator as the kernel
    may meet them: zeros inside and at the ends, not reduced, one term."""
    nums = draw(st.lists(coefficients | sparse, max_size=12))
    if not nums:
        return LaurentPoly()
    den = draw(st.sampled_from([1, 2, 3, 6, 2 ** 64, 3 ** 45]))
    return _raw(draw(st.integers(-6, 6)), tuple(nums), den)


def poly(lo, nums, den=1):
    return _raw(lo, tuple(nums), den)


def dilated_product_sum(pairs, step):
    """sum f * g(z**step) in dict-of-Fraction arithmetic, g dilated first."""
    out = {}
    for f, g in pairs:
        out = laurent_oracle.add(out, laurent_oracle.mul(
            laurent_oracle.to_dict(f),
            laurent_oracle.dilate(laurent_oracle.to_dict(g), step)))
    return out


@SETTINGS
@given(st.lists(st.tuples(operands(), operands()), min_size=1, max_size=3),
       st.sampled_from([1, 2, 3, 512]))
@example([(poly(0, [5]), poly(0, [-7]))], 3)
@example([(poly(0, [0, 3, 0]), poly(-1, [0, 0, -1, 0]))], 2)
# the sparse operand on the left, then on the right, then one of each
@example([(poly(-3, [1, 0, 0, 0, 0, 0, -2], 3), poly(2, [4, -5, 6, 2 ** 90], 2))], 512)
@example([(poly(1, [4, -5, 6, -2 ** 90], 2), poly(0, [0, 1, 0, 0, 0, -1], 3))], 2)
@example([(poly(0, [1, 0, 0, 1]), poly(0, [1, 2, 3], 6)),
          (poly(2, [1, 2, 3], 6), poly(0, [0, 0, 0, 7]))], 3)
def test_kernel_is_sum_of_products_with_dilated_operand(pairs, step):
    # LaurentPoly(dict) normalizes on its own, so equality also checks that
    # the kernel's result is normalized
    assert _products(pairs, step) == LaurentPoly(dilated_product_sum(pairs, step))


@SETTINGS
@given(st.lists(st.tuples(operands(), operands(), st.one_of(st.integers(-3, 3),
                                                             st.integers(-2 ** 70, 2 ** 70))),
                min_size=1, max_size=4),
       st.sampled_from([1, 2, 512]))
@example([(poly(0, [1]), poly(-1, [1, 2], 3), 0)], 1)
@example([(poly(0, [1], 6), poly(-1, [1, 2], 3), -4), (poly(1, [1, 0, 5]), poly(0, [1]), 9)], 1)
def test_kernel_weighs_each_pair_by_its_integer_factor(triples, step):
    pairs = [(f, g) for f, g, _ in triples]
    expected = {}
    for f, g, m in triples:
        expected = laurent_oracle.add(expected, laurent_oracle.mul(
            {0: Fraction(m)}, dilated_product_sum([(f, g)], step)))
    assert _products(pairs, step, [m for _, _, m in triples]) == LaurentPoly(expected)


denominators = st.one_of(st.sampled_from([1, 2, 3, 64, 2 ** 40, 3 ** 30]),
                         st.integers(1, 10 ** 20))


@st.composite
def sampled_sequences(draw):
    """Sequences at grid level n = 0..20 whose components have their own
    supports and denominators, the supports near 0 or together far from it,
    so that t is printed with 14 digits and with 17; for p = 2 the second
    channel may carry the Hermite re-normalization by 2**n."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(0, 20))
    far = draw(st.just(0) | st.integers(-10 ** 9, 10 ** 9))
    comps = []
    for _ in range(p):
        lo = far + draw(st.integers(-20, 20))
        den = draw(denominators)
        nums = draw(st.lists(st.integers(-10 ** 25, 10 ** 25) | st.just(0), max_size=8))
        comps.append(LaurentPoly.from_coeffs(lo, [Fraction(x, den) for x in nums]))
    if p == 2 and draw(st.booleans()):
        comps[1] = comps[1].scale(2 ** n)
    return FinSeq(tuple(comps), n)


def seq(n, *comps):
    """A FinSeq at level n of components given as (lo, [coefficients])."""
    return FinSeq(tuple(LaurentPoly.from_coeffs(lo, cs) for lo, cs in comps), n)


@SETTINGS
@given(sampled_sequences())
@example(FinSeq((LaurentPoly(),), 3))
@example(FinSeq((LaurentPoly(), LaurentPoly(), LaurentPoly()), 0))
# t = -1/2**14 and 1/2**14 in exponent form, with 14 digits
@example(seq(14, (-1, [Fraction(1, 3), 0, Fraction(-2, 7)])))
# 200 * 5**17 > 10**14: t takes 17 digits
@example(seq(17, (-3, [1, Fraction(1, 2)]), (200, [Fraction(5, 9)])))
# integers only, in the last column too: every cell drops its /1
@example(seq(0, (-2, [1, 0, 3]), (-1, [5, -7])))
# negative t only
@example(seq(3, (-9, [Fraction(1, 4), Fraction(-3, 8), Fraction(1, 2)])))
def test_csv_matches_row_by_row_writer(seq):
    assert seq.to_csv() == oracle.to_csv(seq)
    assert seq.to_csv(exact=True) == oracle.to_csv(seq, exact=True)
    scale = 2 ** seq.n
    assert seq.rows == [(float(Fraction(i, scale)), tuple(map(float, v)))
                        for i, v in enumerate(seq.values, seq.offset)]


TOP = oracle.FLOAT_OVERFLOW
# the digit limit for integer strings under which the exact writer is tested
LIMIT = 640


@contextmanager
def digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def edge_values(sizes):
    """Small values, and s * (size + d) / den for s = +-1 and d = -1, 0, 1:
    just below, at and just above each size, over several denominators."""
    dens = st.sampled_from([1, 3, 2 ** 9, 10 ** 400 + 7]) | st.integers(1, 10 ** 30)
    edge = st.builds(lambda s, size, d, den: Fraction(s * (size * den + d), den),
                     st.sampled_from([1, -1]), sizes, st.integers(-1, 1), dens)
    return st.integers(-9, 9).map(Fraction) | edge | edge.map(lambda x: 1 / x)


@st.composite
def edge_sequences(draw, values, far):
    """p = 1..3 components of 1..6 values each, anywhere, at level n = 0..4;
    the support near 0, or at s * 2**n * far + k, where t reaches far."""
    p, n = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    offset = draw(st.sampled_from([0, 1, -1])) * 2 ** n * far + draw(st.integers(-6, 6))
    rows = draw(st.lists(st.lists(values, min_size=p, max_size=p), min_size=1, max_size=6))
    return FinSeq(FinSeq.make(p, offset, rows).comps, n)


@SETTINGS
@given(edge_sequences(edge_values(st.just(TOP)), TOP))
@example(seq(0, (0, [TOP - 1])))
@example(seq(0, (0, [0, 0]), (0, [Fraction(-3 * TOP + 1, 3), -TOP])))
# t is named at 4 * TOP, though c2 is beyond the range one index before it
@example(seq(2, (4 * TOP - 2, [1, 1, 1]), (4 * TOP - 1, [TOP])))
@example(seq(1, (-2 * TOP - 1, [1, 1, 1, 1])))
def test_float_refusal_names_first_value_past_the_bound(seq):
    """to_csv() and rows divide first, and refuse exactly the sequences with
    a value at or beyond the float range, naming the first, t first."""
    want = oracle.float_refusal(seq)
    if want is None:
        assert seq.to_csv() == oracle.to_csv(seq)
        scale = 2 ** seq.n
        assert seq.rows == [(float(Fraction(i, scale)), tuple(map(float, v)))
                            for i, v in enumerate(seq.values, seq.offset)]
        return
    for view in (seq.to_csv, lambda: seq.rows):
        with pytest.raises(SubsmoothError) as err:
            view()
        assert str(err.value) == want


@SETTINGS
@given(edge_sequences(edge_values(st.sampled_from([10 ** (LIMIT - 1), 10 ** LIMIT,
                                                   10 ** (LIMIT + 1)])), 10 ** LIMIT))
@example(seq(0, (0, [1, 10 ** LIMIT, -10 ** (LIMIT + 1)]), (0, [Fraction(1, 10 ** LIMIT)])))
@example(seq(0, (0, [10 ** LIMIT - 1]), (1, [0, Fraction(7, 10 ** (LIMIT + 1))])))
@example(seq(0, (-10 ** LIMIT, [1, 1])))
@example(seq(3, (8 * 10 ** LIMIT - 9, [Fraction(1, 3)] * 5)))
def test_exact_refusal_names_first_column_as_its_guard_did(seq):
    """to_csv(exact=True) formats first, and refuses exactly the sequences
    the column guard it ran before refused, in the same words (a far index
    that str() would refuse is named by its digit count); without a digit
    limit it refuses none."""
    with digit_limit(LIMIT):
        want = oracle.exact_refusal(seq)
        if want is None:
            assert seq.to_csv(exact=True) == oracle.to_csv(seq, exact=True)
        else:
            with pytest.raises(type(want)) as err:
                seq.to_csv(exact=True)
            assert str(err.value) == str(want)
    with digit_limit(0):
        assert seq.to_csv(exact=True) == oracle.to_csv(seq, exact=True)


@pytest.mark.parametrize("lo", [-10 ** LIMIT, 10 ** LIMIT - 1], ids=["641 digits", "640 digits"])
def test_refused_index_over_digit_limit_named_by_digit_count(lo):
    """A refusal whose index str() would refuse names it by its digit count,
    from to_csv(), rows and to_csv(exact=True) alike; one that str() prints
    is named as before.  The limit is restored afterwards."""
    before = sys.get_int_max_str_digits()
    c = seq(0, (lo, [1]))
    at = f"index {lo}" if lo > 0 else f"an index of {LIMIT + 1} digits"
    with digit_limit(LIMIT):
        for view in (c.to_csv, lambda: c.rows):
            with pytest.raises(SubsmoothError) as err:
                view()
            assert str(err.value) == (f"t at {at} is beyond the float range; "
                                      "render it with --exact")
        if lo < 0:
            with pytest.raises(SubsmoothError) as err:
                c.to_csv(exact=True)
            assert str(err.value) == (f"t at {at} has {LIMIT + 1} digits, over the limit "
                                      f"of {LIMIT} digits for integer strings")
        else:
            assert c.to_csv(exact=True).startswith(f"t,c1\n{lo},1\n")
    assert sys.get_int_max_str_digits() == before


def test_exact_refusal_reraises_what_no_column_explains(monkeypatch):
    monkeypatch.setattr(refine, "_unprintable", lambda n: None)
    with digit_limit(LIMIT), pytest.raises(ValueError) as err:
        seq(0, (0, [10 ** LIMIT])).to_csv(exact=True)
    assert not isinstance(err.value, SubsmoothError)


@st.composite
def short_grid_points(draw):
    """(i, n) with n = 0..20 and |i| * 5**n < 10**14: the t = i / 2**n that
    FinSeq.to_csv prints with %.14g."""
    n = draw(st.integers(0, 20))
    top = (10 ** 14 - 1) // 5 ** n
    return draw(st.integers(-top, top) | st.sampled_from([-top, top])), n


@SETTINGS
@given(short_grid_points())
@example((10 ** 14 - 1, 0))
@example((-((10 ** 14 - 1) // 5 ** 20), 20))
@example((1, 14))
def test_fourteen_digits_print_t_as_seventeen_do(point):
    i, n = point
    assert "%.14g" % (i / 2 ** n) == "%.17g" % (i / 2 ** n)


def test_fourteen_digit_rule_is_tight():
    # |i| * 5**n = 10**14: %g's exponent form then differs, and one more digit too
    assert "%.14g" % 1e14 != "%.17g" % 1e14
    i, n = 10 ** 14 // 5 ** 14 + 1, 14  # i * 5**n just over 10**14: 15 digits
    assert "%.14g" % (i / 2 ** n) != "%.17g" % (i / 2 ** n)


# -- the packed strategy: operands long enough to cross laurent._PACK_MIN ------

# one below and above the int64 edge, and multi-word numerators
EDGES = (2 ** 63 - 1, 2 ** 63 + 1, 2 ** 64, 2 ** 127, 2 ** 128, 3 ** 90 + 7)


def long_operand(seed, n, den=1, zeros=0.0, edges=False, bits=40, pad=0, lo=0):
    """n numerators with mixed signs, about a share `zeros` of them zero,
    some edge values with `edges`, and `pad` zeros at both ends."""
    rng = random.Random(seed)

    def draw():
        if rng.random() < zeros:
            return 0
        x = rng.choice(EDGES) if edges and rng.random() < 0.3 else rng.randint(1, 2 ** bits)
        return rng.choice((-1, 1)) * x
    return _raw(lo, (0,) * pad + tuple(draw() for _ in range(n)) + (0,) * pad, den)


def packed_cases():
    """(pairs, step, factors): the render-floor shape (dense x dense), the
    search shape (long x short mask at steps 2 and 512), sparse x dense,
    numerators at the slot edges, factors that are negative or 70 bits
    long, and sums whose low slots or all slots cancel; operands with zeros
    inside and at the ends and not reduced."""
    floor = poly(0, [1 + i % 9 for i in range(300)])
    mask, coupling = poly(-2, [1, -4, 6, -4, 1], 16), poly(0, [3, 0, -1], 7)
    sym = [long_operand(1, 1500, 3 ** 20), long_operand(2, 1400, 5 ** 10, zeros=0.1)]
    cases = {
        "render-floor": ([(floor, long_operand(3, 400, 2 ** 20))], 2, None),
        "search-512": ([(sym[0], mask), (sym[1], coupling)], 512, None),
        "search-2": ([(sym[0], mask), (sym[1], coupling)], 2, None),
        # a short dense g is the looped operand, walked term by term at step 2
        "dense-dilated": ([(long_operand(18, 600, bits=20), poly(-1, [1, 3, 3, 1], 8))],
                          2, None),
        "sparse-dense": ([(long_operand(4, 1000, 3, zeros=0.95, pad=4),
                           long_operand(5, 200, 6, pad=2))], 1, None),
        "sparse-dense-2": ([(long_operand(6, 200, 6, zeros=0.1),
                             long_operand(7, 1000, 2, zeros=0.95, lo=-3))], 2, None),
        # unreduced: every numerator even over an even denominator
        "unreduced": ([(_raw(-5, tuple(2 * x for x in long_operand(8, 300).nums), 4),
                        long_operand(9, 40, 6, zeros=0.2, pad=1))], 1, [-3]),
        "slot-edges": ([(long_operand(10, 120, 9, edges=True, pad=3),
                         long_operand(11, 30, 2 ** 64, zeros=0.3, edges=True))], 1,
                       [-(2 ** 70 + 1)]),
        "mixed-factors": ([(long_operand(12, 90, 10, edges=True), long_operand(13, 25, 21)),
                           (long_operand(14, 60, 14), long_operand(15, 20, 15, zeros=0.5))],
                          2, [2 ** 70 - 1, -5]),
        "cancels": ([(sym[1], mask), (sym[1], mask)], 512, [1, -1]),
    }
    # f - f2 is zero in its first 700 terms, so the low slots of (f - f2) g cancel,
    # and f - f cancels in every slot: one-word slots (20-bit numerators) and
    # 16-byte ones (60-bit), at steps 1 and 2
    for width, bits in (("word", 20), ("wide", 60)):
        f = long_operand(30 + bits, 1200, 3, bits=bits)
        f2 = _raw(f.lo, f.nums[:700] + long_operand(31 + bits, 500, bits=bits).nums, f.den)
        g = long_operand(32 + bits, 12, 5, bits=bits, lo=-2)
        for step in (1, 2):
            cases[f"low-cancel-{width}-{step}"] = ([(f, g), (f2, g)], step, [1, -1])
            cases[f"all-cancel-{width}-{step}"] = ([(f, g), (f, g)], step, [1, -1])
    # the largest one-word slots, and the smallest slots one word can not hold:
    # (1 + z) c with every |numerator| of c at 2**62 - 1, then at 2**62
    for name, top in (("word-edge", 2 ** 62 - 1), ("word-edge+1", 2 ** 62)):
        c = _raw(0, tuple(top * random.Random(16).choice((-1, 1)) for _ in range(1100)), 1)
        cases[name] = ([(poly(0, [1, 1]), c)], 1, None)
    return cases


PACKED = packed_cases()


def kernel_terms(pairs, step, factors):
    """The terms (start, a, c, k) and output length _products hands to its
    strategies, and the common denominator."""
    live = [(f, g, m) for (f, g), m in zip(pairs, factors or [1] * len(pairs))
            if f.nums and g.nums and m]
    den = math.lcm(*(f.den * g.den for f, g, _ in live))
    lo = min(f.lo + step * g.lo for f, g, _ in live)
    hi = max(f.lo + step * g.lo + len(f.nums) + step * (len(g.nums) - 1) for f, g, _ in live)
    return [(f.lo + step * g.lo - lo, f.nums, g.nums, den // (f.den * g.den) * m)
            for f, g, m in live], hi - lo, den


def oracle_sum(pairs, step, factors):
    out = {}
    for (f, g), m in zip(pairs, factors or [1] * len(pairs)):
        out = laurent_oracle.add(out, laurent_oracle.mul(
            {0: Fraction(m)}, dilated_product_sum([(f, g)], step)))
    return LaurentPoly(out)


@pytest.mark.parametrize("name", PACKED)
def test_packed_kernel_matches_schoolbook_and_oracle(name):
    pairs, step, factors = PACKED[name]
    terms, n, _ = kernel_terms(pairs, step, factors)
    # every slot, zeros included, equals the schoolbook loop's
    with mock.patch.object(laurent, "_PACK_MAX", math.inf):
        skip, slots = laurent._kronecker(terms, n, step, {})
        assert [0] * skip + slots == laurent._schoolbook(terms, n, step)
    with mock.patch.object(laurent, "_kronecker", wraps=laurent._kronecker) as packed:
        got = _products(pairs, step, factors)
    assert packed.called
    assert_normalized(got)
    assert got == oracle_sum(pairs, step, factors)


@pytest.mark.parametrize("name", [name for name in PACKED if "cancel" in name])
def test_packed_kernel_unpacks_from_the_first_slot_that_did_not_cancel(name):
    pairs, step, factors = PACKED[name]
    terms, n, _ = kernel_terms(pairs, step, factors)
    want = laurent._schoolbook(terms, n, step)
    first = next((i for i, x in enumerate(want) if x), n)
    assert first == (700 if name.startswith("low-") else n)
    unpacked, unpack = [], laurent._unpack

    def spy(acc, n, wb):
        unpacked.append((n, wb))
        return unpack(acc, n, wb)
    with mock.patch.object(laurent, "_unpack", spy):
        assert laurent._kronecker(terms, n, step, {}) == (first, want[first:])
    # only the slots from the first one that did not cancel are unpacked, none of a zero sum
    if name.startswith("low-"):
        assert unpacked == [(n - first, laurent._WORD if "word" in name else 16)]
    else:
        assert unpacked == []


def test_packed_kernel_reaches_word_and_generic_slots():
    word = []
    unpack = laurent._unpack

    def spy(acc, n, wb):
        word.append(wb == laurent._WORD)
        return unpack(acc, n, wb)
    with mock.patch.object(laurent, "_unpack", spy), \
            mock.patch.object(laurent, "_PACK_MAX", math.inf):
        for name in ("word-edge", "word-edge+1", "slot-edges"):
            _products(*PACKED[name])
    assert word == [True, False, False]


def test_kernel_falls_back_to_schoolbook_for_wide_slots():
    pairs, step, factors = PACKED["slot-edges"]  # slots of more than _PACK_MAX bytes
    with mock.patch.object(laurent, "_schoolbook", wraps=laurent._schoolbook) as school:
        got = _products(pairs, step, factors)
    assert school.called
    assert got == oracle_sum(pairs, step, factors)


@pytest.mark.parametrize("extra, packed", [(0, True), (-1, False)])
def test_kernel_packs_from_the_size_threshold(extra, packed):
    # (len f - 1) * (len g - 1) term products: the threshold, then one below
    f, g = poly(1, [3, -1]), long_operand(17, laurent._PACK_MIN + 1 + extra, 5)
    with mock.patch.object(laurent, "_kronecker", wraps=laurent._kronecker) as spy:
        got = _products([(f, g)], 2)
    assert spy.called is packed
    assert got == oracle_sum([(f, g)], 2, None)


def test_symbol_operations_share_packed_operands():
    """mul_dilated and mul_vector pack each long entry once per slot width
    and step, and give the schoolbook loop's entries."""
    big = SymbolMatrix([[long_operand(20 + 2 * i + j, 400, 3 ** (i + j)) for j in range(2)]
                        for i in range(2)])
    mask = SymbolMatrix([[poly(-1, [1, 4, 6, 4, 1], 16), poly(0, [1, -1], 3)],
                         [poly(0, [2], 5), poly(-2, [1, 0, 2, 0, 1], 4)]])
    with mock.patch.object(laurent, "_PACK_MIN", math.inf):
        want = big.mul_dilated(mask, 512), mask.mul_vector(big.entries[0], 2)
    pack = laurent._pack
    packed = []

    def spy(nums, wb, step, packs):
        packed.append((id(nums), wb, step) not in packs)
        return pack(nums, wb, step, packs)
    with mock.patch.object(laurent, "_pack", spy):
        assert (big.mul_dilated(mask, 512), mask.mul_vector(big.entries[0], 2)) == want
    assert packed.count(True) < len(packed)
