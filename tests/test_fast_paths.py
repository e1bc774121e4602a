"""The product kernel and the column CSV writer against slow references:
the dict-of-Fraction product with the explicitly dilated operand of
tests/laurent_oracle.py, and the row-by-row Fraction writer of
tests/refine_oracle.py."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsmooth import FinSeq, LaurentPoly
from subsmooth.laurent import _products, _raw

from tests import laurent_oracle
from tests import refine_oracle as oracle

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
        return LaurentPoly.zero()
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
    """Sequences at grid level n = 0..12 whose components have their own
    supports and denominators; for p = 2 the second channel may carry the
    Hermite re-normalization by 2**n."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    comps = []
    for _ in range(p):
        lo = draw(st.integers(-20, 20))
        den = draw(denominators)
        nums = draw(st.lists(st.integers(-10 ** 25, 10 ** 25) | st.just(0), max_size=8))
        comps.append(LaurentPoly.from_coeffs(lo, [Fraction(x, den) for x in nums]))
    if p == 2 and draw(st.booleans()):
        comps[1] = comps[1].scale(2 ** n)
    return FinSeq(tuple(comps), n)


@SETTINGS
@given(sampled_sequences())
@example(FinSeq((LaurentPoly.zero(),), 3))
@example(FinSeq((LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly.zero()), 0))
def test_csv_matches_row_by_row_writer(seq):
    assert seq.to_csv() == oracle.to_csv(seq)
    assert seq.to_csv(exact=True) == oracle.to_csv(seq, exact=True)
    scale = 2 ** seq.n
    assert seq.rows == [(float(Fraction(i, scale)), tuple(map(float, v)))
                        for i, v in enumerate(seq.values, seq.offset)]
