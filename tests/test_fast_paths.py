"""The strided refinement kernel and the column CSV writer against slow
references: the plain convolution with the dilated operand, and the
row-by-row Fraction writer of tests/refine_oracle.py."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsmooth import FinSeq, LaurentPoly
from subsmooth.laurent import _conv, _conv_dilated

from tests import refine_oracle as oracle

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

# zeros at the ends and inside, signs, one-word and multi-word integers
coefficients = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 130, 2 ** 130))
operands = st.lists(coefficients, min_size=1, max_size=12)


@SETTINGS
@given(operands, operands, st.integers(1, 3))
@example([5], [-7], 3)
@example([0, 3, 0], [0, 0, -1, 0], 2)
def test_strided_kernel_is_product_with_dilated_operand(a, c, step):
    dilated = [0] * (step * (len(c) - 1) + 1)
    dilated[::step] = c
    assert _conv_dilated(a, c, step) == _conv(a, dilated)


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
