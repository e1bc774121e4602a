"""Property tests: the symbol-product operations against the entry-loop
oracles of tests/refine_oracle.py, on random masks (p = 1..3) and random
sequences, and granted certificates against the dict oracle of
tests/laurent_oracle.py.

Masks are drawn with a target: entries corrected (tests.maskgen.with_values)
so that the derived scheme, the smoothing operator or one of the Taylor
factorizations exists, or left random, where it almost never does.  An
operator that exists must satisfy its intertwining identity, which fixes it
uniquely, so passing that check means equality with any other correct
construction.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsmooth import (TAYLOR_OPERATOR, Certificate, FinSeq, LaurentPoly,
                       NotDivisibleError, SymbolMatrix, ZINV_MINUS_1, apply,
                       canonical_transform, certify_hermite, certify_vector,
                       conjugate, derived, difference_operator, intertwine,
                       inverse_taylor, smooth_raw, taylor_scheme, untwine,
                       vector_mask)

import tests.refine_oracle as oracle
from tests import laurent_oracle
from tests.maskgen import (granted_hermite_masks, granted_vector_masks,
                           intertwines_difference, intertwines_taylor, scaled,
                           with_values)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
polys = st.builds(LaurentPoly.from_coeffs, st.integers(-3, 1),
                  st.lists(fractions, max_size=5))
TARGETS = ("random", "derived", "smoothing", "taylor", "inverse_taylor")


def _force(entries, p, k, target):
    """Correct the entries in place so the target operator exists."""
    for i in range(p):
        for j in range(p):
            f = entries[i][j]
            if target == "derived" and j < k:
                entries[i][j] = with_values(f, f.evaluate(1) if i < k else 0, 0)
            elif target == "smoothing" and i < k <= j:
                entries[i][j] = with_values(f, 0, f.evaluate(-1))
    if p != 2:
        return
    (b11, b12), (b21, b22) = entries
    if target == "taylor":
        entries[0][0] = with_values(b11, b11.evaluate(1), 0)
        entries[1][0] = with_values(b21, 0, 0)
    elif target == "inverse_taylor":
        entries[0][1] = with_values(b12, (b11 + b21 - b22).evaluate(1),
                                    b12.evaluate(-1))


@st.composite
def masks_with_k(draw, sizes=st.integers(1, 3)):
    p = draw(sizes)
    k = draw(st.integers(1, p))
    entries = [[draw(polys) for _ in range(p)] for _ in range(p)]
    _force(entries, p, k, draw(st.sampled_from(TARGETS)))
    return vector_mask(SymbolMatrix(entries)), k


@st.composite
def sequences(draw, p):
    vals = draw(st.lists(st.lists(fractions, min_size=p, max_size=p), max_size=6))
    return FinSeq.make(p, draw(st.integers(-4, 4)), vals)


@st.composite
def mask_and_sequence(draw):
    mask, k = draw(masks_with_k())
    return mask, k, draw(sequences(mask.p))


@SETTINGS
@given(mask_and_sequence())
def test_apply_difference_match_entry_loops(case):
    mask, k, c = case
    assert apply(mask, c) == oracle.apply(mask, c)
    difference = difference_operator(c.p, k).mul_vector(c.comps)
    assert FinSeq(difference, c.n) == oracle.difference(c, k)


@SETTINGS
@given(sequences(2))
def test_taylor_diff_matches_entry_loop(c):
    assert FinSeq(TAYLOR_OPERATOR.mul_vector(c.comps), c.n) == oracle.taylor_diff(c)


def _divides(op, mask, k) -> bool:
    try:
        op(mask, k)
    except NotDivisibleError:
        return False
    return True


@SETTINGS
@given(masks_with_k())
def test_admits_equal_root_conditions(case):
    mask, k = case
    assert _divides(derived, mask, k) == oracle.derived_condition(mask, k)
    assert _divides(smooth_raw, mask, k) == oracle.smoothing_condition(mask, k)


@SETTINGS
@given(masks_with_k())
def test_derived_and_smoothing_exist_exactly_under_root_conditions(case):
    mask, k = case
    if oracle.derived_condition(mask, k):
        assert intertwines_difference(mask, derived(mask, k), k)
    else:
        with pytest.raises(NotDivisibleError):
            derived(mask, k)
    if oracle.smoothing_condition(mask, k):
        assert intertwines_difference(smooth_raw(mask, k), mask, k)
    else:
        with pytest.raises(NotDivisibleError):
            smooth_raw(mask, k)


@SETTINGS
@given(masks_with_k(sizes=st.just(2)))
def test_taylor_factorizations_exist_exactly_under_root_conditions(case):
    mask, _ = case
    if oracle.taylor_condition(mask):
        assert intertwines_taylor(mask, taylor_scheme(mask))
    else:
        with pytest.raises(NotDivisibleError):
            taylor_scheme(mask)
    if oracle.inverse_taylor_condition(mask):
        assert intertwines_taylor(inverse_taylor(mask), mask)
    else:
        with pytest.raises(NotDivisibleError):
            inverse_taylor(mask)


@st.composite
def operators(draw, p):
    """Upper or lower triangular operator symbols with diagonal entries 1 or
    1/z - 1 and random entries on the other side of the diagonal."""
    one, side = LaurentPoly({0: 1}), draw(st.sampled_from((1, -1)))
    return SymbolMatrix([[draw(st.sampled_from((one, ZINV_MINUS_1))) if i == j
                          else draw(polys) if (j - i) * side > 0 else LaurentPoly()
                          for j in range(p)] for i in range(p)])


@st.composite
def symbol_and_operator(draw):
    mask, _ = draw(masks_with_k())
    return mask.symbol, draw(operators(mask.p))


@settings(SETTINGS, max_examples=300)  # about 20 of each triangle reach the checks
@given(symbol_and_operator())
def test_untwine_is_a_right_inverse_for_any_operator(case):
    b, d = case
    try:  # the drawn symbol as A: B D(z**2) = 2 D(z) A(z), or no such B
        c = intertwine(b, d)
    except NotDivisibleError:
        pass
    else:
        assert scaled(d * b, 2) == c.mul_dilated(d, 2)
    try:
        a = untwine(b, d)
    except NotDivisibleError:
        return
    assert d * a == scaled(b.mul_dilated(d, 2), Fraction(1, 2))
    assert intertwine(a, d) == b


def test_operator_symbols_are_checked():
    a = TAYLOR_OPERATOR
    full = SymbolMatrix([[LaurentPoly({0: 1}), ZINV_MINUS_1],
                         [ZINV_MINUS_1, LaurentPoly({0: 1})]])
    bad_diagonal = SymbolMatrix([[LaurentPoly({0: 2, 1: 1})]])
    for op in (intertwine, untwine):
        with pytest.raises(ValueError, match="an operator symbol must be triangular"):
            op(a, full)
        with pytest.raises(ValueError, match="unsupported divisor"):
            op(SymbolMatrix([[LaurentPoly({0: 1, 1: 1})]]), bad_diagonal)


def _assert_norm_rederived(cert, mask, ell):
    """cert's ks and support are those of ell + 1 descents from mask, each in
    a fresh canonical basis, and its norm_value is the dict oracle's
    |(1/2 S)^L| of the last derived scheme."""
    ks = []
    for _ in range(ell + 1):
        es = canonical_transform(mask)
        mask = derived(conjugate(mask, es.r), es.k)
        ks.append(es.k)
    entries = [[laurent_oracle.to_dict(e) for e in row] for row in mask.symbol.entries]
    L = cert.L
    norm = laurent_oracle.stencil_norm(laurent_oracle.iterated_symbol(entries, L), 2 ** L)
    assert (cert.ks, cert.support, cert.norm_value) == (tuple(ks), mask.support, norm / 2 ** L)


GRANT_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@GRANT_SETTINGS
@given(granted_vector_masks())
def test_vector_grant_norm_matches_dict_oracle(case):
    mask, ell = case
    cert = certify_vector(mask, ell, 12)
    assert isinstance(cert, Certificate) and cert.ell == (ell or None)
    _assert_norm_rederived(cert, mask, ell)


@GRANT_SETTINGS
@given(granted_hermite_masks())
def test_hermite_grant_norm_matches_dict_oracle(case):
    mask, ell = case
    cert = certify_hermite(mask, ell, 8)
    assert isinstance(cert, Certificate) and (cert.ell, cert.phi) == (ell, mask.phi)
    _assert_norm_rederived(cert, taylor_scheme(mask), ell - 1)
