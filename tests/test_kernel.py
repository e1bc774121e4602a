"""The integer Laurent kernel against slow independent references: the
dict-of-Fraction oracle, the list product of tests/maskgen.py and sympy."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsmooth import (LaurentPoly, NotDivisibleError, RatMatrix, SymbolMatrix,
                       WorkBudgetError, Z_PLUS_1, ZINV2_MINUS_1, ZINV_MINUS_1,
                       ZINV_PLUS_1, catalog, divide_exact, iterated_symbol, laurent,
                       stencil_norm, taylor_scheme)
from subsmooth.refine import _contractive_power

from tests import laurent_oracle as oracle
from tests.maskgen import poly_mul, rand_laurent, rand_spectral_mask

CATALOG = ["bspline0", "bspline1", "bspline2", "bspline3", "bspline5",
           "double-knot", "merrien", "derham", "merrien-smoothed",
           "derham-smoothed"]


def assert_normalized(f: LaurentPoly) -> None:
    if not f.nums:
        assert (f.lo, f.nums, f.den) == (0, (), 1)
        return
    assert f.nums[0] != 0 and f.nums[-1] != 0
    assert f.den > 0
    assert math.gcd(f.den, *f.nums) == 1


def big_laurent(rng: random.Random, lo: int, hi: int, bits: int = 220) -> LaurentPoly:
    """Mixed-sign coefficients with numerators and denominators of ~bits bits."""
    return LaurentPoly({e: Fraction(rng.choice((-1, 1)) * rng.getrandbits(bits),
                                    rng.getrandbits(bits) | 1)
                        for e in range(lo, hi + 1)})


def sparse_dilated(rng: random.Random, times: int) -> LaurentPoly:
    f = rand_laurent(rng, -2, 2)
    for _ in range(times):
        f = f.dilate()
    return f


def operand_pairs():
    """Seeded operand pairs: short and long, dense and sparse (dilated)
    operands on either side, zero and big numerators."""
    rng = random.Random(2024)
    pairs = [
        ("tiny", rand_laurent(rng, -1, 1), rand_laurent(rng, 0, 2)),
        ("short-long", rand_laurent(rng, 0, 10), rand_laurent(rng, -40, 40)),
        ("long-long", rand_laurent(rng, -5, 19), rand_laurent(rng, 2, 49)),
        ("zero-left", LaurentPoly.zero(), rand_laurent(rng, -2, 2)),
        ("zero-right", rand_laurent(rng, -40, 3), LaurentPoly.zero()),
        ("big-short", big_laurent(rng, -2, 3), big_laurent(rng, 0, 4)),
        ("big-long", big_laurent(rng, -3, 19), big_laurent(rng, 1, 24)),
        ("sparse", rand_laurent(rng, -30, 30), sparse_dilated(rng, 4)),
        ("big-sparse", big_laurent(rng, 0, 19, bits=240), sparse_dilated(rng, 5)),
        ("both-sparse", sparse_dilated(rng, 4), sparse_dilated(rng, 3)),
    ]
    return pairs


PAIRS = operand_pairs()


@pytest.fixture(params=PAIRS, ids=[name for name, _, _ in PAIRS])
def pair(request):
    return request.param[1:]


def test_product_is_commutative(pair):
    """Either operand may drive the outer loop: the sparser one does, and in
    the sparse pairs that is the longer one."""
    f, g = pair
    assert f * g == g * f


class TestAgainstOracle:
    def test_product(self, pair):
        f, g = pair
        h = f * g
        assert_normalized(h)
        assert oracle.to_dict(h) == oracle.mul(oracle.to_dict(f), oracle.to_dict(g))

    def test_sum_and_difference(self, pair):
        f, g = pair
        for got, want in ((f + g, oracle.add(oracle.to_dict(f), oracle.to_dict(g))),
                          (f - g, oracle.sub(oracle.to_dict(f), oracle.to_dict(g)))):
            assert_normalized(got)
            assert oracle.to_dict(got) == want

    def test_cancellation_to_zero(self, pair):
        f, _ = pair
        assert (f - f) == LaurentPoly.zero()
        assert_normalized(f - f)

    @pytest.mark.parametrize("d", [Z_PLUS_1, ZINV_PLUS_1, ZINV_MINUS_1, ZINV2_MINUS_1])
    def test_divide_exact(self, pair, d):
        f, _ = pair
        q = divide_exact(f * d, d)
        assert_normalized(q)
        assert oracle.to_dict(q) == oracle.divide_exact(oracle.to_dict(f * d),
                                                        oracle.to_dict(d))
        assert q == f

    @pytest.mark.parametrize("d", [Z_PLUS_1, ZINV_PLUS_1, ZINV_MINUS_1, ZINV2_MINUS_1])
    def test_not_divisible_matches_oracle(self, d):
        rng = random.Random(31)
        for _ in range(40):
            f = rand_laurent(rng, -3, rng.randint(-3, 3))
            try:
                want = oracle.divide_exact(oracle.to_dict(f), oracle.to_dict(d))
            except oracle.NotDivisible as exc:
                with pytest.raises(NotDivisibleError) as err:
                    divide_exact(f, d)
                assert oracle.to_dict(err.value.remainder) == exc.args[0]
            else:
                assert oracle.to_dict(divide_exact(f, d)) == want


def test_product_against_list_product(pair):
    f, g = pair
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
        return
    (flo, fhi), (glo, ghi) = f.support, g.support
    want = poly_mul([f.coeff(e) for e in range(flo, fhi + 1)],
                    [g.coeff(e) for e in range(glo, ghi + 1)])
    h = f * g
    assert [h.coeff(e) for e in range(flo + glo, fhi + ghi + 1)] == want


def test_product_against_sympy(pair):
    sympy = pytest.importorskip("sympy")
    f, g = pair
    z = sympy.Symbol("z")

    def to_sympy(p: LaurentPoly):
        return sum((sympy.Rational(c.numerator, c.denominator) * z ** e
                    for e, c in p.coeffs.items()), sympy.Integer(0))

    expanded = sympy.expand(to_sympy(f) * to_sympy(g))
    got = to_sympy(f * g)
    assert sympy.expand(expanded - got) == 0


def test_evaluation_and_derivative_against_oracle(pair):
    f, g = pair
    for p in (f, g, f * g):
        d = oracle.to_dict(p)
        for x in (1, -1, Fraction(2, 3), Fraction(-5, 2)):
            x = Fraction(x)
            assert p.evaluate(x) == sum((c * x ** e for e, c in d.items()), Fraction(0))
            assert p.derivative_at(x) == sum((e * c * x ** (e - 1) for e, c in d.items()),
                                             Fraction(0))


def test_constructor_normalizes():
    f = LaurentPoly({-3: 0, -1: "2/4", 0: Fraction(-3, 6), 4: 0})
    assert (f.lo, f.nums, f.den) == (-1, (1, -1), 2)
    assert LaurentPoly({2: 0}) == LaurentPoly.zero()
    assert (LaurentPoly({5: "6/3"}).lo, LaurentPoly({5: "6/3"}).nums) == (5, (2,))
    assert dict(LaurentPoly({0: "1/3", 2: "-1/2"}).coeffs) == {
        0: Fraction(1, 3), 2: Fraction(-1, 2)}
    assert hash(f) == hash(LaurentPoly({-1: "1/2", 0: "-1/2"}))


def test_scale_shift_dilate_against_oracle(pair):
    f, g = pair
    for p in (f, g):
        d = oracle.to_dict(p)
        assert oracle.to_dict(p.scale(Fraction(-6, 35))) == {
            e: c * Fraction(-6, 35) for e, c in d.items()}
        assert oracle.to_dict(p.shift(-7)) == {e - 7: c for e, c in d.items()}
        assert oracle.to_dict(p.dilate()) == oracle.dilate(d)
        assert_normalized(p.scale(Fraction(-6, 35)))


# -- the incremental contractivity search ----------------------------------------

def _oracle_entries(mask):
    return [[oracle.to_dict(mask.symbol[i, j]) for j in range(mask.p)]
            for i in range(mask.p)]


def _search_masks():
    masks = [pytest.param(catalog.get(name), id=name) for name in CATALOG]
    # the Taylor schemes of two Hermite schemes, which certify descends into
    masks += [pytest.param(taylor_scheme(catalog.get(name)), id=f"taylor-{name}")
              for name in ("merrien", "derham")]
    masks.append(pytest.param(rand_spectral_mask(random.Random(5)), id="spectral-fuzz"))
    return masks


@pytest.mark.parametrize("mask", _search_masks())
def test_incremental_search_matches_per_power_norms(mask):
    lmax = 8
    entries = _oracle_entries(mask)
    norms = []
    for L in range(1, lmax + 1):
        sym = iterated_symbol(mask, L)
        want = oracle.iterated_symbol(entries, L)
        assert [[oracle.to_dict(sym[i, j]) for j in range(mask.p)]
                for i in range(mask.p)] == want
        norm = stencil_norm(sym, 2 ** L) / 2 ** L
        assert norm == oracle.stencil_norm(want, 2 ** L) / 2 ** L
        norms.append(norm)
    hit = next((L for L, n in enumerate(norms, 1) if n < 1), None)
    expected = ((hit, norms[hit - 1], norms[:hit]) if hit is not None
                else (None, f"no power up to {lmax} is contractive", norms))
    assert _contractive_power(mask, lmax) == expected


def _merrien_stage():
    """The stage of `certify catalog:merrien --ell 2`."""
    from subsmooth import canonical_transform, conjugate, derived
    stage = taylor_scheme(catalog.get("merrien"))
    for _ in range(2):
        es = canonical_transform(stage)
        stage = derived(conjugate(stage, es.r), es.k)
    return stage


def test_search_does_one_symbol_product_per_power(monkeypatch):
    """The stage of `certify catalog:merrien --ell 2` is not contractive up
    to L = 10; its search must cost 9 symbol products, not 45."""
    from subsmooth import SymbolMatrix
    stage = _merrien_stage()
    calls = []
    real = SymbolMatrix.mul_dilated
    monkeypatch.setattr(SymbolMatrix, "mul_dilated",
                        lambda a, b, step=1: calls.append(step) or real(a, b, step))
    L, _, norms = _contractive_power(stage, 10)
    assert L is None and len(norms) == 10
    assert calls == [2 ** k for k in range(1, 10)]


@pytest.mark.parametrize("mask", [_merrien_stage(), catalog.get("derham")],
                         ids=["merrien-stage", "derham"])
def test_search_builds_no_dilated_symbol(monkeypatch, mask):
    """The search multiplies by A(z**(2**k)) without building it."""
    want = _contractive_power(mask, 10)
    calls = []
    real = LaurentPoly.dilate
    monkeypatch.setattr(LaurentPoly, "dilate",
                        lambda f, factor=2: calls.append(factor) or real(f, factor))
    assert _contractive_power(mask, 10) == want
    assert calls == []


# -- the work budget of symbol operations ------------------------------------------

_COEFFS = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
                    st.builds(Fraction, st.integers(-2 ** 300, 2 ** 300),
                              st.integers(1, 2 ** 200)))


@st.composite
def _polys(draw):
    return LaurentPoly.from_coeffs(draw(st.integers(-3, 3)),
                                   draw(st.lists(_COEFFS, max_size=6)))


@st.composite
def _symbol_operations(draw):
    """(operation, Σ nnz(f)·nnz(g) over the pairs of polynomials it
    multiplies): a product A(z)·B(z**step), a refinement-style product
    A(z)·v(z**step), or a basis change L·A(z)·R with constant L and R."""
    p = draw(st.integers(1, 3))
    a = SymbolMatrix([[draw(_polys()) for _ in range(p)] for _ in range(p)])
    nnz = [[len(a[i, k].coeffs) for k in range(p)] for i in range(p)]
    step = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["mul_dilated", "mul_vector", "transform"]))
    if kind == "mul_dilated":
        b = SymbolMatrix([[draw(_polys()) for _ in range(p)] for _ in range(p)])
        pairs = sum(nnz[i][k] * len(b[k, j].coeffs)
                    for i in range(p) for j in range(p) for k in range(p))
        return (lambda: a.mul_dilated(b, step)), pairs
    if kind == "mul_vector":
        v = tuple(draw(_polys()) for _ in range(p))
        pairs = sum(nnz[i][k] * len(v[k].coeffs) for i in range(p) for k in range(p))
        return (lambda: a.mul_vector(v, step)), pairs
    left, right = (RatMatrix(p, p, [draw(_COEFFS) for _ in range(p * p)])
                   for _ in range(2))
    # each entry of A is paired with the constant 1 and weighed by a factor
    pairs = sum(nnz[k][l] for i in range(p) for j in range(p) for k in range(p)
                for l in range(p) if left[i, k] and right[l, j])
    return (lambda: a.transform(left, right)), pairs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_symbol_operations())
def test_work_price_bounds_term_products_and_is_checked_before_products(case):
    run, pairs = case
    want = run()
    with mock.patch.object(laurent, "MAX_WORK", -1):
        with pytest.raises(WorkBudgetError) as err:
            run()
    price = err.value.price
    assert price >= pairs
    with mock.patch.object(laurent, "MAX_WORK", price - 1), \
            mock.patch.object(laurent, "_products", side_effect=AssertionError("ran")):
        with pytest.raises(WorkBudgetError) as err:
            run()
    assert err.value.price == price
    with mock.patch.object(laurent, "MAX_WORK", price):
        assert run() == want
