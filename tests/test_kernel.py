"""The integer Laurent kernel against slow independent references: the
dict-of-Fraction oracle, the list product of tests/maskgen.py and sympy."""

import math
import random
import sys
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subsmooth import (TAYLOR_OPERATOR, LaurentPoly, NotDivisibleError, RatMatrix,
                       SingularMatrixError, SymbolMatrix, WorkBudgetError, Z_PLUS_1,
                       ZINV2_MINUS_1, ZINV_MINUS_1, catalog, difference_operator,
                       divide_exact, intertwine, invert, iterated_symbol, laurent,
                       stencil_norm, taylor_scheme, untwine)
from subsmooth import Eigenstructure, canonical_transform, derived, maskfile, masks, smooth_raw
from subsmooth import vector_smoothing as vector_module
from subsmooth.refine import _contractive_power, certify_hermite, certify_vector
from subsmooth.vector_smoothing import smooth_vector

from tests import laurent_oracle as oracle
from tests import price_oracle
from tests.maskgen import long_denominator_doc, poly_mul, rand_laurent, rand_spectral_mask

# z + 1 and 1/z + 1 (d0, d1) are refused: divide_exact takes only the two
# divisors of the smoothing calculus (d2, d3)
BINOMIALS = [Z_PLUS_1, LaurentPoly({-1: 1, 0: 1}), ZINV_MINUS_1, ZINV2_MINUS_1]

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
        ("zero-left", LaurentPoly(), rand_laurent(rng, -2, 2)),
        ("zero-right", rand_laurent(rng, -40, 3), LaurentPoly()),
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
        assert (f - f) == LaurentPoly()
        assert_normalized(f - f)

    @pytest.mark.parametrize("d", BINOMIALS)
    def test_divide_exact(self, pair, d):
        f, _ = pair
        if d not in (ZINV_MINUS_1, ZINV2_MINUS_1):
            with pytest.raises(ValueError, match="unsupported divisor"):
                divide_exact(f * d, d)
            return
        q = divide_exact(f * d, d)
        assert_normalized(q)
        assert oracle.to_dict(q) == oracle.divide_exact(oracle.to_dict(f * d),
                                                        oracle.to_dict(d))
        assert q == f

    @pytest.mark.parametrize("d", BINOMIALS)
    def test_not_divisible_matches_oracle(self, d):
        rng = random.Random(31)
        for _ in range(40):
            f = rand_laurent(rng, -3, rng.randint(-3, 3))
            if d not in (ZINV_MINUS_1, ZINV2_MINUS_1):
                with pytest.raises(ValueError, match="unsupported divisor"):
                    divide_exact(f, d)
                continue
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
    """Values and derivatives at 1 and -1, the only points the calculus
    reads; any other point is refused by name."""
    f, g = pair
    for p in (f, g, f * g):
        d = oracle.to_dict(p)
        for x in (1, -1):
            x = Fraction(x)
            assert p.evaluate(x) == sum((c * x ** e for e, c in d.items()), Fraction(0))
            assert p.derivative_at(x) == sum((e * c * x ** (e - 1) for e, c in d.items()),
                                             Fraction(0))
        for x in (Fraction(2, 3), Fraction(-5, 2)):
            with pytest.raises(ValueError, match=f"at 1 and -1 only, got {x}"):
                p.evaluate(x)
            with pytest.raises(ValueError, match=f"at 1 and -1 only, got {x}"):
                p.derivative_at(x)


def test_constructor_normalizes():
    f = LaurentPoly({-3: 0, -1: "2/4", 0: Fraction(-3, 6), 4: 0})
    assert (f.lo, f.nums, f.den) == (-1, (1, -1), 2)
    assert LaurentPoly({2: 0}) == LaurentPoly()
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


@st.composite
def scalings(draw):
    """(f, c): f dyadic or not, its numerators sharing a content or not, and
    c zero, an int or a Fraction whose numerator and denominator may share
    primes with den and with the content; 2**n as render rescales by."""
    den = draw(st.sampled_from([1, 2, 2 ** 20, 3, 12, 35, 2 ** 5 * 3 ** 10]))
    content = draw(st.sampled_from([1, 2, 6, 7, 2 ** 10, 3 ** 4 * 5]))
    nums = draw(st.lists(st.integers(-50, 50), max_size=6))
    f = LaurentPoly.from_coeffs(draw(st.integers(-5, 5)),
                                [Fraction(content * x, den) for x in nums])
    parts = st.sampled_from([1, 2, 3, 5, 7, den, content, 2 ** 9, 3 * 5 * 7])
    c = draw(st.just(0) | st.integers(-12, 12) | st.integers(0, 40).map(lambda n: 2 ** n)
             | st.builds(lambda s, a, b: Fraction(s * a, b), st.sampled_from([1, -1]), parts, parts))
    return f, c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scalings())
# render's rescale of a dyadic Hermite channel, and of a non-dyadic one
@example((LaurentPoly.from_coeffs(-3, [Fraction(1, 2 ** 12), 0, Fraction(-3, 2 ** 9)]), 2 ** 10))
@example((LaurentPoly.from_coeffs(0, [Fraction(2, 3), Fraction(4, 9)]), 2 ** 10))
@example((LaurentPoly.from_coeffs(1, [6, -10]), Fraction(-7, 2)))
@example((LaurentPoly.from_coeffs(1, [Fraction(1, 3)]), 0))
def test_scale_is_the_normalized_product(case):
    f, c = case
    got = f.scale(c)
    assert oracle.to_dict(got) == {e: x * c for e, x in oracle.to_dict(f).items() if c}
    assert_normalized(got)


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
                        lambda f: calls.append(f) or real(f))
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


def _g_zeta(zeta) -> SymbolMatrix:
    """A Hermite round's smoothing operator [[1, 0], [zeta/z - 1 - zeta, 1/z - 1]]."""
    return SymbolMatrix([[LaurentPoly({0: 1}), LaurentPoly()],
                         [LaurentPoly({-1: zeta, 0: -1 - zeta}), ZINV_MINUS_1]])


def _operator_operation(draw, kind):
    """untwine(D(z)·C(z), D) = 1/2 C(z)·D(z**2) or intertwine(C(z)·D(z**2), D)
    = 2 D(z)·C(z) for a random C and an operator symbol D, a difference
    operator, TAYLOR_OPERATOR or a G_zeta with a rational zeta, and the sum
    of nnz(S[i,k])·nnz(D[k,j]) for the side S that is multiplied by D."""
    op = draw(st.sampled_from(["difference", "taylor", "g_zeta"]))
    p = draw(st.integers(1, 3)) if op == "difference" else 2
    c = SymbolMatrix([[draw(_polys()) for _ in range(p)] for _ in range(p)])
    if op == "difference":
        d = difference_operator(p, draw(st.integers(1, p)))
    elif op == "taylor":
        d = TAYLOR_OPERATOR
    else:
        d = _g_zeta(draw(_COEFFS))

    def pairs(s, t):
        return sum(len(s[i, k].coeffs) * len(t[k, j].coeffs)
                   for i in range(p) for j in range(p) for k in range(p))
    if kind == "untwine":
        b = d * c
        return (lambda: untwine(b, d)), pairs(b, d)
    a = c.mul_dilated(d, 2)  # on transposes, D(z**2)^T B^T = 2 A^T D^T multiplies A^T
    return (lambda: intertwine(a, d)), pairs(*(SymbolMatrix(list(zip(*m.entries)))
                                              for m in (a, d)))


def _folded_operation(draw, kind):
    """A descent or a vector round's untwine in the basis of a drawn invertible
    R: intertwine(R B R**-1, D, es) for B = C(z)·D(z**2), or
    untwine(R D(z)·C R**-1, D, es), for es = Eigenstructure(p, (), R, R**-1) and D
    a difference operator, and the sum of nnz(S[a,k])·nnz((R' D')[k,j]) over the
    entries (i, j), the a with L[i,a] != 0 and the k, for the side S = A^T,
    L = R^T, R' = R^-T, D' = D^T (descent) or S = B, L = R**-1, R' = R, D' = D
    (untwine) that it multiplies."""
    p = draw(st.integers(1, 3))
    d = difference_operator(p, draw(st.integers(1, p)))
    c = SymbolMatrix([[draw(_polys()) for _ in range(p)] for _ in range(p)])
    r = RatMatrix(p, p, [draw(_COEFFS) for _ in range(p * p)])
    try:
        r_inv = invert(r)
    except SingularMatrixError:
        assume(False)
    es = Eigenstructure(p, (), r, r_inv)

    def constant(m):
        return SymbolMatrix([[LaurentPoly({0: m[i, j]}) for j in range(p)] for i in range(p)])

    def transposed(m):
        return SymbolMatrix(list(zip(*m.entries)))
    if kind == "folded intertwine":
        a = c.mul_dilated(d, 2).transform(r, r_inv)
        run = partial(intertwine, a, d, es)
        s, left, rd = transposed(a), transposed(constant(r)), transposed(constant(r_inv) * d)
    else:
        b = (d * c).transform(r, r_inv)
        run = partial(untwine, b, d, es)
        s, left, rd = b, constant(r_inv), constant(r) * d
    pairs = sum(len(s[m, k].coeffs) * len(rd[k, j].coeffs) for i in range(p) for j in range(p)
                for m in range(p) if left[i, m].nums for k in range(p))
    return run, pairs


@st.composite
def _symbol_operations(draw):
    """(operation, Σ nnz(f)·nnz(g) over the pairs of polynomials it
    multiplies): a product A(z)·B(z**step), a refinement-style product
    A(z)·v(z**step), a basis change L·A(z)·R with constant L and R, or an
    untwine or intertwine by an operator symbol, plain or, as a descent and
    a vector round run them, in the basis of an Eigenstructure."""
    kind = draw(st.sampled_from(["mul_dilated", "mul_vector", "transform", "untwine",
                                 "intertwine", "folded intertwine", "folded untwine"]))
    if kind in ("untwine", "intertwine"):
        return _operator_operation(draw, kind)
    if kind.startswith("folded"):
        return _folded_operation(draw, kind)
    p = draw(st.integers(1, 3))
    a = SymbolMatrix([[draw(_polys()) for _ in range(p)] for _ in range(p)])
    nnz = [[len(a[i, k].coeffs) for k in range(p)] for i in range(p)]
    step = draw(st.integers(1, 8))
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


@settings(max_examples=420, deadline=None, derandomize=True)
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


def _prices(run):
    """The price of run's first symbol operation from laurent._charge and
    from the reference, each handed the same materialized jobs, with
    MAX_WORK at -1 so that both price every pair."""
    prices, real = [], laurent._charge

    def both(fs, gs, jobs, bits=1):
        fs, gs = list(fs), list(gs)
        jobs = [(list(pairs), bs and list(bs)) for pairs, bs in jobs]
        for charge in (real, price_oracle.charge):
            with pytest.raises(WorkBudgetError) as err:
                charge(fs, gs, jobs, bits)
            prices.append(err.value.price)
        raise err.value

    with mock.patch.object(laurent, "MAX_WORK", -1), \
            mock.patch.object(laurent, "_charge", both), pytest.raises(WorkBudgetError):
        run()
    return prices


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_symbol_operations())
def test_price_equals_the_reference(case):
    run, _ = case
    library, reference = _prices(run)
    assert library == reference


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_price_of_long_denominators_equals_the_reference(p):
    """The first descent and the vector round in the canonical basis of a
    file with independent ~490-digit denominators, where products of
    distinct denominators dominate the price."""
    mask = maskfile.parse(long_denominator_doc(p))
    es = canonical_transform(mask)
    for run in (lambda: derived(mask, es.k, es),
                lambda: vector_module._smooth_in_basis(mask, es)):
        library, reference = _prices(run)
        assert library == reference


def test_a_long_operator_rational_is_priced_as_a_factor():
    """zeta enters the product as integer weights, whose bit lengths the
    price counts: a 3170-bit zeta costs more than a short one."""
    a = catalog.get("merrien").symbol
    for op, s in ((untwine, intertwine(a, TAYLOR_OPERATOR)), (intertwine, a)):
        prices = []
        for zeta in (Fraction(3, 2), Fraction(3 ** 2000, 2)):
            with mock.patch.object(laurent, "MAX_WORK", -1), \
                    pytest.raises(WorkBudgetError) as err:
                op(s, _g_zeta(zeta))
            prices.append(err.value.price)
        assert prices[1] > prices[0]


def test_operators_are_read_as_data():
    """intertwine and untwine build no scaled copy of the operator and run no
    symbol product: both are one weighted product and one solve."""
    cases = [(catalog.get("merrien").symbol, TAYLOR_OPERATOR),
             (catalog.get("bspline3").symbol, difference_operator(1, 1))]
    results = [intertwine(a, d) for a, d in cases]
    with mock.patch.object(SymbolMatrix, "mul_dilated", side_effect=AssertionError("product")), \
            mock.patch.object(SymbolMatrix, "__mul__", side_effect=AssertionError("product")), \
            mock.patch.object(LaurentPoly, "scale", side_effect=AssertionError("scale")):
        for (a, d), b in zip(cases, results):
            assert intertwine(a, d) == b
            assert untwine(b, d) == a


def test_a_descent_and_a_vector_round_are_one_twine(monkeypatch):
    """A descent is one intertwine in the canonical basis and changes no basis;
    a vector round is one untwine in it and one basis change back, R X R**-1.
    No library module calls masks.conjugate for either."""
    vector, hermite = catalog.get("double-knot"), catalog.get("merrien")
    want = certify_vector(vector, 1), certify_hermite(hermite, 2), smooth_vector(vector)
    transforms = []
    real = SymbolMatrix.transform
    monkeypatch.setattr(SymbolMatrix, "transform",
                        lambda *args: transforms.append(args) or real(*args))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "subsmooth":
            for attr, value in list(vars(module).items()):
                if value is masks.conjugate:
                    monkeypatch.setattr(module, attr, mock.Mock(side_effect=AssertionError))
    assert (certify_vector(vector, 1), certify_hermite(hermite, 2)) == want[:2]
    assert transforms == []
    assert smooth_vector(vector) == want[2]
    assert len(transforms) == 1


@st.composite
def _walk_operands(draw):
    """1-60 numerators below 2**62 over 1 with 0-90% of the inner ones zero,
    one-term operands drawn often, and sometimes zeros at the ends as the
    kernel's unnormalized operands have them."""
    n = draw(st.one_of(st.just(1), st.integers(1, 60)))
    zeros = draw(st.integers(0, 9 * max(n - 2, 0) // 10))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    nums = [rng.choice((-1, 1)) * rng.randrange(1, 2 ** 62) for _ in range(n)]
    for i in rng.sample(range(1, n - 1), zeros):
        nums[i] = 0
    pad = (0,) * draw(st.sampled_from((0, 0, 0, 1, 2)))
    return laurent._raw(draw(st.integers(-3, 3)), pad + tuple(nums) + pad, 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.tuples(_walk_operands(), _walk_operands()), min_size=1, max_size=4),
                min_size=1, max_size=3))
def test_price_counts_the_terms_the_kernel_walks(jobs):
    """At one word and denominator 1 each term product is priced at the
    floor, 16, and the walked operand is the one the README names: f if it
    is one term long, else g if it is, else the one with fewer nonzero terms,
    f on a tie."""
    def nz(f):
        return len(f.nums) - f.nums.count(0)
    want = 0
    for pairs in jobs:
        for f, g in pairs:
            walked, other = ((f, g) if len(f.nums) == 1 else (g, f) if len(g.nums) == 1
                             else (f, g) if nz(f) <= nz(g) else (g, f))
            want += nz(walked) * len(other.nums)
    fs, gs = [f for pairs in jobs for f, _ in pairs], [g for pairs in jobs for _, g in pairs]
    with mock.patch.object(laurent, "MAX_WORK", 0):
        with pytest.raises(WorkBudgetError) as err:
            laurent._charge(fs, gs, [(pairs, None) for pairs in jobs])
    assert err.value.price == 16 * want


def _basis_3x3():
    r = RatMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    return Eigenstructure(1, (), r, invert(r))


@pytest.mark.parametrize("call", [
    lambda m: derived(m, 1, _basis_3x3()),
    lambda m: untwine(m.symbol, difference_operator(1, 1)),
    lambda m: intertwine(m.symbol, difference_operator(3, 1)),
    lambda m: m.symbol.transform(RatMatrix.identity(3), RatMatrix.identity(2)),
], ids=["derived-in-a-3x3-basis", "untwine-by-a-1x1-operator",
        "intertwine-by-a-3x3-operator", "transform-by-a-3x3-left"])
def test_twine_checks_dimensions_before_any_price_or_product(call):
    """A basis or an operator of another size than the 2 x 2 symbol is one
    ValueError, raised before the kernel prices or multiplies anything."""
    def unreachable(*args):
        raise AssertionError("priced or multiplied before the dimension check")
    with mock.patch.object(laurent, "_products", unreachable), \
            mock.patch.object(laurent, "_charge", unreachable), \
            pytest.raises(ValueError, match="^dimension mismatch$"):
        call(catalog.get("double-knot"))


@pytest.mark.parametrize("call", [
    lambda m, basis: derived(m, 1, basis),
    lambda m, basis: smooth_raw(m, 1, basis),
    lambda m, basis: intertwine(m.symbol, difference_operator(2, 1), basis),
    lambda m, basis: untwine(m.symbol, difference_operator(2, 1), basis),
], ids=["derived", "smooth_raw", "intertwine", "untwine"])
def test_a_basis_other_than_an_eigenstructure_is_a_type_error(call):
    """A matrix, or a matrix and its inverse, where the Eigenstructure of a
    basis change belongs is one TypeError that names it, raised before any
    price: with MAX_WORK at -1 every priced operation would be refused."""
    mask = catalog.get("double-knot")
    es = canonical_transform(mask)
    for basis in (es.r, (es.r, es.r_inv), tuple(es)):
        with mock.patch.object(laurent, "MAX_WORK", -1), \
                pytest.raises(TypeError, match="^basis must be an Eigenstructure, not "):
            call(mask, basis)
    with mock.patch.object(laurent, "MAX_WORK", -1), pytest.raises(WorkBudgetError):
        call(mask, es)
