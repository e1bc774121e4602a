"""Conjugation, transform inverses and the cached 1-eigenspace against the
oracles of tests/masks_oracle.py, plus counts of the exact linear algebra a
smoothing round does."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import subsmooth.hermite_smoothing as hermite_module
import subsmooth.laurent as laurent
import subsmooth.linalg as linalg
import subsmooth.masks as masks_module
import subsmooth.vector_smoothing as vector_module
from subsmooth import (ConsistencyError, EigenspaceError, EmptyEigenspaceError,
                       Eigenstructure, LaurentPoly, Mask, NotDivisibleError, RatMatrix,
                       SubsmoothError, SymbolMatrix, WorkBudgetError,
                       canonical_transform, catalog, certify_vector, common_one_eigenspace,
                       conjugate, derived, difference_operator, hermite_mask, invert,
                       inverse_taylor, maskfile, scalar_mask,
                       smooth_hermite, smooth_raw, smooth_vector,
                       taylor_scheme, untwine, vector_mask, zeta_of)
from subsmooth.cli import main

import tests.masks_oracle as oracle
from tests.hermite_oracle import TAYLOR_BASIS_OPERATOR
from tests.masks_oracle import matmul, rank, zero
from tests.maskgen import (granted_hermite_masks, granted_vector_masks,
                           long_denominator_doc, rand_convergent_style_mask,
                           rand_smoothing_ready_spectral, with_values)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# The basis change that puts the 1-eigenspace span{e2} of every mask meeting
# the Taylor conditions first: their even/odd mean matrix is lower triangular
# with eigenvector e2 for the eigenvalue 1 and (1, -1) for the other one.
R_TAYLOR = RatMatrix.from_rows([[0, 1], [1, -1]])
R_TAYLOR_INV = RatMatrix.from_rows([[1, 1], [1, 0]])

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
polys = st.builds(LaurentPoly.from_coeffs, st.integers(-3, 1),
                  st.lists(fractions, max_size=5))


@st.composite
def masks(draw, sizes=st.integers(1, 3)):
    p = draw(sizes)
    sym = SymbolMatrix([[draw(polys) for _ in range(p)] for _ in range(p)])
    if p == 1 and draw(st.booleans()):
        return scalar_mask(sym[0, 0])
    if p == 2 and draw(st.booleans()):
        return hermite_mask(sym)
    return vector_mask(sym)


@st.composite
def invertible(draw, p):
    r = RatMatrix.from_rows([[draw(fractions) for _ in range(p)] for _ in range(p)])
    assume(rank(r) == p)
    return r


@st.composite
def mask_and_transform(draw):
    mask = draw(masks())
    return mask, draw(invertible(mask.p))


@SETTINGS
@given(mask_and_transform())
def test_conjugate_matches_symbol_products(case):
    mask, r = case
    want = oracle.conjugate(mask, r)
    assert conjugate(mask, r) == want


def test_identity_conjugation_returns_the_mask(monkeypatch):
    """R = I is every scalar mask's canonical transform, and that of every
    mask whose 1-eigenspace is the whole space: conjugation by it gives the
    mask back, and their vector rounds run no basis change."""
    b = catalog.get("bspline3")
    b_entry, zero = b.symbol[0, 0], LaurentPoly()
    diagonal = vector_mask(SymbolMatrix(((b_entry, zero), (zero, b_entry))))
    smoothed = catalog.get("bspline4").symbol[0, 0]
    for mask in (b, diagonal, vector_mask(SymbolMatrix([[LaurentPoly()] * 3] * 3))):
        assert conjugate(mask, RatMatrix.identity(mask.p)) == mask
    monkeypatch.setattr(SymbolMatrix, "transform", lambda *args: pytest.fail("transformed"))
    assert smooth_vector(b) == catalog.get("bspline4")
    assert smooth_vector(diagonal) == vector_mask(SymbolMatrix(((smoothed, zero),
                                                               (zero, smoothed))))


small = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1), Fraction(2),
                         Fraction(1, 2)])


@st.composite
def masks_2x2_with_values(draw):
    """2x2 masks whose stacked matrix [A(1) - 2I; A(-1)] has each column
    zero or drawn from a small set of values, so that every kernel
    dimension occurs."""
    entries = [[None, None], [None, None]]
    for j in range(2):
        zero_column = draw(st.booleans())
        for i in range(2):
            at1, atm1 = (2 if i == j else 0), 0
            if not zero_column:
                at1, atm1 = draw(small), draw(small)
            entries[i][j] = with_values(draw(polys), at1, atm1)
    return vector_mask(SymbolMatrix(entries))


@SETTINGS
@given(st.one_of(masks_2x2_with_values(), masks(sizes=st.just(2))))
def test_2x2_eigenspace_matches_oracle(mask):
    """Every kernel dimension, span{e2} included: the Hermite rounds and
    certificates compare this basis with [e2]."""
    basis = common_one_eigenspace(mask)
    assert basis == oracle.one_eigenspace(mask)
    assert (basis == [hermite_module.E2]) == oracle.eigenspace_is_e2(mask)


def test_zero_stacked_matrix_eigenspace_is_the_plane():
    """A(1) = 2I and A(-1) = 0: the kernel is the whole plane, not span{e2}."""
    one_plus_z = LaurentPoly({0: 1, 1: 1})
    zero = LaurentPoly()
    mask = vector_mask(SymbolMatrix([[one_plus_z, zero], [zero, one_plus_z]]))
    assert common_one_eigenspace(mask) == oracle.one_eigenspace(mask)
    assert len(common_one_eigenspace(mask)) == 2
    assert not oracle.eigenspace_is_e2(mask)


@SETTINGS
@given(masks())
def test_cached_eigenspace_equals_fresh_kernel(mask):
    first = common_one_eigenspace(mask)
    assert first == oracle.one_eigenspace(mask)
    first.append(RatMatrix.column([0] * mask.p))
    first.clear()
    assert common_one_eigenspace(mask) == oracle.one_eigenspace(mask)


@st.composite
def stacked_and_invertible(draw):
    """A 2p x p matrix of rank r = 0..p, drawn as a product through r
    dimensions, and an invertible 2p x 2p matrix."""
    p = draw(st.integers(1, 3))
    r = draw(st.integers(0, p))
    m = zero(2 * p, p)
    if r:
        left = RatMatrix.from_rows([[draw(fractions) for _ in range(r)]
                                    for _ in range(2 * p)])
        m = matmul(left, RatMatrix.from_rows([[draw(fractions) for _ in range(p)]
                                              for _ in range(r)]))
    return m, draw(invertible(2 * p))


@SETTINGS
@given(stacked_and_invertible())
def test_kernel_basis_depends_only_on_the_kernel(case):
    """E M has the kernel of M, so it has the same basis list: comparing
    lists is how a vector round checks that it kept the 1-eigenspace."""
    m, e = case

    def kernel(a):
        return linalg._kernel(a.nums)
    assert kernel(matmul(e, m)) == kernel(m)


def test_vector_round_detects_a_moved_eigenspace(monkeypatch):
    """A round whose result has another eigenspace of the same dimension is
    reported as a bug."""
    real = vector_module._smooth_in_basis
    shear = RatMatrix.from_rows([[1, 0], [1, 1]])
    monkeypatch.setattr(vector_module, "_smooth_in_basis",
                        lambda mask, es: conjugate(real(mask, es), shear))
    with pytest.raises(ConsistencyError,
                       match="smoothing changed the common 1-eigenspace"):
        smooth_vector(catalog.get("double-knot"))


def _eliminations(monkeypatch):
    """The shape (rows, columns) of each call of linalg._eliminate, the one
    elimination that rref, invert, the canonical transform and the cached
    1-eigenspace run."""
    shapes = []
    real = linalg._eliminate
    for module in (linalg, masks_module):  # masks eliminates for the complement's pivots
        monkeypatch.setattr(module, "_eliminate",
                            lambda a: shapes.append((len(a), len(a[0]))) or real(a))
    return shapes


def _stacked(shapes):
    """How many eliminations were of a stacked matrix [A(1) - 2I; A(-1)]
    (2p x p; a complement is p x p, an inverse p x 2p): one per 1-eigenspace
    computed."""
    return sum(rows == 2 * cols for rows, cols in shapes)


def test_eigenspace_computed_once_per_mask(monkeypatch):
    shapes = _eliminations(monkeypatch)
    dk = catalog.get("double-knot")
    for _ in range(3):
        common_one_eigenspace(dk)
    canonical_transform(dk)
    assert _stacked(shapes) == 1


def test_fixed_transform_pairs_are_inverse():
    identity = RatMatrix.identity(2)
    assert matmul(R_TAYLOR, R_TAYLOR_INV) == identity == matmul(R_TAYLOR_INV, R_TAYLOR)
    for eta in (Fraction(0), Fraction(3), Fraction(-7, 5)):
        shear = RatMatrix.from_rows([[1, 0], [eta, 1]])
        inverse = RatMatrix.from_rows([[1, 0], [-eta, 1]])
        assert matmul(shear, inverse) == identity == matmul(inverse, shear)


def test_round_shears_by_zeta_of():
    """A Hermite round is the smoothed Taylor scheme conjugated by the shear
    [[1, 0], [zeta - 1, 1]], zeta = zeta_of(mask), then factored back."""
    rng = random.Random(11)
    inputs = [catalog.get(name) for name in ("merrien", "derham", "merrien-smoothed")]
    inputs += [rand_smoothing_ready_spectral(rng) for _ in range(5)]
    for mask in inputs:
        barred = oracle.conjugate(taylor_scheme(mask), R_TAYLOR)
        smoothed = oracle.conjugate(smooth_raw(barred, 1), invert(R_TAYLOR))
        shear = RatMatrix.from_rows([[1, 0], [zeta_of(mask) - 1, 1]])
        assert inverse_taylor(oracle.conjugate(smoothed, shear)) == smooth_hermite(mask)


def test_taylor_basis_operator_is_the_difference_in_the_taylor_basis():
    assert TAYLOR_BASIS_OPERATOR == difference_operator(2, 1).transform(R_TAYLOR,
                                                                        R_TAYLOR_INV)


def test_untwine_by_taylor_basis_operator_matches_three_steps():
    """One untwine by R D R**-1 is a vector round in the basis R: conjugate
    by R, smooth the first component, conjugate back."""
    basis = Eigenstructure(k=1, basis=(RatMatrix.column([0, 1]),), r=R_TAYLOR,
                           r_inv=R_TAYLOR_INV)
    rng = random.Random(13)
    inputs = [catalog.get(name) for name in ("merrien", "derham", "merrien-smoothed",
                                             "derham-smoothed")]
    inputs += [rand_smoothing_ready_spectral(rng) for _ in range(10)]
    for mask in inputs:
        tay = taylor_scheme(mask)
        assert (untwine(tay.symbol, TAYLOR_BASIS_OPERATOR)
                == vector_module._smooth_in_basis(tay, basis).symbol)


def test_hermite_round_conjugates_once_and_scales_nothing(monkeypatch):
    """A Hermite round conjugates by nothing: the shear is folded into the
    smoothing operator; its intertwinings fold their factor 2 or 1/2 into the
    operator symbol and update rows in one kernel call, so no symbol is
    scaled and no polynomial product or sum runs."""
    mask, want = catalog.get("derham"), catalog.get("derham-smoothed")
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    real = masks_module.conjugate
    for module in (masks_module, vector_module, hermite_module):  # catches a re-import
        monkeypatch.setattr(module, "conjugate", counted("conjugate", real), raising=False)
    for cls, attr in ((LaurentPoly, "scale"), (LaurentPoly, "__mul__"),
                      (LaurentPoly, "__add__")):
        monkeypatch.setattr(cls, attr, counted(attr, getattr(cls, attr)))
    assert smooth_hermite(mask) == want
    assert calls == []


def test_canonical_transform_refuses_overlapping_columns():
    """Mean matrix [[1, 1], [0, 1]]: eigenspace and complement are both
    span{e1}, so the transform would be singular."""
    one_plus_z = LaurentPoly({0: 1, 1: 1})
    mask = vector_mask(SymbolMatrix([[one_plus_z, one_plus_z],
                                     [LaurentPoly(), one_plus_z]]))
    with pytest.raises(EigenspaceError, match="eigenspace and complement overlap; "
                       "no canonical transform exists") as err:
        canonical_transform(mask)
    assert not isinstance(err.value, EmptyEigenspaceError)


def _count_linalg(monkeypatch):
    """Count eliminations and invert calls; rref, invert, the canonical
    transform and the cached 1-eigenspace all eliminate through
    linalg._eliminate, once each."""
    counts = {"eliminate": 0, "invert": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    eliminate = counted("eliminate", linalg._eliminate)
    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    monkeypatch.setattr(masks_module, "_eliminate", eliminate)
    inv = counted("invert", linalg.invert)
    monkeypatch.setattr(linalg, "invert", inv)
    monkeypatch.setattr(masks_module, "invert", inv)
    return counts


def test_hermite_chain_eliminates_once_per_round_plus_one(monkeypatch):
    """A chain from a fresh mask computes the Taylor scheme's eigenspace
    once, then each round's sheared scheme's: that is the next round's
    Taylor scheme, carried with its eigenspace.  Nothing is inverted."""
    rng = random.Random(5)
    inputs = [catalog.get("merrien"), catalog.get("derham")]
    inputs += [rand_smoothing_ready_spectral(rng) for _ in range(5)]
    counts = _count_linalg(monkeypatch)
    for mask in inputs:
        mask = hermite_mask(mask.symbol)  # maskgen caches the Taylor scheme
        for _ in range(3):
            mask = smooth_hermite(mask)
        assert counts == {"eliminate": 3 + 1, "invert": 0}
        counts.update(eliminate=0)


def test_vector_round_eliminations(monkeypatch):
    """A round on a 2x2 mask eliminates for the input's eigenspace (cached
    after the first round), the complement, the inverse transform and the
    result's eigenspace; the eigenspace check itself eliminates nothing, and
    the canonical transform inverts on integer rows, calling no invert."""
    counts = _count_linalg(monkeypatch)
    mask = catalog.get("double-knot")
    seen = []
    for _ in range(3):
        mask = smooth_vector(mask)
        seen.append(dict(counts))
        counts.update(eliminate=0, invert=0)
    assert seen == [{"eliminate": 4, "invert": 0}] + [{"eliminate": 3, "invert": 0}] * 2


def test_rounds_and_descents_evaluate_each_mask_at_one_once(monkeypatch):
    """The 1-eigenspace keeps A(1) and the canonical transform reads its rows
    there: three vector rounds evaluate the input and each result once, and
    so do the three descents of a certificate search."""
    seen = []
    real = SymbolMatrix.evaluate
    monkeypatch.setattr(SymbolMatrix, "evaluate",
                        lambda sym, x: (x == 1 and seen.append(sym)) or real(sym, x))
    rng = random.Random(3)
    for mask in (catalog.get("double-knot"), rand_convergent_style_mask(rng, 3, 2)):
        seen.clear()
        for _ in range(3):
            mask = smooth_vector(mask)
        assert len(seen) == len(set(seen)) == 4
    seen.clear()
    certify_vector(catalog.get("double-knot"), 2, 4)
    assert len(seen) == len(set(seen)) == 3


def test_vector_round_computes_each_eigenspace_once(monkeypatch):
    rng = random.Random(3)
    shapes = _eliminations(monkeypatch)
    for mask in (catalog.get("double-knot"), rand_convergent_style_mask(rng, 3, 2)):
        shapes.clear()
        for _ in range(4):
            mask = smooth_vector(mask)
        assert _stacked(shapes) == 5  # the input's, then each round's result's


def test_cli_smooth_computes_each_eigenspace_once(monkeypatch, tmp_path):
    shapes = _eliminations(monkeypatch)
    assert main(["smooth", "catalog:double-knot", "--rounds", "3",
                 "--out", str(tmp_path / "dk.mask")]) == 0
    assert _stacked(shapes) == 4



# -- a descent and a vector round in the canonical basis, against three steps ------

def _outcome(run):
    """run() or, for a refusal, the exception's type and text."""
    try:
        return run()
    except (SubsmoothError, ValueError) as exc:
        return type(exc), str(exc)


def _descents(mask, n, transform, descend):
    """The eigenstructure and derived mask of each of n descents, ending at
    the first refusal's type and text."""
    out = []
    for _ in range(n):
        es = _outcome(lambda: transform(mask))
        if isinstance(es, tuple) and not isinstance(es, Eigenstructure):
            return out + [es]
        mask = _outcome(lambda: descend(mask, es))
        out.append((es, mask))
        if not isinstance(mask, Mask):
            return out
    return out


def _unbudgeted(fn):
    def run(*args):
        with mock.patch.object(laurent, "MAX_WORK", math.inf):
            return fn(*args)
    return run


def _oracle_round(mask, es):
    try:
        return oracle.smooth_in_basis(mask, es)
    except NotDivisibleError:
        raise ConsistencyError("conjugated mask lost the smoothing condition") from None


def _assert_folds_match(mask, descents):
    """derived(A, k, es) and canonical_transform against the three-step
    descent and the Fraction transform, and a vector round's folded untwine
    and back-transform against conjugate, smooth_raw and conjugate."""
    assert (_descents(mask, descents, canonical_transform,
                      lambda m, es: derived(m, es.k, es))
            == _descents(mask, descents, oracle.canonical_transform, oracle.derived_in_basis))
    es = _outcome(lambda: canonical_transform(mask))
    if isinstance(es, Eigenstructure):
        assert (_outcome(lambda: vector_module._smooth_in_basis(mask, es))
                == _outcome(lambda: _oracle_round(mask, es)))


FOLD_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@FOLD_SETTINGS
@given(granted_vector_masks())
def test_fold_on_granted_vector_masks(case):
    mask, ell = case
    _assert_folds_match(mask, ell + 1)


@FOLD_SETTINGS
@given(granted_hermite_masks())
def test_fold_on_taylor_schemes_of_granted_hermite_masks(case):
    mask, ell = case
    _assert_folds_match(taylor_scheme(mask), ell)


@FOLD_SETTINGS
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 2))
def test_fold_on_convergent_style_masks(seed, p, k):
    _assert_folds_match(rand_convergent_style_mask(random.Random(seed), p, min(k + 1, p)), 2)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 2 ** 32))
def test_fold_on_long_denominators(p, seed):
    """The three steps price two operations and the fold one, so the three
    steps run without a budget and the fold is under it."""
    with mock.patch.object(oracle, "conjugate", _unbudgeted(oracle.conjugate)):
        _assert_folds_match(maskfile.parse(long_denominator_doc(p, seed)), 1)


@pytest.mark.parametrize("p", [4, 5])
def test_fold_on_long_denominators_over_the_budget(p):
    """Both ways refuse the first descent and the round over the work budget;
    the prices differ (the three steps price two operations, the fold one),
    and tests/test_front_end.py pins the fold's."""
    mask = maskfile.parse(long_denominator_doc(p))
    es = canonical_transform(mask)
    assert es == oracle.canonical_transform(mask)
    for run in (lambda: derived(mask, es.k, es),
                lambda: oracle.derived_in_basis(mask, es),
                lambda: vector_module._smooth_in_basis(mask, es),
                lambda: _oracle_round(mask, es)):
        with pytest.raises(WorkBudgetError):
            run()
