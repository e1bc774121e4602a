import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsmooth import (RatMatrix, SingularMatrixError, canonical_transform, derived, invert,
                       laurent, maskfile, smooth_raw)
from subsmooth.linalg import _eliminate, _invert, _kernel, rref

import tests.masks_oracle as oracle
from tests.maskgen import long_denominator_doc, rand_fraction
from tests.masks_oracle import col, matmul, rank, sub, zero


def M(rows):
    return RatMatrix.from_rows(rows)


def kernel(m):
    return _kernel(m.nums)


class TestKernel:
    def test_zero_matrix_full_kernel(self):
        assert [col(v, 0) for v in kernel(zero(2, 2))] == [(1, 0), (0, 1)]

    def test_identity_trivial_kernel(self):
        assert kernel(RatMatrix.identity(2)) == []

    def test_double_knot_odd_sum_kernel(self):
        m = M([["-3/8", "3/8"], ["3/8", "-3/8"]])
        basis = kernel(m)
        assert len(basis) == 1
        assert col(basis[0], 0) == (1, 1)


def column_space(m):
    """The pivot columns of m, the complement basis canonical_transform reads."""
    return [col(m, c) for c in _eliminate(m.nums)[1]]


class TestColumnSpace:
    def test_identity(self):
        assert column_space(RatMatrix.identity(2)) == [(1, 0), (0, 1)]

    def test_zero(self):
        assert column_space(zero(3, 3)) == []

    def test_double_knot_mean_minus_identity(self):
        m = M([["-7/16", "7/16"], ["7/16", "-7/16"]])
        basis = column_space(m)
        assert len(basis) == 1
        v = basis[0]
        # collinear with (-1, 1)
        assert v[0] * 1 == v[1] * -1
        assert v[0] != 0


class TestInvert:
    def test_planar_rotation_like(self):
        m = M([[1, -1], [1, 1]])
        assert invert(m) == M([["1/2", "1/2"], ["-1/2", "1/2"]])

    def test_taylor_transform(self):
        assert invert(M([[0, 1], [1, -1]])) == M([[1, 1], [1, 0]])

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            invert(M([[1, 1], [1, 1]]))


def rand_matrix(rng, n, m):
    return RatMatrix(n, m, [rand_fraction(rng) for _ in range(n * m)])


def test_invert_round_trip_fuzz():
    rng = random.Random(9001)
    done = 0
    while done < 25:
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        try:
            mi = invert(m)
        except SingularMatrixError:
            continue
        assert matmul(m, mi) == RatMatrix.identity(n)
        assert matmul(mi, m) == RatMatrix.identity(n)
        done += 1


def test_rank_nullity_fuzz():
    rng = random.Random(9002)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = rand_matrix(rng, n, m)
        ker, pivots = kernel(mat), _eliminate(mat.nums)[1]
        assert len(ker) + len(pivots) == m
        assert len(pivots) == rank(mat)
        for v in ker:
            assert matmul(mat, v).is_zero()


def test_rref_pivots_are_sorted_and_normalized():
    rng = random.Random(9003)
    for _ in range(20):
        mat = rand_matrix(rng, 3, 4)
        red, pivots = rref(mat)
        assert pivots == sorted(pivots)
        for r, c in enumerate(pivots):
            assert red[r, c] == 1
            for other in range(3):
                if other != r:
                    assert red[other, c] == 0


def test_fraction_arithmetic_is_exact():
    rng = random.Random(9004)
    for _ in range(100):
        a, b = rand_fraction(rng), rand_fraction(rng)
        assert (a + b) - b == a
        assert a + b == b + a
        if b != 0:
            assert (a / b) * b == a


# -- the integer elimination against the Fraction Gauss-Jordan oracle ---------------

def assert_lowest_terms(m):
    """Each row of m is integers over a positive denominator with no common
    factor, so equal matrices have equal fields."""
    assert len(m.nums) == len(m.dens) == m.rows
    for row, den in zip(m.nums, m.dens):
        assert len(row) == m.cols and den > 0 and math.gcd(den, *row) == 1


def assert_matches_oracle(m):
    """rref, _kernel, the pivots of _eliminate, _invert and invert (or their
    refusal) equal the oracle's, the pivots read off its column space basis and
    the square leading block standing in for the inverses; each matrix they
    return is in lowest terms."""
    assert rref(m) == oracle.rref(m)
    assert kernel(m) == oracle.kernel_basis(m)
    for result in (m, rref(m)[0], *kernel(m)):
        assert_lowest_terms(result)
    assert column_space(m) == [col(v, 0) for v in oracle.column_space_basis(m)]
    k = min(m.rows, m.cols)
    square = RatMatrix(k, k, [m[i, j] for i in range(k) for j in range(k)])
    try:
        want = oracle.invert(square)
    except SingularMatrixError:
        for inverse in (invert, lambda x: _invert(x.nums, x.dens)):
            with pytest.raises(SingularMatrixError, match="matrix is singular"):
                inverse(square)
    else:
        assert invert(square) == want
        assert _invert(square.nums, square.dens) == want
        assert_lowest_terms(invert(square))


small_entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# about 300 digits over up to 300 digits
huge_entries = st.builds(Fraction, st.integers(-10 ** 300, 10 ** 300),
                         st.integers(1, 10 ** 300))


@st.composite
def matrices_of_every_rank(draw):
    """1..6 x 1..10 matrices drawn as a product through r = 0..min dimensions
    (so of rank r for almost every draw), with equal rows and zero rows
    written in, which make rows vanish during the elimination."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    r = draw(st.integers(0, min(rows, cols)))
    entries = draw(st.sampled_from([small_entries, huge_entries]))
    m = zero(rows, cols)
    if r:
        left = RatMatrix.from_rows([[draw(entries) for _ in range(r)] for _ in range(rows)])
        m = matmul(left, RatMatrix.from_rows([[draw(small_entries) for _ in range(cols)]
                                              for _ in range(r)]))
    a = [list(m.row(i)) for i in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a[j] = list(a[i]) if draw(st.booleans()) else [Fraction(0)] * cols
    return RatMatrix.from_rows(a)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices_of_every_rank())
def test_elimination_matches_fraction_oracle(m):
    assert_matches_oracle(m)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_long_denominator_matrices_match_fraction_oracle(p):
    """The three matrices a basis change of a long-denominator file
    eliminates (1000-character entries over independent ~490-digit
    denominators): the stacked [A(1) - 2I; A(-1)], A(1)/2 - I and the
    canonical transform.  At p = 5 the oracle takes seconds."""
    mask = maskfile.parse(long_denominator_doc(p))
    at1, atm1 = mask.symbol.evaluate(1), mask.symbol.evaluate(-1)
    top = sub(at1, RatMatrix.identity(p).scale(2))
    mean = sub(at1.scale(Fraction(1, 2)), RatMatrix.identity(p))
    for m in (RatMatrix(2 * p, p, top.entries + atm1.entries), mean,
              canonical_transform(mask).r):
        assert_matches_oracle(m)


# -- the stored form: integer rows, each over its own denominator -------------------

@pytest.mark.parametrize("build", [
    lambda: RatMatrix.identity(0), lambda: RatMatrix.identity(-2),
    lambda: RatMatrix.from_rows([]), lambda: RatMatrix.column([]),
    lambda: RatMatrix(0, 2, []), lambda: RatMatrix(2, -1, []),
], ids=["identity-0", "identity-minus-2", "from-rows-empty", "column-empty",
        "no-rows", "negative-cols"])
def test_every_constructor_refuses_a_matrix_without_entries(build):
    with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
        build()


# few distinct values written several ways, so that equal matrices are drawn often
pool_entries = st.sampled_from([0, 1, -2, "0", "2/4", "-6/3", "1/2", Fraction(3, 6),
                                Fraction(-5, 7), "10/14", 10 ** 40, Fraction(1, 3 ** 30)])


@st.composite
def shaped_entries(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return rows, cols, draw(st.lists(st.one_of(pool_entries, small_entries, huge_entries),
                                     min_size=rows * cols, max_size=rows * cols))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shaped_entries(), shaped_entries(), small_entries)
def test_stored_rows_are_in_lowest_terms_and_give_back_the_entries(a, b, c):
    """Whatever the entries and however they are written, the rows are in
    lowest terms, the entries read back as given, and two matrices are equal,
    with equal hashes, exactly when their shapes and entries are."""
    ma, mb = RatMatrix(*a), RatMatrix(*b)
    for m, (rows, cols, xs) in ((ma, a), (mb, b)):
        assert (m.rows, m.cols) == (rows, cols)
        assert m.entries == tuple(Fraction(x) for x in xs)
        assert [m[i, j] for i in range(rows) for j in range(cols)] == list(m.entries)
        # show and repr print the rows' own strings: str() of each entry
        assert sum(m._strings(), []) == [str(x) for x in m.entries]
        assert_lowest_terms(m)
        assert_lowest_terms(m.scale(c))
        assert m.scale(c).entries == tuple(c * x for x in m.entries)
    same = (a[:2], ma.entries) == (b[:2], mb.entries)
    assert (ma == mb) == same == (RatMatrix(*a) == RatMatrix(b[0], b[1], mb.entries))
    if same:
        assert hash(ma) == hash(mb)
        assert repr(ma) == repr(mb)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices_of_every_rank())
def test_integer_rows_equal_the_reference(m):
    """The integers and the lcm that a basis change hands to intertwine and
    untwine, zero rows included, are those of the Fraction reference."""
    assert laurent._integer_rows(m) == oracle.integer_rows(m)


class _Recorded(Exception):
    pass


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_twine_receives_the_reference_rows_of_long_denominators(p):
    """The constant L and R of the descent and the round in the canonical
    basis of a long-denominator file are the reference's integer rows of R
    and R**-1, transposed for the descent; these fix every price."""
    mask = maskfile.parse(long_denominator_doc(p))
    es = canonical_transform(mask)
    seen = []

    def record(s, d, step, scale, left, right):
        seen.append((left, right))
        raise _Recorded

    with mock.patch.object(laurent, "_twine", record):
        for call in (derived, smooth_raw):
            with pytest.raises(_Recorded):
                call(mask, es.k, es)
    r, r_inv = oracle.integer_rows(es.r), oracle.integer_rows(es.r_inv)

    def transposed(rows_den):
        return tuple(zip(*rows_den[0])), rows_den[1]
    assert seen == [(transposed(r), transposed(r_inv)), (r_inv, r)]
