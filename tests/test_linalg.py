import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsmooth import (RatMatrix, SingularMatrixError, canonical_transform,
                       column_space_basis, invert, kernel_basis, maskfile)
from subsmooth.linalg import rref

import tests.masks_oracle as oracle
from tests.maskgen import long_denominator_doc, rand_fraction
from tests.masks_oracle import rank


def M(rows):
    return RatMatrix.from_rows(rows)


class TestKernel:
    def test_zero_matrix_full_kernel(self):
        basis = kernel_basis(RatMatrix.zero(2, 2))
        assert [v.col(0) for v in basis] == [(1, 0), (0, 1)]

    def test_identity_trivial_kernel(self):
        assert kernel_basis(RatMatrix.identity(2)) == []

    def test_double_knot_odd_sum_kernel(self):
        m = M([["-3/8", "3/8"], ["3/8", "-3/8"]])
        basis = kernel_basis(m)
        assert len(basis) == 1
        assert basis[0].col(0) == (1, 1)


class TestColumnSpace:
    def test_identity(self):
        basis = column_space_basis(RatMatrix.identity(2))
        assert [v.col(0) for v in basis] == [(1, 0), (0, 1)]

    def test_zero(self):
        assert column_space_basis(RatMatrix.zero(3, 3)) == []

    def test_double_knot_mean_minus_identity(self):
        m = M([["-7/16", "7/16"], ["7/16", "-7/16"]])
        basis = column_space_basis(m)
        assert len(basis) == 1
        v = basis[0]
        # collinear with (-1, 1)
        assert v[0, 0] * 1 == v[1, 0] * -1
        assert v[0, 0] != 0


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
        assert m @ mi == RatMatrix.identity(n)
        assert mi @ m == RatMatrix.identity(n)
        done += 1


def test_rank_nullity_fuzz():
    rng = random.Random(9002)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = rand_matrix(rng, n, m)
        ker = kernel_basis(mat)
        col = column_space_basis(mat)
        assert len(ker) + len(col) == m
        assert len(col) == rank(mat)
        for v in ker:
            assert (mat @ v).is_zero()


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

def assert_matches_oracle(m):
    """rref, kernel_basis, column_space_basis and invert (or its refusal)
    equal the oracle's, the square leading block standing in for invert."""
    assert rref(m) == oracle.rref(m)
    assert kernel_basis(m) == oracle.kernel_basis(m)
    assert column_space_basis(m) == oracle.column_space_basis(m)
    k = min(m.rows, m.cols)
    square = RatMatrix(k, k, [m[i, j] for i in range(k) for j in range(k)])
    try:
        want = oracle.invert(square)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            invert(square)
    else:
        assert invert(square) == want


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
    m = RatMatrix.zero(rows, cols)
    if r:
        left = RatMatrix.from_rows([[draw(entries) for _ in range(r)] for _ in range(rows)])
        m = left @ RatMatrix.from_rows([[draw(small_entries) for _ in range(cols)]
                                        for _ in range(r)])
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
    top = at1 - RatMatrix.identity(p).scale(2)
    mean = at1.scale(Fraction(1, 2)) - RatMatrix.identity(p)
    for m in (RatMatrix(2 * p, p, top.entries + atm1.entries), mean,
              canonical_transform(mask).r):
        assert_matches_oracle(m)
