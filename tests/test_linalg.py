import random

import pytest

from subsmooth import (RatMatrix, SingularMatrixError, column_space_basis,
                       invert, kernel_basis)
from subsmooth.linalg import rref

from tests.maskgen import rand_fraction
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
