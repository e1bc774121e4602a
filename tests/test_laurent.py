import math
import random
from fractions import Fraction

import pytest

from subsmooth import (LaurentPoly, NotDivisibleError, Z_PLUS_1,
                       ZINV2_MINUS_1, ZINV_MINUS_1, divide_exact)

from tests.hermite_oracle import root_multiplicity_at_one
from tests.maskgen import rand_laurent


def LP(coeffs):
    return LaurentPoly(coeffs)


class TestEvaluate:
    def test_at_one(self):
        assert LP({0: 1, 1: 1}).evaluate(1) == 2

    def test_at_minus_one(self):
        assert LP({0: 1, 1: 1}).evaluate(-1) == 0

    def test_double_knot_entry(self):
        f = LP({0: "2/8", 1: "6/8", 2: "1/8"})
        assert f.evaluate(1) == Fraction(9, 8)

    def test_derivative_simple(self):
        assert LP({1: 1}).derivative_at(1) == 1
        f = LP({0: 1, 2: 1})
        assert f.derivative_at(1) == 2
        assert f.derivative_at(-1) == -2

    def test_derivative_hermite_entry(self):
        f = LP({-1: "3/4", 1: "-3/4"})
        assert f.derivative_at(1) == Fraction(-3, 2)


class TestRingOps:
    def test_square_of_binomial(self):
        assert Z_PLUS_1 * Z_PLUS_1 == LP({0: 1, 1: 2, 2: 1})

    def test_shift(self):
        assert LP({0: 1, 1: 1}).shift(-1) == LP({-1: 1, 0: 1})

    def test_quadratic_bspline_symbol(self):
        factor = LP({-1: "1/2", 0: "1/2"})  # (z+1)/2 * z^-1
        sym = factor * factor * Z_PLUS_1
        assert sym == LP({-2: "1/4", -1: "3/4", 0: "3/4", 1: "1/4"})

    def test_dilate(self):
        assert LP({0: 1, 1: 1}).dilate() == LP({0: 1, 2: 1})
        assert LP({-1: 1}).dilate() == LP({-2: 1})

    def test_dilated_product_value(self):
        # symbol of the two-fold linear B-spline operator, evaluated at 1
        a = LP({-1: "1/2", 0: 1, 1: "1/2"})
        sym2 = a * a.dilate()
        assert sym2.evaluate(1) == 4

    def test_zero_support_is_none(self):
        assert LaurentPoly.zero().support is None
        assert (LP({3: 1}) - LP({3: 1})).support is None


class TestDivision:
    def test_smoothing_quotient(self):
        f = LP({0: "-3/8", 2: "3/8"})  # (3/8)(z^2 - 1)
        q = divide_exact(f, ZINV_MINUS_1)
        assert q == LP({1: "-3/8", 2: "-3/8"})
        assert q * ZINV_MINUS_1 == f

    def test_difference_of_squares(self):
        f = LP({0: -1, 2: 1})
        q = divide_exact(f, ZINV2_MINUS_1)
        assert q == LP({2: -1})
        assert q * ZINV2_MINUS_1 == f

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError) as err:
            divide_exact(Z_PLUS_1, ZINV_MINUS_1)
        assert err.value.remainder is not None

    def test_unsupported_divisor_rejected(self):
        for d in (LP({0: 1, 3: 1}), Z_PLUS_1, LP({-1: 1, 0: 1})):
            with pytest.raises(ValueError):
                divide_exact(Z_PLUS_1, d)

    # z + 1 and 1/z + 1 (d0, d1) are refused: only the two divisors of the
    # smoothing calculus (d2, d3) are accepted
    @pytest.mark.parametrize("d", [Z_PLUS_1, LP({-1: 1, 0: 1}), ZINV_MINUS_1, ZINV2_MINUS_1])
    def test_divide_then_remultiply_fuzz(self, d):
        rng = random.Random(hash(tuple(sorted(d.coeffs))) & 0xFFFF)
        for _ in range(50):
            q = rand_laurent(rng, -3, 3)
            f = q * d
            if d in (ZINV_MINUS_1, ZINV2_MINUS_1):
                assert divide_exact(f, d) == q
            else:
                with pytest.raises(ValueError, match="unsupported divisor"):
                    divide_exact(f, d)


class TestRootMultiplicity:
    def test_double_root(self):
        f = ZINV_MINUS_1 * ZINV_MINUS_1  # associate of (z-1)^2
        assert root_multiplicity_at_one(f) == 2
        g = LP({0: 1, 1: -2, 2: 1})  # (z-1)^2 exactly
        assert root_multiplicity_at_one(g) == 2

    def test_no_root(self):
        assert root_multiplicity_at_one(Z_PLUS_1) == 0

    def test_hermite_coupling_entry(self):
        f = LP({-1: "-1/8", 1: "1/8"})
        assert root_multiplicity_at_one(f) == 1

    def test_zero_poly(self):
        assert root_multiplicity_at_one(LaurentPoly.zero()) == math.inf

    def test_multiplication_adds_one(self):
        rng = random.Random(77)
        z_minus_1 = LP({1: 1, 0: -1})
        for _ in range(30):
            f = rand_laurent(rng)
            if f.is_zero():
                continue
            assert (root_multiplicity_at_one(f * z_minus_1)
                    == root_multiplicity_at_one(f) + 1)


def test_multiplicativity_of_evaluation():
    rng = random.Random(78)
    for _ in range(40):
        f, g = rand_laurent(rng), rand_laurent(rng)
        for s in (1, -1):
            assert (f * g).evaluate(s) == f.evaluate(s) * g.evaluate(s)


def test_leibniz_rule_at_one():
    rng = random.Random(79)
    for _ in range(40):
        f, g = rand_laurent(rng), rand_laurent(rng)
        lhs = (f * g).derivative_at(1)
        rhs = f.derivative_at(1) * g.evaluate(1) + f.evaluate(1) * g.derivative_at(1)
        assert lhs == rhs
