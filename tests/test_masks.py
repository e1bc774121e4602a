import random
from fractions import Fraction

import pytest

from subsmooth import (EmptyEigenspaceError,
                       LaurentPoly, RatMatrix, SymbolMatrix,
                       canonical_transform, catalog, common_one_eigenspace,
                       conjugate, even_odd_mean, invert, scalar_mask,
                       stencil_norm, vector_mask)

from tests.maskgen import rand_laurent, rand_unimodular, span_equal
from tests.masks_oracle import add, col, matmul, sub, zero

LP = LaurentPoly


def diag_embedding(f, p=2):
    rows = [[f if i == j else LP() for j in range(p)] for i in range(p)]
    return vector_mask(SymbolMatrix(tuple(tuple(r) for r in rows)))


class TestEvenOddSums:
    """The symbol values at +-1 are the sums and differences of the even-
    and odd-indexed coefficients, which common_one_eigenspace reads."""

    def test_scalar_hat(self):
        m = scalar_mask(LP({0: 1, 1: 1}))
        assert m.symbol.evaluate(1) == RatMatrix.from_rows([[2]])
        assert m.symbol.evaluate(-1) == RatMatrix.from_rows([[0]])

    def test_double_knot_sum_is_value_at_one(self):
        dk = catalog.get("double-knot")
        assert dk.symbol.evaluate(1) == RatMatrix.from_rows([["9/8", "7/8"], ["7/8", "9/8"]])
        assert dk.symbol.evaluate(-1) == RatMatrix.from_rows([["-3/8", "3/8"], ["3/8", "-3/8"]])

    def test_merrien_even_sum(self):
        s = catalog.get("merrien").symbol
        assert add(s.evaluate(1), s.evaluate(-1)) == RatMatrix.from_rows([[2, 0], [0, 1]])

    def test_matches_direct_coefficient_summation(self):
        for name in ("double-knot", "merrien", "derham"):
            m = catalog.get(name)
            lo, hi = m.support
            se = so = zero(m.p, m.p)
            for i in range(lo, hi + 1):
                if i % 2 == 0:
                    se = add(se, m.coefficient(i))
                else:
                    so = add(so, m.coefficient(i))
            assert (m.symbol.evaluate(1), m.symbol.evaluate(-1)) == (add(se, so), sub(se, so))


class TestCommonOneEigenspace:
    def test_double_knot(self):
        basis = common_one_eigenspace(catalog.get("double-knot"))
        assert len(basis) == 1
        assert col(basis[0], 0) == (1, 1)

    def test_diagonal_embedding_has_full_space(self):
        m = diag_embedding(LP({0: 1, 1: 1}))
        assert len(common_one_eigenspace(m)) == 2

    def test_merrien_taylor_scheme_is_e2(self):
        from subsmooth import taylor_scheme
        t = taylor_scheme(catalog.get("merrien"))
        basis = common_one_eigenspace(t)
        assert len(basis) == 1
        assert basis[0][0, 0] == 0 and basis[0][1, 0] != 0


class TestEvenOddMean:
    def test_double_knot(self):
        m = even_odd_mean(catalog.get("double-knot"))
        assert m == RatMatrix.from_rows([["9/16", "7/16"], ["7/16", "9/16"]])

    def test_identity_like(self):
        assert even_odd_mean(diag_embedding(LP({0: 1, 1: 1}))) == RatMatrix.identity(2)

    def test_smoothed_double_knot(self):
        from subsmooth import smooth_vector
        a = smooth_vector(catalog.get("double-knot"))
        assert even_odd_mean(a) == RatMatrix.from_rows([["10/16", "6/16"],
                                                        ["9/16", "7/16"]])


class TestOperatorNorm:
    def test_linear_bspline(self):
        assert stencil_norm(catalog.get("bspline1").symbol, 2) == 1

    def test_halved_two_tap(self):
        m = scalar_mask(LP({0: "1/2", 1: "1/2"}))
        assert stencil_norm(m.symbol, 2) == Fraction(1, 2)

    def test_zero_mask(self):
        assert stencil_norm(scalar_mask(LP()).symbol, 2) == 0

    @pytest.mark.parametrize("arity", [0, -1])
    def test_arity_below_one_is_refused_by_name(self, arity):
        with pytest.raises(ValueError, match="^arity must be >= 1$"):
            stencil_norm(catalog.get("bspline1").symbol, arity)

    def test_norm_zero_iff_zero_symbol(self):
        rng = random.Random(123)
        for _ in range(20):
            f = rand_laurent(rng)
            assert (stencil_norm(scalar_mask(f).symbol, 2) == 0) == f.is_zero()


class TestConjugate:
    def test_identity_transform(self):
        dk = catalog.get("double-knot")
        assert conjugate(dk, RatMatrix.identity(2)) == dk

    def test_double_knot_normalization(self):
        dk = catalog.get("double-knot")
        r = RatMatrix.from_rows([[1, -1], [1, 1]])
        barred = conjugate(dk, r)
        e = Fraction(1, 8)
        expected = SymbolMatrix((
            (LP({0: 4 * e, 1: 8 * e, 2: 4 * e}), LP({0: -3 * e, 2: 3 * e})),
            (LP({0: 2 * e, 2: -2 * e}), LP({0: -e, 1: 4 * e, 2: -e})),
        ))
        assert barred.symbol == expected

    def test_round_trip(self):
        rng = random.Random(124)
        dk = catalog.get("double-knot")
        for _ in range(10):
            r = rand_unimodular(rng, 2)
            assert conjugate(conjugate(dk, r), invert(r)) == dk

    def test_eigenspace_transforms_contravariantly(self):
        rng = random.Random(125)
        dk = catalog.get("double-knot")
        for _ in range(10):
            r = rand_unimodular(rng, 2)
            rinv = invert(r)
            before = common_one_eigenspace(dk)
            after = common_one_eigenspace(conjugate(dk, r))
            mapped = [matmul(rinv, v) for v in before]
            assert span_equal(after, mapped)


class TestCanonicalTransform:
    def test_double_knot(self):
        es = canonical_transform(catalog.get("double-knot"))
        assert es.k == 1
        assert col(es.r, 0) == (1, 1)
        c1 = col(es.r, 1)
        assert c1[0] * 1 == c1[1] * -1  # collinear with (-1, 1)

    def test_full_eigenspace_gives_identity(self):
        m = diag_embedding(LP({0: 1, 1: 1}))
        es = canonical_transform(m)
        assert es.k == 2
        assert es.r == RatMatrix.identity(2)

    def test_taylor_mask_structure(self):
        from subsmooth import taylor_scheme
        t = taylor_scheme(catalog.get("merrien"))
        es = canonical_transform(t)
        assert es.k == 1
        assert es.r[0, 0] == 0  # first column spans e2
        c1 = col(es.r, 1)
        assert c1[0] == -c1[1]  # complement collinear with (1, -1)

    def test_empty_eigenspace_raises(self):
        with pytest.raises(EmptyEigenspaceError):
            canonical_transform(scalar_mask(LP()))

    def test_conjugated_mean_is_block_diagonal(self):
        dk = catalog.get("double-knot")
        es = canonical_transform(dk)
        barred = conjugate(dk, es.r)
        m = even_odd_mean(barred)
        assert m[0, 0] == 1
        assert m[0, 1] == 0 and m[1, 0] == 0
