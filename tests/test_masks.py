import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from bench import workloads
from subsmooth import (EmptyEigenspaceError,
                       LaurentPoly, RatMatrix, SymbolMatrix,
                       canonical_transform, catalog, common_one_eigenspace,
                       conjugate, even_odd_mean, invert, maskfile, refine, scalar_mask,
                       stencil_norm, vector_mask)
from subsmooth.laurent import _normalize

from tests import laurent_oracle
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


def _symbol(rows) -> SymbolMatrix:
    """A symbol from rows of (lo, numerators, denominator), each normalized;
    None is the zero entry."""
    return SymbolMatrix([[LP() if e is None else _normalize(*e) for e in row]
                         for row in rows])


def _row_totals(symbol) -> list[int]:
    """Per row, f * sum |x| over its entries, f the entry's share of the
    lcm of the row's denominators: the figure that picks stencil_norm's path."""
    out = []
    for row in symbol.entries:
        den = math.lcm(*(e.den for e in row))
        out.append(sum(den // e.den * sum(map(abs, e.nums)) for e in row))
    return out


def _rand_symbol(rng: random.Random, p: int, bits: int) -> SymbolMatrix:
    return _symbol([[None if rng.random() < 0.2 else
                     (rng.randint(-9, 4),
                      [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, bits))
                       if rng.random() < 0.8 else 0 for _ in range(rng.randint(1, 9))],
                      rng.choice((1, 2, 3, 5, 6, 7, 12, 2 ** 64 + 1)))
                     for _ in range(p)] for _ in range(p)])


# 2 ** 64 - 4 is a multiple of 3: the entry of the second column, over 1 in a
# row over 3, counts three times its numerator towards the row's total
_EDGE = (2 ** 64 - 4) // 3

NORM_CASES = {
    # the path boundary: every term in one class mod 2 (exponents -3, -1, 5), so that
    # one class sum is the whole total, 2 ** 64 - 1 (one slot) or 2 ** 64 (a carry)
    "total-2**64-1": _symbol([[(-3, (1, 0, 2), 3), (5, (_EDGE,), 1)],
                              [None, (-1, (7, 5), 2)]]),
    "total-2**64": _symbol([[(-3, (1, 0, 3), 3), (5, (_EDGE,), 1)],
                            [None, (-1, (7, 5), 2)]]),
    # 2 ** 64 - 1 spread over the classes and blocks of one entry
    "spread-2**64-1": _symbol([[(0, (2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62 - 1), 1)]]),
    # every term below 2 ** 64, the middle one too, and their total above it
    "terms-below-2**64": _symbol([[(0, (2 ** 63, 2 ** 63 - 1, 2 ** 63), 1)]]),
    "numerators-over-2**64": _symbol([[(-1, (2 ** 64, -(2 ** 70 + 1), 5), 7),
                                       (2, (3, 2 ** 64 - 1), 1)],
                                      [(-5, (1, -1), 3), (0, (2 ** 80,), 11)]]),
    # lo negative and not a multiple of the arity, entries shorter than it
    "negative-lo": _symbol([[(-7, (3, 1, 0, 4), 5), (-2, (1,), 2)],
                            [(1, (-6, 0, 5), 7), (-9, (2, 2, 2, 2, 2), 1)]]),
    "zero-row-and-entry": _symbol([[None, None, None],
                                   [(0, (1, 2, 1), 4), None, (-1, (1, -1), 2)],
                                   [None, (3, (5,), 3), None]]),
    "zero-symbol": _symbol([[None, None], [None, None]]),
    # the largest row is not the one with the largest denominator
    "row-denominators": _symbol([[(0, (4, 4), 5), (1, (1,), 5)],
                                 [(0, (6, 1, 6), 7), (-2, (1, 3), 14)]]),
}
NORM_CASES.update({f"random-{p}x{p}-{bits}": _rand_symbol(random.Random(10 * p + bits), p, bits)
                   for p in (1, 2, 3) for bits in (8, 40, 70)})


class TestStencilNormAgainstOracle:
    """stencil_norm equals the dict-of-Fraction norm of tests/laurent_oracle,
    on both sides of the row total 2 ** 64 that picks its path."""

    @staticmethod
    def assert_oracle_norm(symbol, arity):
        entries = [[laurent_oracle.to_dict(e) for e in row] for row in symbol.entries]
        assert stencil_norm(symbol, arity) == laurent_oracle.stencil_norm(entries, arity)

    def test_boundary_totals(self):
        assert _row_totals(NORM_CASES["total-2**64-1"])[0] == 2 ** 64 - 1
        assert _row_totals(NORM_CASES["total-2**64"])[0] == 2 ** 64
        assert _row_totals(NORM_CASES["spread-2**64-1"]) == [2 ** 64 - 1]
        assert _row_totals(NORM_CASES["terms-below-2**64"]) == [3 * 2 ** 63 - 1]
        # the whole total in one class: one slot at its largest value, then a carry
        assert stencil_norm(NORM_CASES["total-2**64-1"], 2) == Fraction(2 ** 64 - 1, 3)
        assert stencil_norm(NORM_CASES["total-2**64"], 2) == Fraction(2 ** 64, 3)

    @pytest.mark.parametrize("arity", [1, 2, 3, 4, 5, 16, 64])
    @pytest.mark.parametrize("name", NORM_CASES)
    def test_matches_oracle(self, name, arity):
        self.assert_oracle_norm(NORM_CASES[name], arity)

    @pytest.mark.parametrize("ref, ell, lmax", [("catalog:merrien", 2, 10), ("bitgrowth", 1, 8)])
    def test_every_power_of_a_search(self, ref, ell, lmax, tmp_path):
        """Each norm of the lmax-10 refusal of merrien at ell 2 (rows below
        2 ** 64) and of a seeded certify-bitgrowth mask (rows above it)."""
        if ref == "bitgrowth":
            workloads.write_inputs("certify-bitgrowth", 1, str(tmp_path))
            mask = maskfile.load(str(tmp_path / "hermite-0.mask"))
        else:
            mask = catalog.get(ref[len("catalog:"):])
        seen = []
        with mock.patch.object(refine, "stencil_norm",
                               side_effect=lambda s, a: seen.append((s, a)) or stencil_norm(s, a)):
            refine.certify_hermite(mask, ell, lmax)
        assert [a for _, a in seen] == [2 ** L for L in range(1, lmax + 1)]
        assert (max(_row_totals(seen[-1][0])) < 2 ** 64) == (ref != "bitgrowth")
        for symbol, arity in seen:
            self.assert_oracle_norm(symbol, arity)


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
