import random
from fractions import Fraction

import pytest

import subsmooth.vector_smoothing as vector_module
from subsmooth import (ConsistencyError, EmptyEigenspaceError, Kind,
                       LaurentPoly, NotDivisibleError, RatMatrix,
                       SymbolMatrix, canonical_transform, catalog,
                       common_one_eigenspace, conjugate, derived, scalar_mask,
                       smooth_raw, smooth_vector, vector_mask)
from tests.maskgen import (intertwines_difference, rand_derivable_mask,
                           rand_smoothable_mask)
from tests.masks_oracle import col, matmul

LP = LaurentPoly
HALF = Fraction(1, 2)


def bspline_symbol(l):
    return catalog.get(f"bspline{l}").symbol[0, 0]


class TestScalar:
    def test_derived_keeps_shift_factor(self):
        # 2z(1+z)/(z+1) = 2z; the z factor is the index-shift convention
        out = derived(scalar_mask(LP({0: 1, 1: 1})), 1)
        assert out.symbol[0, 0] == LP({1: 2})

    def test_derived_rejects_nonzero_at_minus_one(self):
        with pytest.raises(NotDivisibleError):
            derived(scalar_mask(LP({0: 1, 2: 1})), 1)

    def test_derived_lowers_bspline_degree(self):
        for l in range(1, 7):
            out = derived(catalog.get(f"bspline{l}"), 1)
            assert out.symbol[0, 0] == bspline_symbol(l - 1)

    def test_smooth_raises_bspline_degree(self):
        m = catalog.get("bspline0")
        for l in range(1, 7):
            m = smooth_raw(m, 1)
            assert m.symbol[0, 0] == bspline_symbol(l)

    def test_smooth_bspline0_gives_hat(self):
        out = smooth_raw(scalar_mask(LP({0: 1, 1: 1})), 1)
        assert out.symbol[0, 0] == LP({-1: "1/2", 0: 1, 1: "1/2"})

    def test_round_trip(self):
        rng = random.Random(200)
        for _ in range(30):
            f = LP({e: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for e in range(-2, 3)})
            m = scalar_mask(f)
            assert derived(smooth_raw(m, 1), 1).symbol[0, 0] == f


class TestBlockConditions:
    def test_double_knot_not_smoothable_raw(self):
        with pytest.raises(NotDivisibleError):
            smooth_raw(catalog.get("double-knot"), 1)

    def test_conjugated_double_knot_smoothable(self):
        dk = catalog.get("double-knot")
        barred = conjugate(dk, RatMatrix.from_rows([[1, -1], [1, 1]]))
        smooth_raw(barred, 1)  # NotDivisibleError unless smoothable
        assert barred.symbol[0, 1].evaluate(1) == 0

    def test_diagonal_embedding_admits_everything(self):
        f = LP({0: 1, 1: 1})
        sym = SymbolMatrix(((f, LP()), (LP(), f)))
        m = vector_mask(sym)
        for k in (1, 2):  # NotDivisibleError unless both divisions are exact
            derived(m, k)
            smooth_raw(m, k)


class TestBlockOperators:
    def test_k_equals_p_reduces_to_scalar_factor(self):
        f = LP({0: 1, 1: 1})
        sym = SymbolMatrix(((f, LP()), (LP(), f)))
        m = vector_mask(sym)
        out = derived(m, 2)
        assert out.symbol[0, 0] == LP({1: 2})
        assert out.symbol[1, 1] == LP({1: 2})
        back = smooth_raw(out, 2)
        assert back.symbol == sym

    def test_smooth_raw_k_equals_p_multiplies_by_half_zinv_plus_1(self):
        rng = random.Random(201)
        m = rand_smoothable_mask(rng, 2, 2)
        out = smooth_raw(m, 2)
        factor = LP({-1: HALF, 0: HALF})
        for i in range(2):
            for j in range(2):
                assert out.symbol[i, j] == m.symbol[i, j] * factor

    def test_round_trips_fuzz(self):
        rng = random.Random(202)
        for _ in range(40):
            p = rng.choice([2, 3])
            k = rng.randint(1, p)
            a = rand_derivable_mask(rng, p, k)
            assert smooth_raw(derived(a, k), k) == a
            b = rand_smoothable_mask(rng, p, k)
            assert derived(smooth_raw(b, k), k) == b

    def test_derived_intertwines_symbolically(self):
        rng = random.Random(203)
        for _ in range(20):
            p = rng.choice([2, 3])
            k = rng.randint(1, p)
            a = rand_derivable_mask(rng, p, k)
            assert intertwines_difference(a, derived(a, k), k)

    def test_smooth_raw_intertwines_symbolically(self):
        rng = random.Random(204)
        for _ in range(20):
            p = rng.choice([2, 3])
            k = rng.randint(1, p)
            b = rand_smoothable_mask(rng, p, k)
            assert intertwines_difference(smooth_raw(b, k), b, k)

    def test_hermite_kind_rejected(self):
        with pytest.raises(ValueError):
            derived(catalog.get("merrien"), 1)


class TestDoubleKnotWalkthrough:
    """The full normalization + smoothing walk of the double-knot scheme."""

    def setup_method(self):
        self.dk = catalog.get("double-knot")
        self.r = RatMatrix.from_rows([[1, -1], [1, 1]])
        self.barred = conjugate(self.dk, self.r)

    def test_smoothed_blocks_literal_quotient(self):
        a = smooth_raw(self.barred, 1)
        q = Fraction(1, 4)
        assert a.symbol[0, 0] == LP({-1: q, 0: 3 * q, 1: 3 * q, 2: q})
        # literal quotient convention: -(3/16)(z^2 + z)
        assert a.symbol[0, 1] == LP({1: "-3/16", 2: "-3/16"})
        assert a.symbol[1, 0] == LP({-2: "1/8", 0: "-2/8", 2: "1/8"})
        assert a.symbol[1, 1] == LP({0: "-1/16", 1: "4/16", 2: "-1/16"})

    def test_defining_identity_in_normalized_coordinates(self):
        a = smooth_raw(self.barred, 1)
        assert intertwines_difference(a, self.barred, 1)

    def test_values_of_back_transformed_mask(self):
        a = conjugate(smooth_raw(self.barred, 1), RatMatrix.from_rows(
            [["1/2", "1/2"], ["-1/2", "1/2"]]))
        at1 = a.symbol.evaluate(1)
        assert at1 == RatMatrix.from_rows([["10/8", "6/8"], ["9/8", "7/8"]])
        atm1 = a.symbol.evaluate(-1)
        assert atm1 == RatMatrix.from_rows([["-3/16", "3/16"],
                                            ["3/16", "-3/16"]])


class TestSmoothVector:
    def test_double_knot_values(self):
        a = smooth_vector(catalog.get("double-knot"))
        assert a.symbol.evaluate(1) == RatMatrix.from_rows(
            [["10/8", "6/8"], ["9/8", "7/8"]])
        assert a.symbol.evaluate(-1) == RatMatrix.from_rows(
            [["-3/16", "3/16"], ["3/16", "-3/16"]])
        assert a.support == (-2, 2)

    def test_double_knot_eigenvectors(self):
        a = smooth_vector(catalog.get("double-knot"))
        at1 = a.symbol.evaluate(1)
        e = RatMatrix.column([1, 1])
        assert matmul(at1, e) == e.scale(2)
        v = RatMatrix.column([-2, 3])
        assert matmul(at1, v) == v.scale(Fraction(1, 8))
        atm1 = a.symbol.evaluate(-1)
        assert matmul(atm1, e).is_zero()
        w = RatMatrix.column([-1, 1])
        assert matmul(atm1, w) == w.scale(Fraction(-3, 8))

    def test_eigenspace_preserved(self):
        dk = catalog.get("double-knot")
        a = smooth_vector(dk)
        before = common_one_eigenspace(dk)
        after = common_one_eigenspace(a)
        assert len(after) == len(before) == 1
        assert col(after[0], 0) == (1, 1)

    def test_scalar_input_equals_scalar_smoothing(self):
        for l in range(0, 4):
            m = catalog.get(f"bspline{l}")
            assert smooth_vector(m) == smooth_raw(m, 1)
            assert smooth_vector(m).kind is Kind.SCALAR

    def test_empty_eigenspace_rejected(self):
        m = scalar_mask(LP({0: 1}))  # value 1 at z=1, not 2
        with pytest.raises(EmptyEigenspaceError):
            smooth_vector(m)

    def test_lost_smoothing_condition_is_internal(self, monkeypatch):
        def lost(mask, k, *basis):
            raise NotDivisibleError("no exact quotient")

        monkeypatch.setattr(vector_module, "smooth_raw", lost)
        with pytest.raises(ConsistencyError) as err:
            smooth_vector(catalog.get("double-knot"))
        assert str(err.value) == "conjugated mask lost the smoothing condition"

    def test_support_outside_window_is_internal(self, monkeypatch):
        """A round result moved by 1/z keeps its 1-eigenspace but leaves the
        window [lo - 2, hi]."""
        real = vector_module._smooth_in_basis
        monkeypatch.setattr(vector_module, "_smooth_in_basis", lambda mask, es:
                            vector_mask(SymbolMatrix([[e.shift(-1) for e in row]
                                                      for row in real(mask, es).symbol.entries])))
        with pytest.raises(ConsistencyError) as err:
            smooth_vector(catalog.get("double-knot"))
        assert str(err.value) == "support (-3, 1) exceeds the guaranteed window [-2, 2]"

    def test_support_growth_bound_fuzz(self):
        from tests.maskgen import rand_convergent_style_mask
        rng = random.Random(205)
        for _ in range(15):
            p = rng.choice([2, 3])
            k = rng.randint(1, p - 1) if p > 1 else 1
            b = rand_convergent_style_mask(rng, p, k)
            a = smooth_vector(b)
            lo_b, hi_b = b.support
            lo_a, hi_a = a.support
            assert lo_a >= lo_b - 2
            assert hi_a <= hi_b

    def test_intertwines_after_normalization_fuzz(self):
        from tests.maskgen import rand_convergent_style_mask
        rng = random.Random(206)
        for _ in range(15):
            p = rng.choice([2, 3])
            k = rng.randint(1, p - 1) if p > 1 else 1
            b = rand_convergent_style_mask(rng, p, k)
            es = canonical_transform(b)
            barred = conjugate(b, es.r)
            smoothed = smooth_raw(barred, es.k)
            assert intertwines_difference(smoothed, barred, es.k)
