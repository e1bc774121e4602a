import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings

import subsmooth.hermite_smoothing as hermite_module
from subsmooth import (TAYLOR_OPERATOR, ConsistencyError, DegenerateAError, Kind,
                       LaurentPoly, NotInTildeError, SpectralConditionError,
                       SubsmoothError, SymbolMatrix, WorkBudgetError, catalog,
                       check_interpolatory, check_spectral, check_taylor,
                       common_one_eigenspace, hermite_mask, intertwine,
                       inverse_taylor, smooth_hermite, taylor_scheme, vector_mask,
                       ZINV_MINUS_1, zeta_of)

from tests.hermite_oracle import (smooth_hermite_closed_form,
                                  smooth_hermite_three_steps,
                                  zeta_multiplicity_forecast)
from tests.masks_oracle import eigenspace_is_e2
from tests.maskgen import (granted_hermite_masks, intertwines_taylor,
                           long_spectral_mask, not_in_tilde_mask,
                           rand_smoothing_ready_spectral,
                           rand_spectral_mask, rand_taylor_mask, with_values,
                           rand_laurent)

HERMITE_CATALOG = ("merrien", "derham", "merrien-smoothed", "derham-smoothed")

LP = LaurentPoly


def sym2(a11, a12, a21, a22):
    return SymbolMatrix(((a11, a12), (a21, a22)))


class TestSpectralCondition:
    def test_merrien(self):
        m = catalog.get("merrien")
        assert check_spectral(m) == (True, ())
        assert m.phi == 0

    def test_derham(self):
        m = catalog.get("derham")
        assert check_spectral(m).holds
        assert m.phi == Fraction(-1, 2)

    def test_zero_mask_fails_constant_and_linear_reproduction(self):
        rep = check_spectral(vector_mask(SymbolMatrix.zero(2)))
        assert not rep.holds
        # the value equalities of (1) and (4) fail; the equalities of (2)
        # and (3) are vacuously satisfied by the zero symbol
        assert rep.violated == (1, 4)

    def test_random_spectral_masks_hold(self):
        rng = random.Random(300)
        for _ in range(20):
            rep = check_spectral(rand_spectral_mask(rng))
            assert rep.holds


class TestInterpolatory:
    def test_merrien_is_interpolatory(self):
        assert check_interpolatory(catalog.get("merrien"))

    def test_derham_is_not(self):
        assert not check_interpolatory(catalog.get("derham"))

    def test_smoothed_merrien_is_not(self):
        assert not check_interpolatory(catalog.get("merrien-smoothed"))


class TestTaylorScheme:
    def test_merrien_taylor_entries(self):
        t = taylor_scheme(catalog.get("merrien"))
        assert t.symbol[0, 0] == LP({0: 1, 1: "-1/2"})
        assert t.symbol[0, 1] == LP({-2: "-1/4", -1: "1/2", 0: "1/4", 1: "-1/2"})
        assert t.symbol[1, 0] == LP({1: "3/2"})
        assert t.symbol[1, 1] == LP({-1: "-1/4", 0: 1, 1: "5/4"})

    def test_merrien_taylor_eigenspace_is_e2(self):
        t = taylor_scheme(catalog.get("merrien"))
        basis = common_one_eigenspace(t)
        assert len(basis) == 1
        assert basis[0][0, 0] == 0

    def test_taylor_conditions_hold_for_spectral_inputs(self):
        rng = random.Random(301)
        for _ in range(25):
            m = rand_spectral_mask(rng)
            rep = check_taylor(taylor_scheme(m))
            assert rep.holds_taylor

    def test_intertwining_symbol_identity(self):
        rng = random.Random(302)
        for _ in range(15):
            m = rand_spectral_mask(rng)
            assert intertwines_taylor(m, taylor_scheme(m))


class TestTaylorConditions:
    def test_merrien_taylor_report(self):
        rep = check_taylor(taylor_scheme(catalog.get("merrien")))
        assert rep.holds_taylor
        assert rep.in_tilde

    def test_diagonal_embedding_not_in_tilde(self):
        f = LP({0: 1, 1: 1})
        rep = check_taylor(vector_mask(sym2(f, LP.zero(), LP.zero(), f)))
        assert rep.holds_taylor
        assert not rep.in_tilde

    def test_double_knot_fails(self):
        rep = check_taylor(catalog.get("double-knot"))
        assert not rep.holds_taylor


class TestInverseTaylor:
    def test_round_trip_on_catalog(self):
        for name in ("merrien", "derham"):
            m = catalog.get(name)
            assert inverse_taylor(taylor_scheme(m)) == m

    def test_round_trips_fuzz(self):
        rng = random.Random(303)
        for _ in range(40):
            b = rand_taylor_mask(rng)
            assert taylor_scheme(inverse_taylor(b)) == b
            m = rand_spectral_mask(rng)
            assert inverse_taylor(taylor_scheme(m)) == m

    def test_outputs_satisfy_spectral_condition(self):
        rng = random.Random(304)
        for _ in range(25):
            b = rand_taylor_mask(rng)
            out = inverse_taylor(b)
            assert out.kind is Kind.HERMITE
            assert check_spectral(out).holds

    def test_phi_formula(self):
        """On Taylor-class input, phi = (b12'(1) + b22'(1) - 1)/2."""
        rng = random.Random(310)
        bs = [taylor_scheme(catalog.get("merrien"))]
        bs += [rand_taylor_mask(rng) for _ in range(25)]
        for b in bs:
            out = inverse_taylor(b)
            assert out.phi == (b.symbol[0, 1].derivative_at(1)
                               + b.symbol[1, 1].derivative_at(1) - 1) / 2


class TestSmoothHermite:
    def test_merrien_matches_reference(self):
        out = smooth_hermite(catalog.get("merrien"))
        assert out == catalog.get("merrien-smoothed")
        assert out.phi == Fraction(-1, 2)
        assert out.support == (-6, 1)

    def test_derham_matches_reference(self):
        out = smooth_hermite(catalog.get("derham"))
        assert out == catalog.get("derham-smoothed")
        assert out.phi == -1
        assert out.support == (-7, 1)

    def test_second_round_zetas(self):
        assert zeta_of(catalog.get("merrien-smoothed")) == Fraction(14, 15)
        assert zeta_of(catalog.get("derham-smoothed")) == Fraction(41, 44)

    def test_second_round_runs(self):
        out = smooth_hermite(catalog.get("merrien-smoothed"))
        assert out.phi == -1
        lo, hi = out.support
        assert lo >= -11 and hi <= 1
        assert check_spectral(out).holds

    def test_phi_drops_by_half_fuzz(self):
        rng = random.Random(306)
        for _ in range(10):
            m = rand_smoothing_ready_spectral(rng)
            out = smooth_hermite(m)
            assert out.phi == m.phi - Fraction(1, 2)

    def test_spectral_precondition_enforced(self):
        with pytest.raises(SpectralConditionError):
            smooth_hermite(hermite_mask(SymbolMatrix.zero(2)))

    def test_undefined_zeta_refused(self):
        """a21 = z - 1/z has a21'(1) = 2, so condition (4) forces a22(1) = 2."""
        a11 = with_values(LP.zero(), 2, 0)
        a21 = LP({-1: -1, 1: 1})
        a22 = with_values(LP.zero(), 2, -1)
        a12 = with_values(LP.zero(), 1, -a11.derivative_at(-1) / 2)
        m = hermite_mask(sym2(a11, a12, a21, a22))
        assert check_spectral(m).holds
        with pytest.raises(DegenerateAError) as err:
            smooth_hermite(m)
        assert str(err.value) == "zeta undefined: a22(1) = 2"

    def test_one_zeta_of_per_round(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hermite_module, "zeta_of",
                            lambda m: calls.append(m) or zeta_of(m))
        for name in ("merrien", "derham", "merrien-smoothed"):
            calls.clear()
            smooth_hermite(catalog.get(name))
            assert calls == [catalog.get(name)]

    def test_wrong_zeta_is_internal(self, monkeypatch):
        """The round shears by the zeta that zeta_of returns; any other
        shear misses the trace condition, and the inverse factorization
        does not divide."""
        monkeypatch.setattr(hermite_module, "zeta_of",
                            lambda m: zeta_of(m) + Fraction(1, 3))
        for name, zeta in (("merrien", "4/3"), ("derham", "4/3"),
                           ("merrien-smoothed", "19/15")):
            with pytest.raises(ConsistencyError) as err:
                smooth_hermite(catalog.get(name))
            assert str(err.value) == (
                f"the shear by zeta = {zeta} missed the Taylor trace condition")

    def test_vector_mask_refused(self):
        """A vector mask has no phi, even when it meets the spectral condition."""
        with pytest.raises(ValueError) as err:
            smooth_hermite(vector_mask(catalog.get("merrien").symbol))
        assert str(err.value) == "Hermite smoothing applies to Hermite masks"

    def test_eigenspace_not_e2_refused(self):
        mask = not_in_tilde_mask()
        assert check_spectral(mask).holds
        with pytest.raises(NotInTildeError) as err:
            smooth_hermite(mask)
        assert str(err.value) == ("Taylor scheme eigenspace is not span{e2}; the "
                                  "vanishing first-component hypothesis cannot "
                                  "be established")

    def test_phi_without_drop_is_internal(self, monkeypatch):
        """z times the first row of the round result raises phi by
        a11(1)/2 = 1 and leaves the support inside the window."""
        real = inverse_taylor

        def forged(m):
            s = real(m).symbol
            z = LP({1: 1})
            return hermite_mask(sym2(z * s[0, 0], z * s[0, 1], s[1, 0], s[1, 1]))

        monkeypatch.setattr(hermite_module, "inverse_taylor", forged)
        with pytest.raises(ConsistencyError) as err:
            smooth_hermite(catalog.get("merrien"))
        assert str(err.value) == "phi moved from 0 to 1/2, expected a drop of 1/2"

    def test_support_outside_window_is_internal(self, monkeypatch):
        """merrien's round result (-6, 1) with its second row moved by 1/z
        keeps phi, which reads only the first row, and leaves the window
        [lo - 5, hi] = [-6, 1]."""
        real = inverse_taylor

        def shifted(m):
            s = real(m).symbol
            return hermite_mask(sym2(s[0, 0], s[0, 1], s[1, 0].shift(-1), s[1, 1].shift(-1)))

        monkeypatch.setattr(hermite_module, "inverse_taylor", shifted)
        with pytest.raises(ConsistencyError) as err:
            smooth_hermite(catalog.get("merrien"))
        assert str(err.value) == "support (-7, 1) exceeds the guaranteed window [-6, 1]"

    def test_support_window_fuzz(self):
        rng = random.Random(307)
        for _ in range(10):
            m = rand_smoothing_ready_spectral(rng)
            out = smooth_hermite(m)
            lo, hi = m.support
            lo2, hi2 = out.support
            assert lo2 >= lo - 5
            assert hi2 <= hi


class TestClosedForm:
    def test_catalog_schemes(self):
        for name in ("merrien", "derham", "merrien-smoothed", "derham-smoothed"):
            m = catalog.get(name)
            assert smooth_hermite_closed_form(m) == smooth_hermite(m)

    def test_zeta_one_fuzz(self):
        rng = random.Random(308)
        for _ in range(15):
            m = rand_smoothing_ready_spectral(rng, zeta_one=True)
            assert zeta_of(m) == 1
            assert smooth_hermite_closed_form(m) == smooth_hermite(m)

    def test_general_zeta_fuzz(self):
        rng = random.Random(309)
        for _ in range(15):
            m = rand_smoothing_ready_spectral(rng, zeta_one=False)
            assert smooth_hermite_closed_form(m) == smooth_hermite(m)


def _outcome(round_, mask):
    """The round's result, or its exception's type and message."""
    try:
        return round_(mask)
    except (SubsmoothError, ValueError) as exc:
        return type(exc), str(exc)


def _rounds_carry_taylor_schemes(mask, rounds=3):
    """After each round the output's carried Taylor scheme equals a fresh
    intertwine, and from the second round on none is built."""
    for r in range(rounds):
        with mock.patch.object(hermite_module, "intertwine",
                               wraps=hermite_module.intertwine) as built:
            mask = smooth_hermite(mask)
        assert r == 0 or built.call_count == 0
        carried = vars(mask)["_taylor"]
        assert taylor_scheme(mask) is carried
        assert carried == vector_mask(intertwine(mask.symbol, TAYLOR_OPERATOR))


class TestFoldedRound:
    """The round untwines by G_zeta = G S and carries its Taylor scheme;
    it must equal the three-step round it replaced (untwine by G_1,
    conjugation by the shear), result for result and error for error."""

    @pytest.mark.parametrize("name", HERMITE_CATALOG)
    def test_catalog_carries_taylor_schemes(self, name):
        _rounds_carry_taylor_schemes(catalog.get(name))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(granted_hermite_masks())
    def test_granted_masks_carry_taylor_schemes(self, case):
        _rounds_carry_taylor_schemes(case[0])

    def test_random_masks_carry_taylor_schemes(self):
        rng = random.Random(312)
        for i in range(8):
            _rounds_carry_taylor_schemes(rand_smoothing_ready_spectral(rng, zeta_one=i % 2 == 0))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(granted_hermite_masks())
    def test_granted_masks_match_three_steps(self, case):
        assert smooth_hermite(case[0]) == smooth_hermite_three_steps(case[0])

    def test_catalog_and_random_masks_match_three_steps(self):
        rng = random.Random(313)
        inputs = [catalog.get(name) for name in HERMITE_CATALOG]
        inputs += [rand_smoothing_ready_spectral(rng, zeta_one=i % 3 == 0) for i in range(12)]
        # spectral masks that need not be smoothing-ready, and refused inputs
        inputs += [rand_spectral_mask(rng, zeta_one=i % 3 == 0) for i in range(30)]
        inputs += [not_in_tilde_mask(), hermite_mask(SymbolMatrix.zero(2)),
                   vector_mask(catalog.get("merrien").symbol)]
        outcomes = [_outcome(smooth_hermite_three_steps, m) for m in inputs]
        assert [_outcome(smooth_hermite, m) for m in inputs] == outcomes
        assert {o[0] for o in outcomes if isinstance(o, tuple)} >= {
            NotInTildeError, SpectralConditionError, ValueError}

    def test_carried_scheme_matches_three_steps(self):
        """Rounds 2 and 3 start from the carried scheme, the oracle from a
        fresh one."""
        for name in ("merrien", "derham"):
            mask = catalog.get(name)
            for _ in range(3):
                want = smooth_hermite_three_steps(mask)
                mask = smooth_hermite(mask)
                assert mask == want

    @pytest.mark.parametrize("seed,bits,terms", [(0, 800, 9), (1, 200, 25)])
    def test_long_coefficient_masks_are_smoothed(self, seed, bits, terms):
        """Spectral masks with 200-800-bit input rationals (zeta of over
        4000 bits): a symbol product with G_zeta as an operand of rational
        entries is over the work budget, while the round prices zeta as
        integer factors and smooths them as the three-step round does."""
        mask = long_spectral_mask(seed, bits, terms)
        zeta = zeta_of(mask)
        assert zeta.denominator.bit_length() > 4000
        half_g = SymbolMatrix(((LaurentPoly({0: Fraction(1, 2)}), LaurentPoly.zero()),
                               (LaurentPoly({-1: zeta / 2, 0: (-1 - zeta) / 2}),
                                ZINV_MINUS_1.scale(Fraction(1, 2)))))
        with pytest.raises(WorkBudgetError):
            taylor_scheme(mask).symbol.mul_dilated(half_g, 2)
        assert smooth_hermite(mask) == smooth_hermite_three_steps(mask)


class TestZetaForecast:
    def test_merrien(self):
        assert zeta_multiplicity_forecast(catalog.get("merrien")) == 1

    def test_derham(self):
        assert zeta_multiplicity_forecast(catalog.get("derham")) == 1

    def test_decoupled_mask_forecasts_forever(self):
        # spectral mask with identically zero coupling entry
        a11 = LP({-1: "1/2", 0: 1, 1: "1/2"})
        a21 = LP.zero()
        a22 = LP({0: "1/2", 1: "1/2"})
        m = hermite_mask(sym2(a11, LP.zero(), a21, a22))
        assert check_spectral(m).holds
        assert zeta_multiplicity_forecast(m) == math.inf

    def test_forecast_rounds_keep_zeta_one(self):
        """With a12 = (1/z - 1)**r q and q(1) != 0, the forecast is r and the
        first r rounds have zeta = 1."""
        rng = random.Random(311)
        for r in range(1, 5):
            found = 0
            while found < 3:
                a = rand_smoothing_ready_spectral(rng).symbol
                # a12(-1) = -a11'(-1)/2, and (1/z - 1)**r is (-2)**r at -1
                a12 = with_values(rand_laurent(rng), rng.choice([-2, -1, 1, 3]),
                                  -a[0, 0].derivative_at(-1) / 2 / (-2) ** r)
                for _ in range(r):
                    a12 = ZINV_MINUS_1 * a12
                m = hermite_mask(sym2(a[0, 0], a12, a[1, 0], a[1, 1]))
                if not eigenspace_is_e2(taylor_scheme(m)):
                    continue
                found += 1
                assert check_spectral(m).holds
                assert zeta_multiplicity_forecast(m) == r
                for _ in range(r):
                    assert zeta_of(m) == 1
                    m = smooth_hermite(m)
