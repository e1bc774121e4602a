import random
from fractions import Fraction
from pathlib import Path

import pytest

from subsmooth import (Certificate, EmptyEigenspaceError, FinSeq, LaurentPoly,
                       Refusal, apply, canonical_transform, catalog,
                       certify_hermite, certify_vector, conjugate, derived,
                       iterated_symbol, maskfile, render, scalar_mask,
                       stencil_norm, taylor_scheme, vector_mask)
from subsmooth.cli import main

from tests.maskgen import (not_in_tilde_mask, rand_derivable_mask, rand_seq,
                           rand_spectral_mask)
from tests.refine_oracle import difference, full_support_window, taylor_diff

LP = LaurentPoly
HALF = Fraction(1, 2)


class TestApply:
    def test_hat_on_delta(self):
        out = apply(catalog.get("bspline1"), FinSeq.delta(1))
        assert out == FinSeq.make(1, -1, [["1/2"], [1], ["1/2"]])

    def test_zero_data(self):
        out = apply(catalog.get("double-knot"), FinSeq.make(2, 0, []))
        assert out.is_zero()

    def test_interpolation_preserves_old_knots(self):
        m = catalog.get("merrien")
        c = FinSeq.delta(2, 1)
        for n in (1, 2):
            c = apply(m, c)
        # after n steps, the value at index 2^n * i is D^n * c0_i
        assert c.at(0) == (1, 0)
        assert c.at(4) == (0, 0)
        assert c.at(-4) == (0, 0)

    def test_linearity_fuzz(self):
        rng = random.Random(400)
        dk = catalog.get("double-knot")
        for _ in range(15):
            c, d = rand_seq(rng, 2), rand_seq(rng, 2)
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            lhs = apply(dk, c.scale(a) + d)
            rhs = apply(dk, c).scale(a) + apply(dk, d)
            assert lhs == rhs

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(catalog.get("double-knot"), FinSeq.delta(1))


class TestDifferenceOperators:
    def test_constant_killed_by_full_difference(self):
        c = FinSeq.make(2, -2, [[3, 5]] * 5)
        d = difference(c, 2)
        lo, hi = c.support
        for i in range(lo, hi):  # interior: next value inside the window
            assert d.at(i) == (0, 0)

    def test_partial_difference_keeps_trailing_components(self):
        c = FinSeq.make(2, 0, [[1, 7], [2, 7]])
        d = difference(c, 1)
        assert d.at(0) == (1, 7)

    def test_taylor_kills_constants_and_flattens_linears(self):
        ks = FinSeq.make(2, -3, [[1, 0]] * 7)
        t = taylor_diff(ks)
        lo, hi = ks.support
        for i in range(lo, hi):
            assert t.at(i) == (0, 0)
        phi = Fraction(0)
        lin = FinSeq.make(2, -3, [[i + phi, 1] for i in range(-3, 4)])
        tl = taylor_diff(lin)
        for i in range(-3, 3):
            assert tl.at(i) == (0, 1)  # first component annihilated

    def test_difference_intertwines_with_derived_fuzz(self):
        rng = random.Random(401)
        for _ in range(20):
            p = rng.choice([2, 3])
            k = rng.randint(1, p)
            m = rand_derivable_mask(rng, p, k)
            dm = derived(m, k)
            c = rand_seq(rng, p)
            assert difference(apply(m, c), k) == apply(dm, difference(c, k)).scale(HALF)

    def test_taylor_intertwines_fuzz(self):
        rng = random.Random(402)
        for _ in range(20):
            m = rand_spectral_mask(rng)
            t = taylor_scheme(m)
            c = rand_seq(rng, 2)
            assert taylor_diff(apply(m, c)) == apply(t, taylor_diff(c)).scale(HALF)

    @pytest.mark.parametrize("name", ["merrien", "derham",
                                      "merrien-smoothed", "derham-smoothed"])
    def test_taylor_intertwines_on_catalog(self, name):
        rng = random.Random(hash(name) & 0xFFFF)
        m = catalog.get(name)
        t = taylor_scheme(m)
        for _ in range(5):
            c = rand_seq(rng, 2)
            assert taylor_diff(apply(m, c)) == apply(t, taylor_diff(c)).scale(HALF)


class TestSpectralReproduction:
    @pytest.mark.parametrize("name", ["merrien", "derham",
                                      "merrien-smoothed", "derham-smoothed"])
    def test_constants_and_linears(self, name):
        m = catalog.get(name)
        phi = m.phi
        w = 10
        ks = FinSeq.make(2, -w, [[1, 0]] * (2 * w + 1))
        lin = FinSeq.make(2, -w, [[i + phi, 1] for i in range(-w, w + 1)])
        win = full_support_window(m, ks)
        out_k = apply(m, ks)
        out_l = apply(m, lin)
        assert win is not None
        for i in range(win[0], win[1] + 1):
            assert out_k.at(i) == (1, 0)
            assert out_l.at(i) == (HALF * (i + phi), HALF)


class TestIteratedSymbol:
    def test_single_step_is_the_symbol(self):
        dk = catalog.get("double-knot")
        assert iterated_symbol(dk, 1) == dk.symbol

    def test_two_steps_scalar(self):
        m = scalar_mask(LP({0: 1, 1: 1}))
        expected = LP({0: 1, 1: 1}) * LP({0: 1, 1: 1}).dilate()
        assert iterated_symbol(m, 2)[0, 0] == expected
        assert expected == LP({0: 1, 1: 1, 2: 1, 3: 1})

    def test_composition_identity_fuzz(self):
        rng = random.Random(403)
        m = rand_spectral_mask(rng)
        s3 = iterated_symbol(m, 3)
        s1 = iterated_symbol(m, 1)
        s2 = iterated_symbol(m, 2)
        # S^(1+2) symbol: S1(z) * S2(z^2)
        assert s3 == s1 * s2.dilate()

    def test_halved_two_tap_square_norm(self):
        m = scalar_mask(LP({0: 1, 1: 1}))  # derived scheme of the hat
        sym2 = iterated_symbol(m, 2)
        assert stencil_norm(sym2, 4) * Fraction(1, 4) == Fraction(1, 4)


from tests.maskgen import norm_via_repeated_apply


class TestCertificates:
    def test_linear_bspline(self):
        cert = certify_vector(catalog.get("bspline1"), 0)
        assert isinstance(cert, Certificate)
        assert cert.L == 1
        assert cert.norm_value == HALF

    def test_quadratic_bspline(self):
        cert = certify_vector(catalog.get("bspline2"), 0)
        assert cert.L == 1
        assert cert.norm_value == HALF

    def test_merrien_taylor_scheme(self):
        tay = taylor_scheme(catalog.get("merrien"))
        cert = certify_vector(tay, 0)
        assert isinstance(cert, Certificate)
        assert cert.L <= 8
        assert cert.norm_value < 1

    def test_certified_norm_recomputed_independently(self):
        for mask in (catalog.get("bspline1"),
                     taylor_scheme(catalog.get("merrien"))):
            es = canonical_transform(mask)
            halved = derived(conjugate(mask, es.r), es.k)
            cert = certify_vector(mask, 0)
            assert norm_via_repeated_apply(halved, cert.L) == cert.norm_value
            assert cert.norm_value < 1

    def test_divergent_scheme_refused(self):
        # value 2 at 1 and 0 at -1, but wildly large inner coefficients
        f = LP({0: 1, 1: 1}) + LP({0: -3, 2: 3})  # (1+z) + 3(z^2-1)
        res = certify_vector(scalar_mask(f), 0, lmax=4)
        assert isinstance(res, Refusal)
        assert len(res.norms) == 4
        assert all(n >= 1 for n in res.norms)

    def test_zero_mask_raises(self):
        with pytest.raises(EmptyEigenspaceError):
            certify_vector(scalar_mask(LP.zero()), 0)

    def test_hermite_chain_merrien(self):
        res = certify_hermite(catalog.get("merrien"), 1)
        assert isinstance(res, Certificate)
        assert (res.ell, res.phi, res.ks, res.support) == (1, 0, (1,), (-3, 1))

    def test_hermite_chain_smoothed_merrien(self):
        res = certify_hermite(catalog.get("merrien-smoothed"), 2)
        assert isinstance(res, Certificate)
        assert res.ell == 2

    def test_smoothed_scheme_factors_back_to_its_pipeline_stage(self):
        # the chain's first stage for a smoothed mask is, by the round trip,
        # exactly the normalized smoothed factor the construction produced
        from subsmooth import smooth_raw, RatMatrix, invert as inv, zeta_of
        m = catalog.get("merrien")
        tay = taylor_scheme(m)
        r = RatMatrix.from_rows([[0, 1], [1, -1]])
        smoothed = conjugate(smooth_raw(conjugate(tay, r), 1), inv(r))
        shear = RatMatrix.from_rows([[1, 0], [zeta_of(m) - 1, 1]])
        normalized = conjugate(smoothed, shear)
        assert taylor_scheme(catalog.get("merrien-smoothed")) == normalized

    def test_spectral_violation_refused_at_stage_zero(self):
        from subsmooth import SymbolMatrix
        res = certify_hermite(vector_mask(SymbolMatrix.zero(2)), 1)
        assert isinstance(res, Refusal)
        assert res.stage == "spectral condition"

    def test_vector_mask_with_spectral_condition_raises(self):
        with pytest.raises(ValueError) as err:
            certify_hermite(vector_mask(catalog.get("merrien").symbol), 1)
        assert str(err.value) == "Hermite certificates apply to Hermite masks"

    def test_taylor_eigenspace_not_e2_refused(self, tmp_path, capsys):
        mask = not_in_tilde_mask()
        res = certify_hermite(mask, 1)
        assert isinstance(res, Refusal)
        assert res.stage == "taylor eigenspace"
        assert res.reason == "common 1-eigenspace of the Taylor scheme is not span{e2}"
        path = tmp_path / "diag.mask"
        path.write_text(maskfile.serialize(mask))
        assert main(["certify", str(path)]) == 2
        assert capsys.readouterr().out == (
            "inconclusive at stage 'taylor eigenspace': common 1-eigenspace "
            "of the Taylor scheme is not span{e2}\n")

    def test_vector_chain_bspline(self):
        res = certify_vector(catalog.get("bspline3"), 2)
        assert isinstance(res, Certificate)
        assert (res.ell, res.phi, res.ks, res.support) == (2, None, (1, 1, 1), (0, 1))

    @pytest.mark.parametrize("name,ell,text", [
        ("bspline1", 0, """\
C0 certificate: |(1/2 S)^1| = 1/2 < 1
  - canonical transform with k=1
  - derived scheme support (0, 1)
  - contractive at L=1 with norm 1/2
"""),
        ("bspline3", 2, """\
chain certificate (ell=2): |(1/2 S)^1| = 1/2 < 1
  - descent 1: derived scheme with k=1
  - descent 2: derived scheme with k=1
  - canonical transform with k=1
  - derived scheme support (0, 1)
  - contractive at L=1 with norm 1/2
"""),
        ("double-knot", 1, """\
chain certificate (ell=1): |(1/2 S)^3| = 163/224 < 1
  - descent 1: derived scheme with k=1
  - canonical transform with k=1
  - derived scheme support (-2, 2)
  - contractive at L=3 with norm 163/224
"""),
        # phi = 0: the Hermite lines print although phi is falsy
        ("merrien", 1, """\
chain certificate (ell=1): |(1/2 S)^3| = 53/64 < 1
  - spectral condition holds with phi=0
  - taylor scheme eigenspace is span{e2}
  - canonical transform with k=1
  - derived scheme support (-3, 1)
  - contractive at L=3 with norm 53/64
"""),
        ("derham", 2, """\
chain certificate (ell=2): |(1/2 S)^5| = 16289/20480 < 1
  - spectral condition holds with phi=-1/2
  - taylor scheme eigenspace is span{e2}
  - descent 1: derived scheme with k=1
  - canonical transform with k=1
  - derived scheme support (-5, 1)
  - contractive at L=5 with norm 16289/20480
"""),
        ("merrien-smoothed", 2, """\
chain certificate (ell=2): |(1/2 S)^3| = 397/512 < 1
  - spectral condition holds with phi=-1/2
  - taylor scheme eigenspace is span{e2}
  - descent 1: derived scheme with k=1
  - canonical transform with k=1
  - derived scheme support (-3, 1)
  - contractive at L=3 with norm 397/512
"""),
    ])
    def test_certify_prints_the_chain(self, name, ell, text, capsys):
        assert main(["certify", f"catalog:{name}", "--ell", str(ell)]) == 0
        assert capsys.readouterr() == (text, "")


class TestRender:
    def test_hat_function(self):
        s = render(catalog.get("bspline1"), 6, 1)
        by_index = {s.offset + i: v for i, v in enumerate(s.values)}
        assert by_index[0] == (1,)
        assert by_index[32] == (HALF,)  # t = 1/2

    def test_merrien_interpolatory_basis(self):
        s = render(catalog.get("merrien"), 5, 1)
        by_index = {s.offset + i: v for i, v in enumerate(s.values)}
        assert by_index[0] == (1, 0)
        assert s.offset > -(2 ** 5)  # supported inside (-1, 1)
        assert by_index.get(2 ** 5, (0, 0))[0] == 0

    def test_derivative_channel_consistency_improves(self):
        c = catalog.get("merrien-smoothed")
        prev = None
        for n in (3, 4, 5):
            s = render(c, n, 1)
            pow2 = Fraction(2) ** n
            dev = max(abs(s.values[i][1] - (s.values[i + 1][0] - s.values[i][0]) * pow2)
                      for i in range(len(s.values) - 1))
            if prev is not None:
                assert dev < prev
            prev = dev

    def test_csv_output(self):
        s = render(catalog.get("merrien"), 2, 1)
        text = s.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,c1,c2"
        assert len(lines) == 1 + len(s.values)
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts == sorted(ts)
        assert all(abs(t2 - t1 - 0.25) < 1e-12 for t1, t2 in zip(ts, ts[1:]))

    def test_csv_exact_mode(self):
        s = render(catalog.get("merrien"), 2, 1)
        text = s.to_csv(exact=True)
        assert "/" in text  # rational entries present

    @pytest.mark.parametrize("name", ["bspline1", "bspline3", "merrien",
                                      "merrien-smoothed", "derham-smoothed"])
    def test_demo_csv_reproduced(self, name):
        """The committed demo renders (depth 6, basis 1) byte for byte."""
        path = Path(__file__).parents[1] / "demos" / "out" / f"{name}.csv"
        assert render(catalog.get(name), 6, 1).to_csv().encode() == path.read_bytes()

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            render(catalog.get("merrien"), 0, 1)
