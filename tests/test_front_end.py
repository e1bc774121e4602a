"""Strict mask-file parsing, work ceilings, refusal wording and internal
error reporting at the command-line front end."""

import errno
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsmooth
from subsmooth import (Z_PLUS_1, ConsistencyError, FinSeq, Kind, LaurentPoly,
                       MaskFileError, Refusal, SubsmoothError, SymbolMatrix,
                       catalog, certify_vector, hermite_mask, maskfile, render,
                       scalar_mask, smooth_hermite, smooth_raw, vector_mask)
from subsmooth import cli
from subsmooth.cli import main
from subsmooth import laurent, refine
from subsmooth.laurent import MAX_WORK
from subsmooth.refine import MAX_LMAX, MAX_RENDER_ROWS, MAX_ROUNDS, MAX_SYMBOL_TERMS

from tests import maskfile_oracle, maskgen
from tests.maskgen import long_denominator_doc


def scalar_doc(values, **overrides):
    doc = {"schema_version": 1, "kind": "scalar", "p": 1, "support_lo": 0,
           "coeffs": [[[v]] for v in values]}
    doc.update(overrides)
    return json.dumps(doc)


class TestStrictRationals:
    @pytest.mark.parametrize("text", ["1.5", "1_000", " 3 ", "3 ", "1e5", "+1",
                                      "1/-2", "-1/2/3", "", "١", "0x10",
                                      "inf", "nan"])
    def test_malformed_rejected(self, text):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(scalar_doc([text]))
        assert "coeffs[0][0][0]" in str(err.value)

    @pytest.mark.parametrize("text", ["2/4", "0/3", "-6/9"])
    def test_not_in_lowest_terms_rejected(self, text):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(scalar_doc(["1", text]))
        assert "lowest terms" in str(err.value)

    def test_exponent_bomb_rejected_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(MaskFileError):
            maskfile.parse(scalar_doc(["1e999999999"]))
        assert time.perf_counter() - t0 < 1.0

    def test_digit_cap(self):
        ok = "7" * 1000
        assert maskfile.parse(scalar_doc([ok])).symbol[0, 0].coeff(0) == int(ok)
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(scalar_doc(["7" * 1001]))
        assert "1000 characters" in str(err.value)

    def test_canonical_forms_accepted(self):
        m = maskfile.parse(scalar_doc(["-3/8", "0", "5", "1/2"]))
        assert m.symbol[0, 0] == LaurentPoly({0: "-3/8", 2: 5, 3: "1/2"})

    def test_phi_is_strict_too(self):
        doc = json.loads(maskfile.serialize(catalog.get("merrien")))
        doc["phi"] = "0.0"
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(json.dumps(doc))
        assert "phi" in str(err.value)


class TestStrictFields:
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    @pytest.mark.parametrize("field", ["support_lo", "p", "schema_version",
                                       "coeffs[0][0][0]", "phi"])
    def test_integer_over_digit_limit_names_its_field(self, field, sign):
        """A JSON integer of as many digits as the limit for integer strings
        parses as before; one digit more is refused in one line that names
        its field and its digit count, as the Fraction oracle does.  A
        support_lo stops one digit short of the limit, since a support end
        one digit longer must still print."""
        def text(digits):
            if field == "phi":
                doc = json.loads(maskfile.serialize(catalog.get("merrien")))
                doc["phi"] = "@"
                doc = json.dumps(doc)
            else:
                doc = (scalar_doc(["@"]) if field.startswith("coeffs")
                       else scalar_doc(["1"], **{field: "@"}))
            return doc.replace('"@"', sign + "9" * digits)

        last = 4299 if field == "support_lo" else 4300  # the most digits that parse
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for digits in (last, last + 1):
                try:
                    want = maskfile_oracle.parse(text(digits))
                except MaskFileError as exc:
                    with pytest.raises(MaskFileError) as err:
                        maskfile.parse(text(digits))
                    assert str(err.value) == str(exc)
                else:
                    assert maskfile.parse(text(digits)) == want
            assert str(err.value) == (f"{field}: {last + 1} digits, "
                                      f"{'over' if last == 4300 else 'at'} the limit of 4300 "
                                      "digits for integer strings")
            if field == "support_lo":
                assert maskfile.parse(text(last)).support[0] == int(sign + "9" * last)
                with pytest.raises(MaskFileError, match="^support_lo: 4301 digits, over the limit"):
                    maskfile.parse(text(4301))
        finally:
            sys.set_int_max_str_digits(old)

    def test_first_integer_over_digit_limit_is_named(self):
        """Of several integers over the limit, the first that the schema reads
        is named, as the Fraction oracle names it: p before coeffs."""
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for text, want in ((scalar_doc(["@1", "@2"]), "coeffs[0][0][0]: 4301"),
                               (scalar_doc(["1"], coeffs="@1", p="@2"), "p: 4302"),
                               (scalar_doc(["1"], kind="@1"), "kind: 4301")):
                text = text.replace('"@1"', "9" * 4301).replace('"@2"', "9" * 4302)
                with pytest.raises(MaskFileError) as err:
                    maskfile.parse(text)
                assert str(err.value) == (f"{want} digits, over the limit of 4300 digits "
                                          "for integer strings")
                with pytest.raises(MaskFileError) as oracle_err:
                    maskfile_oracle.parse(text)
                assert str(oracle_err.value) == str(err.value)
        finally:
            sys.set_int_max_str_digits(old)

    def test_over_limit_integer_the_schema_does_not_read_is_ignored(self):
        """An integer over the limit under a key that the schema does not read,
        or under a key that a later duplicate replaces, is dropped with it, as
        JSON's last-wins rule drops any other duplicate: the file parses as it
        does without that key, in the package and in the oracle."""
        big = "9" * 4301
        plain = scalar_doc(["1/2", "1", "1/2"])
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            want = maskfile.parse(plain)
            for text in (plain[:-1] + f', "note": [{{"x": {big}}}]}}',
                         '{"support_lo": %s, %s' % (big, plain[1:]),
                         plain.replace('"support_lo": 0', f'"support_lo": -{big}, "support_lo": 0')):
                assert big in text
                assert maskfile.parse(text) == want
                assert maskfile_oracle.parse(text) == want
        finally:
            sys.set_int_max_str_digits(old)

    def test_bool_p_rejected(self):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(scalar_doc(["1"], p=True))
        assert "p:" in str(err.value)

    def test_bool_support_lo_rejected(self):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(scalar_doc(["1"], support_lo=True))
        assert "support_lo" in str(err.value)

    def test_bool_schema_version_rejected(self):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(scalar_doc(["1"], schema_version=True))
        assert "schema_version" in str(err.value)

    def test_empty_coeffs_rejected(self):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(scalar_doc([]))
        assert "coeffs" in str(err.value)

    def test_all_zero_coeffs_rejected(self):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(scalar_doc(["0", "0"]))
        assert "coeffs" in str(err.value)

    def test_huge_p_fails_on_shape_without_allocating(self):
        doc = {"schema_version": 1, "kind": "vector", "p": 10 ** 9,
               "support_lo": 0, "coeffs": [[["1"]]]}
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(json.dumps(doc))
        assert "coeffs[0]" in str(err.value)

    def test_oversized_json_integer(self):
        with pytest.raises(MaskFileError):
            maskfile.parse('{"p": ' + "1" * 5000 + "}")

    @pytest.mark.parametrize("kind", [[], {}, 1, None])
    def test_kind_of_wrong_type_rejected(self, kind):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(scalar_doc(["1"], kind=kind))
        assert "kind:" in str(err.value)

    def test_deep_nesting_rejected(self):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse("[" * 100_000)
        assert "nested too deeply" in str(err.value)

    def test_cli_show_hostile_files(self, tmp_path, capsys):
        for name, text in (("deep", "[" * 100_000),
                           ("list-kind", scalar_doc(["1"], kind=[])),
                           ("dict-kind", scalar_doc(["1"], kind={}))):
            path = tmp_path / f"{name}.mask"
            path.write_text(text)
            assert main(["show", str(path)]) == 1
            assert capsys.readouterr().err.startswith("error: ")


def _check_round_trip(text):
    """text parses to a mask that round-trips byte-stably, or is refused
    with MaskFileError; any other exception fails the test."""
    try:
        mask = maskfile.parse(text)
    except MaskFileError:
        return
    canonical = maskfile.serialize(mask)
    again = maskfile.parse(canonical)
    assert again == mask
    assert maskfile.serialize(again) == canonical


_SAMPLES = [maskfile.serialize(catalog.get(n))
            for n in ("bspline2", "double-knot", "merrien")]
_RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "-3/8", "2/4", "1.5", "",
                              "1e5", "x"])
_JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 3) | _RATIONALS,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                     max_leaves=12)


@st.composite
def _mask_docs(draw):
    """Mask-file documents near the schema: each field valid, missing or
    replaced by arbitrary JSON."""
    p = draw(st.integers(1, 2))
    coeffs = [[[draw(_RATIONALS) for _ in range(p)] for _ in range(p)]
              for _ in range(draw(st.integers(0, 3)))]
    valid = {"schema_version": 1, "kind": draw(st.sampled_from(
                 ["scalar", "vector", "hermite"])),
             "p": p, "support_lo": draw(st.integers(-3, 3)),
             "coeffs": coeffs, "phi": draw(_RATIONALS)}
    doc = {}
    for key, value in valid.items():
        how = draw(st.sampled_from(["valid", "valid", "valid", "missing", "json"]))
        if how == "valid":
            doc[key] = value
        elif how == "json":
            doc[key] = draw(_JSON)
    return json.dumps(doc)


@st.composite
def _mutated_samples(draw):
    """A canonical mask file with one span of characters replaced."""
    text = draw(st.sampled_from(_SAMPLES))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 4)))
    return text[:i] + draw(st.text(max_size=4)) + text[j:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.text(), _mask_docs(), _mutated_samples()))
def test_any_text_round_trips_or_raises_mask_file_error(text):
    _check_round_trip(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.text(), _mask_docs(), _mutated_samples()))
def test_parse_matches_the_fraction_oracle(text):
    """parse, on integer numerators, gives the Fraction oracle's mask or
    its MaskFileError word for word."""
    try:
        want = maskfile_oracle.parse(text)
    except MaskFileError as exc:
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(text)
        assert str(err.value) == str(exc)
    else:
        assert maskfile.parse(text) == want


@pytest.mark.parametrize("phi", ["0", "banana", None])
def test_scalar_file_with_phi_refused(phi):
    """Only hermite files carry phi: a scalar or vector file with a phi key
    is refused in the same words, whatever its value, and parses without it."""
    for kind, p, coeffs in (("scalar", 1, [[["1/2"]], [["1/2"]]]),
                            ("vector", 2, [[["1", "0"], ["0", "1"]]] * 2)):
        doc = {"schema_version": 1, "kind": kind, "p": p, "support_lo": 0,
               "coeffs": coeffs, "phi": phi}
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(json.dumps(doc))
        assert str(err.value) == "phi: only hermite masks carry phi"
        del doc["phi"]
        assert maskfile.parse(json.dumps(doc)).kind.value == kind


def _generated_masks():
    """Masks of tests/maskgen's seeded generators, each kind and shape."""
    rng = random.Random(28)
    out = [maskgen.rand_spectral_mask(rng) for _ in range(6)]
    out += [maskgen.rand_spectral_mask(rng, zeta_one=True) for _ in range(2)]
    out += [maskgen.rand_taylor_mask(rng) for _ in range(4)]
    out += [maskgen.rand_derivable_mask(rng, p, k) for p, k in ((1, 1), (2, 1), (3, 2))]
    out += [maskgen.rand_convergent_style_mask(rng, p, k) for p, k in ((2, 1), (3, 1), (4, 2))]
    out += [maskgen.long_spectral_mask(seed, 40, 3) for seed in range(2)]
    return out + [maskgen.not_in_tilde_mask(), maskgen.smoothed("merrien", 3)]


def test_serialize_matches_the_fraction_oracle():
    """serialize writes json.dumps(sort_keys=True, indent=2) of str() of
    each Fraction, byte for byte, without either."""
    masks = [catalog.get(n) for n in ("bspline0", "bspline1", "bspline5", "double-knot",
                                      "merrien", "derham", "merrien-smoothed",
                                      "derham-smoothed")]
    masks += _generated_masks() + [merrien_64_rounds(), big_coefficient_mask(),
                                   long_value_mask(), dense_vector_mask()]
    masks += [maskfile.parse(long_denominator_doc(p)) for p in (1, 2, 3)]
    for mask in masks:
        assert maskfile.serialize(mask) == maskfile_oracle.serialize(mask)


def _long_cell_masks():
    """Masks with a rational of 1001 characters, or of 5000 digits, in one
    cell or several; and a Hermite mask whose entries fit but whose phi,
    over the product of two 1600-bit denominators, does not."""
    over, huge = Fraction(-10 ** 997 - 1, 2), 10 ** 5000
    yield scalar_mask(LaurentPoly({0: 1, 1: over}))
    yield scalar_mask(LaurentPoly({-3: huge, 0: 1, 2: over}))
    for r, c, i in ((0, 0, 0), (1, 0, 0), (0, 1, 2), (1, 1, 1)):
        rows = [[LaurentPoly({0: 1, 2: 1}), LaurentPoly({1: 1})] for _ in range(2)]
        rows[r][c] = LaurentPoly({0: 1, 1: 1, i: over})
        yield vector_mask(SymbolMatrix(rows))
        rows[1 - r][c] = LaurentPoly({2: huge})
        yield vector_mask(SymbolMatrix(rows))
    a, b = 2 ** 1600 + 1, 2 ** 1600 + 3
    yield hermite_mask(SymbolMatrix([[LaurentPoly({1: Fraction(1, a)}),
                                      LaurentPoly({0: Fraction(1, b)})],
                                     [LaurentPoly({0: 1}), LaurentPoly({1: 1})]]))


@pytest.mark.parametrize("mask", list(_long_cell_masks()))
def test_too_long_rational_refusals_name_the_oracles_cell(mask):
    with pytest.raises(SubsmoothError) as want:
        maskfile_oracle.serialize(mask)
    with pytest.raises(SubsmoothError) as err:
        maskfile.serialize(mask)
    assert str(err.value) == str(want.value)
    assert "rational longer than 1000 characters" in str(err.value)
    assert str(err.value).startswith("phi: ") == (mask.kind is Kind.HERMITE)
    with pytest.raises(SubsmoothError) as err:
        maskfile.check_writable(mask)
    assert str(err.value) == str(want.value)


@pytest.mark.parametrize("terms,text", [
    ({}, "0"), ({0: 1}, "1"), ({0: -1}, "-1"), ({1: 1}, "z"), ({1: -1}, "-z"),
    ({-1: 1}, "z^-1"), ({-1: -1}, "-z^-1"), ({0: 3, 1: -3}, "3 - 3*z"),
    ({-1: "-1/2", 0: 2, 1: "1/3"}, "-1/2*z^-1 + 2 + 1/3*z"),
    ({-2: "2/4", 2: "-6/4"}, "1/2*z^-2 - 3/2*z^2"), ({5: -1, 7: 1}, "-z^5 + z^7")])
def test_str_of_polynomials(terms, text):
    f = LaurentPoly(terms)
    assert str(f) == maskfile_oracle.poly_str(f) == text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(-3, 3), st.integers(-4, 4) | st.fractions(
    -3, 3, max_denominator=6) | st.sampled_from([1, -1, 10 ** 30 + 1]), max_size=5))
def test_str_matches_the_fraction_oracle(terms):
    """Signs, integer and +-1 coefficients, exponents 0, 1 and -1: str()
    from one gcd per term equals the oracle's Fractions."""
    f = LaurentPoly(terms)
    assert str(f) == maskfile_oracle.poly_str(f)


def dense_vector_mask():
    """p = 4 vector mask (1 + 1/z)/2 * B with B(1) = 2I: its 1-eigenspace is
    everything, the canonical transform is the identity and the derived
    scheme is B, dense with entries 1 + z**16 on and 1 - z**16 off the
    diagonal and norms 4, 9, 28, 81, ..."""
    half = LaurentPoly({-1: Fraction(1, 2), 0: Fraction(1, 2)})
    return vector_mask(SymbolMatrix(
        [[half * LaurentPoly({0: 1, 16: 1 if i == j else -1}) for j in range(4)]
         for i in range(4)]))


def big_coefficient_mask():
    """Scalar mask (1 + z) q(z), q with 16 integer coefficients of about 600
    digits and q(1) = 1; an 11 KB mask file."""
    rng = random.Random(0)
    q = [rng.randrange(10 ** 599, 10 ** 600) for _ in range(15)]
    return scalar_mask(LaurentPoly({0: 1, 1: 1})
                       * LaurentPoly.from_coeffs(0, q + [1 - sum(q)]))


def long_value_mask():
    """Scalar mask (1 + z)(10**998 + (1 - 10**998) z): a 2.2 KB mask file whose
    limit values and norms outgrow floats and the digit limit of int strings."""
    big = 10 ** 998
    return scalar_mask(LaurentPoly({0: big, 1: 1, 2: 1 - big}))


def merrien_64_rounds():
    """merrien smoothed 64 times: support (-132, 1), 699-bit numerators."""
    mask = catalog.get("merrien")
    for _ in range(64):
        mask = smooth_hermite(mask)
    return mask


def wide_entry_doc(p, seed=0):
    """A vector mask file of 1000-character integer entries: two coefficients
    whose rows each sum to 1, so [A(1) - 2I; A(-1)] has rank p - 1 (its
    kernel is the ones vector) and canonical_transform runs all three
    eliminations on wide entries."""
    rng = random.Random(seed)

    def row():
        while True:
            xs = [rng.randrange(1 - 10 ** 999, 10 ** 999) for _ in range(p - 1)]
            xs.append(1 - sum(xs))
            if len(str(xs[-1])) <= 1000:
                return [str(x) for x in xs]

    return json.dumps({"schema_version": 1, "kind": "vector", "p": p,
                       "support_lo": 0,
                       "coeffs": [[row() for _ in range(p)] for _ in range(2)]})


class TestComponentCap:
    CAP = maskfile._MAX_P
    REFUSAL = f"p: {CAP + 1} is over the mask-file limit of {CAP}"

    def test_p_over_cap_refused_by_name(self, tmp_path, capsys):
        text = wide_entry_doc(self.CAP + 1)
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(text)
        assert str(err.value) == self.REFUSAL
        path = tmp_path / "wide.mask"
        path.write_text(text)
        assert main(["show", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {self.REFUSAL}\n"

    def test_other_faults_keep_their_messages(self):
        doc = json.loads(wide_entry_doc(self.CAP + 1))
        doc["phi"] = "0"
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(json.dumps(doc))
        assert str(err.value) == "phi: only hermite masks carry phi"
        doc = json.loads(wide_entry_doc(self.CAP + 1))
        doc["coeffs"][1][0][0] = "1/0"
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(json.dumps(doc))
        assert "coeffs[1][0][0]: invalid rational" in str(err.value)

    def test_serialize_refuses_what_parse_refuses(self):
        n = self.CAP + 1
        wide = vector_mask(SymbolMatrix(
            [[Z_PLUS_1 if i == j else LaurentPoly() for j in range(n)]
             for i in range(n)]))
        with pytest.raises(SubsmoothError) as err:
            maskfile.serialize(wide)
        assert str(err.value) == self.REFUSAL
        at_cap = maskfile.parse(wide_entry_doc(self.CAP))
        assert maskfile.parse(maskfile.serialize(at_cap)) == at_cap

    @pytest.mark.parametrize("argv,code", [(["show"], 0), (["certify"], 2),
                                           (["smooth"], 1)])
    def test_wide_entries_at_cap_within_two_seconds(self, argv, code, tmp_path,
                                                    capsys):
        """At p = cap the eliminations of 1000-character entries stay fast;
        smooth's first conjugation is then over the work budget, and certify
        refuses to print its norm."""
        path = tmp_path / "wide.mask"
        path.write_text(wide_entry_doc(self.CAP))
        t0 = time.perf_counter()
        assert main([*argv, str(path)]) == code
        assert time.perf_counter() - t0 < 2.0
        out, err = capsys.readouterr()
        if code == 0:
            assert "common 1-eigenspace basis: (1, 1, 1, 1, 1)" in out
        assert "Traceback" not in err


class TestFileErrors:
    """A file that cannot be read or written is one error line, exit 1."""

    def test_show_directory(self, tmp_path, capsys):
        assert main(["show", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path}: {os.strerror(errno.EISDIR)}\n")

    @pytest.mark.parametrize("argv", [["smooth", "catalog:merrien"],
                                      ["render", "catalog:bspline1", "--depth", "2"]])
    def test_out_into_missing_directory(self, argv, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.out"
        assert main([*argv, "--out", str(out)]) == 1
        # the file is opened before any work: no round is run or logged
        assert capsys.readouterr().err == f"error: {out}: {os.strerror(errno.ENOENT)}\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv,work", [
        (["smooth", "catalog:merrien", "--rounds", "64"], "smooth_hermite"),
        (["render", "catalog:bspline1", "--depth", "15"], "render")])
    def test_unwritable_out_refused_before_any_work(self, argv, work, tmp_path, capsys,
                                                    monkeypatch):
        """An --out that is a directory or lies in a missing one fails in the
        words a write would fail in, before the command's work starts."""
        monkeypatch.setattr(cli, work, lambda *args: pytest.fail(f"{work} called"))
        for out, code in ((tmp_path, errno.EISDIR), (tmp_path / "no" / "x.out", errno.ENOENT)):
            assert main([*argv, "--out", str(out)]) == 1
            assert capsys.readouterr() == ("", f"error: {out}: {os.strerror(code)}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,text,args", [
        ("smooth", long_denominator_doc(4), []),  # round 1 is over the work budget
        ("render", maskfile.serialize(long_value_mask()), ["--depth", "2"])])
    def test_failure_leaves_out_file_as_it_was(self, command, text, args, tmp_path,
                                               capsys):
        """A failed round or render leaves an existing --out file byte for
        byte as it was, and creates no new one."""
        path = tmp_path / "in.mask"
        path.write_text(text)
        old = tmp_path / "old.out"
        old.write_bytes(b"kept\r\n")
        assert main([command, str(path), *args, "--out", str(old)]) == 1
        assert old.read_bytes() == b"kept\r\n"
        new = tmp_path / "new.out"
        assert main([command, str(path), *args, "--out", str(new)]) == 1
        assert not new.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_stdout_closed_by_reader(self, capsys, monkeypatch):
        """An error with no file name, such as a closed pipe, is one line."""
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["render", "catalog:bspline1", "--depth", "2"]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")


class TestWorkCeilings:
    def test_lmax_over_ceiling(self, capsys):
        assert main(["certify", "catalog:merrien", "--lmax", str(MAX_LMAX + 1)]) == 1
        assert capsys.readouterr().err == (
            f"error: --lmax must be in 1..{MAX_LMAX}, got {MAX_LMAX + 1}\n")

    def test_ceiling_checked_before_loading(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load", lambda ref: pytest.fail("mask loaded"))
        assert main(["certify", "catalog:merrien", "--lmax", "1000000"]) == 1

    def test_depth_checked_before_loading(self, tmp_path, capsys):
        """A depth below 1 is refused by name before the mask is looked up,
        as --rounds and --lmax are."""
        assert main(["render", str(tmp_path / "missing.mask"), "--depth", "0"]) == 1
        assert capsys.readouterr().err == "error: --depth must be >= 1\n"

    def test_depth_over_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "render", lambda *a: pytest.fail("rendered"))
        assert main(["render", "catalog:merrien-smoothed", "--depth", "15"]) == 1
        assert f"budget of {MAX_RENDER_ROWS}" in capsys.readouterr().err
        assert main(["render", "catalog:bspline3", "--depth", str(10 ** 9)]) == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("name,depth", [("bspline3", 11), ("merrien-smoothed", 11),
                                            ("derham-smoothed", 11), ("bspline1", 13)])
    def test_used_depths_stay_accepted(self, name, depth, monkeypatch):
        calls = []

        class Sample:
            def to_csv(self, exact=False):
                return ""

        monkeypatch.setattr(cli, "render", lambda *a: calls.append(a) or Sample())
        assert main(["render", f"catalog:{name}", "--depth", str(depth)]) == 0
        assert calls

    @pytest.mark.parametrize("name,depth", [("bspline3", 11), ("merrien-smoothed", 11),
                                            ("derham-smoothed", 11), ("bspline1", 13),
                                            ("bspline64", 10)])
    def test_used_depths_within_render_work_budget(self, name, depth):
        """The depths above, and bspline64 at depth 10, the costliest catalog
        render inside the row budget (its last step prices 35,076,096: 2,192,256
        term products at the floor), really render."""
        assert render(catalog.get(name), depth).n == depth

    def test_render_work_budget(self, tmp_path, capsys):
        """The 64-round merrien mask renders at depth 4, the largest depth the
        work budget admits, within 2 s; depth 9 is refused before step 5."""
        path = tmp_path / "m64.mask"
        path.write_text(maskfile.serialize(merrien_64_rounds()))
        t0 = time.perf_counter()
        assert main(["render", str(path), "--depth", "4"]) == 0
        assert time.perf_counter() - t0 < 2.0
        capsys.readouterr()
        assert main(["render", str(path), "--depth", "9"]) == 1
        assert capsys.readouterr().err == (
            "error: --depth 9: refinement step 5 would cost 90601049 word products, "
            f"over the budget of {MAX_WORK}\n")

    def test_render_work_floor_per_entry_product(self, tmp_path, capsys):
        """A scalar mask of 300 one-digit coefficients at depth 8 is inside
        the row budget, but each of its one-word term products is charged the
        floor of word products, so step 7 (5,651,400 term products) is
        refused after six cheap steps, within 1 s."""
        path = tmp_path / "wide.mask"
        mask = scalar_mask(LaurentPoly.from_coeffs(0, [1 + i % 9 for i in range(300)]))
        path.write_text(maskfile.serialize(mask))
        assert 300 * 2 ** 8 <= MAX_RENDER_ROWS
        t0 = time.perf_counter()
        assert main(["render", str(path), "--depth", "8"]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            "error: --depth 8: refinement step 7 would cost "
            f"{5_651_400 * laurent._FLOOR} word products, "
            f"over the budget of {MAX_WORK}\n")

    def test_used_lmax_stays_accepted(self, capsys):
        assert main(["certify", "catalog:bspline1"]) == 0
        assert main(["certify", "catalog:bspline1", "--lmax", "12"]) == 0

    def test_wide_mask_refused_by_symbol_width_budget(self):
        """Derived symbol 1 + z**350000 has norm 1 at every power; at L = 2
        its iterated symbol would be 3*350000 + 1 terms wide."""
        n = 175_000
        half = Fraction(1, 2)
        wide = scalar_mask(LaurentPoly({0: half, 1: half, 2 * n: half,
                                        2 * n + 1: half}))
        t0 = time.perf_counter()
        res = certify_vector(wide, 0, MAX_LMAX)
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(res, Refusal)
        assert res.norms == (1,)
        assert res.reason == (f"the iterated symbol at L=2 would be 1050001 terms "
                              f"wide, over the budget of {MAX_SYMBOL_TERMS}")

    def test_width_budget_refusal_at_cli(self, capsys, monkeypatch):
        """The stage of merrien --ell 2 spans 6 exponents (hi - lo = 5): L = 5
        is 156 terms wide and L = 6 would be 316."""
        monkeypatch.setattr(refine, "MAX_SYMBOL_TERMS", 200)
        assert main(["certify", "catalog:merrien", "--ell", "2", "--lmax", "16"]) == 2
        out = capsys.readouterr().out
        assert "the iterated symbol at L=6 would be 316 terms wide" in out
        assert "norms per power: 5, 13/2, 31/4, 67/8, 139/16\n" in out

    def test_width_budget_checked_per_power(self):
        """bspline64 is granted at L = 1; its L = 16 stage would be over the
        budget."""
        res = certify_vector(catalog.get("bspline64"), 0, MAX_LMAX)
        assert (2 ** MAX_LMAX - 1) * 64 + 1 > MAX_SYMBOL_TERMS
        assert not isinstance(res, Refusal) and res.L == 1

    def test_catalog_search_to_max_lmax_within_work_budget(self, capsys):
        """The stage of derham --ell 3 costs the most per power of the catalog
        searches: 4,194,382 term products at L = 16, priced at the floor."""
        assert main(["certify", "catalog:derham", "--ell", "3",
                     "--lmax", str(MAX_LMAX)]) == 2
        assert "no power up to 16 is contractive" in capsys.readouterr().out

    @pytest.mark.parametrize("make,L,work", [
        # 64 pairs of one-word entries: two terms of A(z**4096) times each
        # entry of the power at L = 12, at the floor
        (dense_vector_mask, 13, 64 * 2 * 65_509 * 16),
        # the 16 terms of the mask (32-word numerators) times the 946 terms of
        # the power at L = 6 (188-word numerators)
        (big_coefficient_mask, 7, 16 * 946 * 188 * 32)])
    def test_work_budget_refuses_hostile_masks(self, make, L, work, tmp_path, capsys):
        path = tmp_path / "hostile.mask"
        path.write_text(maskfile.serialize(make()))
        t0 = time.perf_counter()
        assert main(["certify", str(path), "--lmax", str(MAX_LMAX)]) == 2
        assert time.perf_counter() - t0 < 2.0
        out = capsys.readouterr().out
        assert (f"the iterated symbol at L={L} would cost {work} word products, "
                f"over the budget of {MAX_WORK}") in out
        norms = out.split("norms per power: ")[1].split(", ")
        assert len(norms) == L - 1

    @pytest.mark.parametrize("p,smooth_price,certify_price", [
        (4, 153_050_094, 210_095_404), (5, 1_233_244_152, 1_579_980_824)])
    def test_conjugation_of_long_denominators_refused(self, p, smooth_price, certify_price,
                                                      tmp_path, capsys):
        """The first product in a canonical basis of a mask with independent
        ~490-digit denominators is over the work budget: smooth refuses it
        before round 1 ends and certify in its first descent, each within 2 s.
        The round prices R**-1 A(z) R D(z**2) and the descent
        R^T A(z)^T R^-T D(z)^T, so each command has its own price."""
        path = tmp_path / "long-den.mask"
        path.write_text(long_denominator_doc(p))

        def refusal(price):
            return (f"a symbol operation would cost {price} word products, "
                    f"over the budget of {MAX_WORK}")
        t0 = time.perf_counter()
        assert main(["smooth", str(path)]) == 1
        assert time.perf_counter() - t0 < 2.0
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("note: ") and err[1:] == [f"error: {refusal(smooth_price)}"]
        t0 = time.perf_counter()
        assert main(["certify", str(path)]) == 2
        assert time.perf_counter() - t0 < 2.0
        assert (capsys.readouterr().out
                == f"inconclusive at stage 'descent 1': {refusal(certify_price)}\n")

    def test_rounds_over_ceiling_refused_before_loading(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load", lambda ref: pytest.fail("mask loaded"))
        assert main(["smooth", "catalog:bspline1", "--rounds", str(MAX_ROUNDS + 1)]) == 1
        assert f"--rounds must be in 1..{MAX_ROUNDS}" in capsys.readouterr().err
        assert main(["smooth", "catalog:bspline1", "--rounds", "1000000"]) == 1
        assert main(["smooth", "catalog:bspline1", "--rounds", "0"]) == 1

    def test_rounds_at_ceiling_accepted(self, tmp_path):
        out = tmp_path / "b.mask"
        assert main(["smooth", "catalog:bspline3", "--rounds", str(MAX_ROUNDS),
                     "--out", str(out)]) == 0
        assert maskfile.load(str(out)) == catalog.bspline(3 + MAX_ROUNDS)


def run_cli(*argv):
    """The command line in a child process, with the interpreter's default
    digit limit for integer strings."""
    src = os.path.dirname(os.path.dirname(subsmooth.__file__))
    return subprocess.run([sys.executable, "-m", "subsmooth", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src,
                                   PYTHONINTMAXSTRDIGITS="4300"))


class TestOutputBoundary:
    """Values that floats or int strings cannot hold are refused by name."""

    @pytest.fixture
    def long_mask(self, tmp_path):
        path = tmp_path / "long.mask"
        path.write_text(maskfile.serialize(long_value_mask()))
        return str(path)

    def test_float_overflow_refused(self, long_mask):
        proc = run_cli("render", long_mask, "--depth", "2")
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert proc.stderr == ("error: component c1 at index 0 is beyond the float "
                               "range; render it with --exact\n")

    def test_far_support_t_refused(self, tmp_path, capsys):
        """t = i / 2**n of a support far from 0 is refused by name, as the
        values are; --exact writes it."""
        path = tmp_path / "far.mask"
        path.write_text(scalar_doc(["1/2", "1", "1/2"], support_lo=10 ** 400))
        assert main(["render", str(path), "--depth", "2"]) == 1
        assert capsys.readouterr().err == (f"error: t at index {3 * 10 ** 400} is beyond "
                                           "the float range; render it with --exact\n")
        assert main(["render", str(path), "--depth", "2", "--exact"]) == 0
        assert capsys.readouterr().out.startswith(f"t,c1\n{3 * 10 ** 400 // 4},1/4\n")

    def test_exact_digit_limit_refused(self, long_mask):
        proc = run_cli("render", long_mask, "--depth", "6", "--exact")
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert proc.stderr == ("error: component c1 at index 0 has 5989 digits, over "
                               "the limit of 4300 digits for integer strings\n")

    def test_long_norm_refused(self, long_mask):
        """The norms from L = 5 on have over 4300 digits."""
        proc = run_cli("certify", long_mask, "--lmax", "16")
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert ("the norm at L=5 would print 4991 digits, over the limit of 4300 "
                "digits for integer strings") in proc.stdout
        assert len(proc.stdout.split("norms per power: ")[1].split(", ")) == 4

    def test_float_boundary_is_exact(self):
        """x / den overflows from (2**54 - 1) * 2**970 on, which rounds to
        2**1024; the value just below rounds to the largest float."""
        top = (2 ** 54 - 1) << 970
        assert FinSeq.make(1, 0, [[top - 1]]).to_csv() == "t,c1\n0,1.7976931348623157e+308\n"
        assert FinSeq.make(1, 0, [[Fraction(3 * top - 1, 3)]]).rows[0][1][0] > 1e308
        for value in (top, Fraction(-3 * top, 3), Fraction(5 * top, 5)):
            seq = FinSeq.make(1, 0, [[0], [value]])
            with pytest.raises(SubsmoothError, match="c1 at index 1 is beyond"):
                seq.to_csv()
            with pytest.raises(SubsmoothError):
                seq.rows

    def test_digit_boundary_is_exact(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter has no digit limit for int strings")
        fits = 10 ** limit - 1
        seq = FinSeq.make(2, 0, [[fits, Fraction(1, fits)]])
        assert seq.to_csv(exact=True) == f"t,c1,c2\n0,{fits},1/{fits}\n"
        for value in (10 ** limit, Fraction(-1, 10 ** limit), Fraction(10 ** limit, 3)):
            with pytest.raises(SubsmoothError, match=f"c2 at index 0 has {limit + 1} "
                                                     f"digits, over the limit of {limit}"):
                FinSeq.make(2, 0, [[1, value]]).to_csv(exact=True)


    def test_smooth_refuses_output_parse_would_refuse(self, long_mask, tmp_path, capsys):
        out = tmp_path / "smoothed.mask"
        assert main(["smooth", long_mask, "--rounds", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.endswith("error: coeffs[1][0][0]: rational longer than 1000 "
                            "characters, which a mask file cannot hold\n")
        assert "Traceback" not in err
        assert not out.exists()

    def test_smooth_refuses_in_the_first_round_a_file_cannot_hold(self, tmp_path, capsys):
        """derham's coefficients outgrow a mask file at round 44 of 64, and
        the chain stops there; below 1657 bits a side a rational always fits."""
        assert len(str(Fraction(1 - 2 ** 1657, 2 ** 1657 - 2))) == 1000
        out = tmp_path / "d64.mask"
        assert main(["smooth", "catalog:derham", "--rounds", "64", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("round ") for line in err) == 44
        assert err[-2].startswith("round 44: ")
        assert err[-1] == ("error: coeffs[0][1][0]: rational longer than 1000 characters, "
                           "which a mask file cannot hold")
        assert not out.exists()

    def test_mask_file_length_boundary_is_exact(self):
        fits = scalar_mask(LaurentPoly({0: 1, 1: Fraction(-10 ** 996 - 1, 2)}))
        assert len(str(fits.symbol[0, 0].coeff(1))) == 1000
        assert maskfile.parse(maskfile.serialize(fits)) == fits
        # 1001 characters, and one that str() would refuse under the digit limit
        for value in (Fraction(-10 ** 997 - 1, 2), 10 ** 5000):
            with pytest.raises(SubsmoothError, match=r"^coeffs\[1\]\[0\]\[0\]: rational "
                                                     "longer than 1000 characters"):
                maskfile.serialize(scalar_mask(LaurentPoly({0: 1, 1: value})))


class TestRefusalWording:
    WILD = scalar_mask(LaurentPoly({0: -2, 1: 1, 2: 3}))

    def test_ell_zero_keeps_stage(self):
        res = certify_vector(self.WILD, 0, 3)
        assert isinstance(res, Refusal)
        assert res.stage == "contractivity"

    def test_ell_one_names_descents(self):
        res = certify_vector(smooth_raw(self.WILD, 1), 1, 3)
        assert isinstance(res, Refusal)
        assert res.stage == "contractivity after 1 descents"

    def test_cli_ell_zero(self, tmp_path, capsys):
        path = tmp_path / "wild.mask"
        path.write_text(maskfile.serialize(self.WILD))
        assert main(["certify", str(path), "--ell", "0", "--lmax", "3"]) == 2
        out = capsys.readouterr().out
        assert "inconclusive at stage 'contractivity':" in out
        assert "descents" not in out


def _doc(name, **change):
    doc = json.loads(maskfile.serialize(catalog.get(name)))
    doc.update(change)
    return doc


def _merrien_with_a22_at_one_2(spectral=True):
    """merrien's first row (phi = 0) and a22 = 1/2 + 3z/2, so a22(1) = 2, with
    a21 = z - 1/z, under which the spectral condition holds, or with merrien's
    own a21, under which it fails in group (4)."""
    s = catalog.get("merrien").symbol
    a21 = LaurentPoly({-1: -1, 1: 1}) if spectral else s[1, 0]
    return json.loads(maskfile.serialize(hermite_mask(SymbolMatrix((
        (s[0, 0], s[0, 1]), (a21, LaurentPoly({0: "1/2", 1: "3/2"})))))))


class TestRefusalMessages:
    """Refusals at the front end, each through main: exit 1 and one exact
    error line on stderr."""

    DEFECTIVE = {"schema_version": 1, "kind": "vector", "p": 2, "support_lo": 0,
                 "coeffs": [[["1", "0"], ["0", "3/2"]], [["1", "0"], ["0", "1/2"]]]}
    DEFECTIVE_ERROR = ("complement has dimension 0, expected 1; eigenvalue 1 is "
                       "defective (non-convergent-style mask)")

    @pytest.mark.parametrize("command,doc,message", [
        ("show", _doc("bspline1", coeffs=[[[1]], [["1"]], [["1/2"]]]),
         "coeffs[0][0][0]: rationals must be strings, got 1"),
        ("show", {k: v for k, v in _doc("merrien").items() if k != "phi"},
         "phi: required for hermite masks"),
        ("certify", DEFECTIVE, DEFECTIVE_ERROR),
        ("smooth", DEFECTIVE, DEFECTIVE_ERROR),
        ("smooth", _merrien_with_a22_at_one_2(), "zeta undefined: a22(1) = 2"),
        ("smooth", _merrien_with_a22_at_one_2(spectral=False),
         "spectral condition fails; violated conditions [4]"),
    ])
    def test_file_refused(self, command, doc, message, tmp_path, capsys):
        path = tmp_path / "x.mask"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1] == f"error: {message}"
        assert len(lines) == (2 if command == "smooth" else 1)  # smooth's note first

    def test_basis_over_p_refused(self, capsys):
        assert main(["render", "catalog:merrien", "--depth", "2", "--basis", "3"]) == 1
        assert capsys.readouterr().err == "error: --basis must be in 1..2\n"


@pytest.mark.parametrize("name,ell,reason", [
    ("bspline1", 3, "the even/odd coefficient sums have no common 1-eigenvector"),
    ("merrien", 4, TestRefusalMessages.DEFECTIVE_ERROR)])
def test_eigenspace_error_after_descent_1_is_a_refusal(name, ell, reason, capsys):
    """A derived scheme with no canonical transform ends the search at its
    descent (exit 2); the input's own is an error (exit 1, above)."""
    assert main(["certify", f"catalog:{name}", "--ell", str(ell)]) == 2
    assert capsys.readouterr() == (f"inconclusive at stage 'descent 3': {reason}\n", "")


def test_consistency_error_reported_as_internal(capsys, monkeypatch):
    def broken(mask):
        raise ConsistencyError("smoothing changed the common 1-eigenspace")

    monkeypatch.setattr(cli, "smooth_vector", broken)
    assert main(["smooth", "catalog:bspline1"]) == 1
    err = capsys.readouterr().err
    assert "internal error, please report: smoothing changed" in err
    assert "error: smoothing" not in err
