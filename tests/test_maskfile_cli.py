import errno
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsmooth
from subsmooth import (LaurentPoly, MaskFileError, RatMatrix, SubsmoothError,
                       SymbolMatrix, catalog, inverse_taylor, maskfile, scalar_mask,
                       vector_mask)
from subsmooth.cli import main

from tests import catalog_oracle

ALL_CATALOG = ["bspline0", "bspline1", "bspline3", "double-knot", "merrien",
               "derham", "merrien-smoothed", "derham-smoothed"]


class TestMaskFile:
    @pytest.mark.parametrize("name", ALL_CATALOG)
    def test_round_trip(self, name):
        m = catalog.get(name)
        text = maskfile.parse(maskfile.serialize(m))
        assert text == m

    @pytest.mark.parametrize("name", ALL_CATALOG)
    def test_serialization_is_canonical(self, name):
        m = catalog.get(name)
        text = maskfile.serialize(m)
        assert maskfile.serialize(maskfile.parse(text)) == text
        doc = json.loads(text)
        assert list(doc) == sorted(doc)

    def test_rationals_are_reduced_strings(self):
        text = maskfile.serialize(catalog.get("merrien"))
        doc = json.loads(text)
        flat = [x for mat in doc["coeffs"] for row in mat for x in row]
        assert "1/2" in flat and "-1/8" in flat
        assert all(isinstance(x, str) for x in flat)

    def test_zero_denominator_rejected(self):
        text = maskfile.serialize(catalog.get("bspline1")).replace('"1/2"', '"1/0"', 1)
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(text)
        assert "coeffs" in str(err.value)

    def test_bad_json_reports_position(self):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse("{ not json\n}")
        assert "line" in str(err.value)

    def test_wrong_phi_rejected(self):
        text = maskfile.serialize(catalog.get("merrien"))
        doc = json.loads(text)
        doc["phi"] = "1/3"
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(json.dumps(doc))
        assert "phi" in str(err.value)

    def test_inverse_taylor_outside_the_taylor_class_round_trips(self):
        """B = [[1+z, 1], [1, 1+z]] is not Taylor-class; its inverse Taylor
        mask has phi = -1/4, which the file must carry."""
        f, one = LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1})
        m = inverse_taylor(vector_mask(SymbolMatrix(((f, one), (one, f)))))
        assert m.phi == Fraction(-1, 4)
        assert maskfile.parse(maskfile.serialize(m)) == m

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.fractions(-8, 8, max_denominator=8), min_size=1,
                             max_size=4), min_size=4, max_size=4),
           st.lists(st.integers(-2, 1), min_size=4, max_size=4))
    def test_inverse_taylor_round_trips(self, coeffs, los):
        """Any 2x2 B with (b12 - b11 - b21 + b22)(1) = 0, the condition
        untwining by the Taylor operator needs; the zero B gives the zero
        mask, which has no file."""
        b11, b12, b21, b22 = (LaurentPoly.from_coeffs(lo, c) for lo, c in zip(los, coeffs))
        b22 = b22 + LaurentPoly({0: (b11 + b21 - b12 - b22).evaluate(1)})
        sym = SymbolMatrix(((b11, b12), (b21, b22)))
        m = inverse_taylor(vector_mask(sym))
        if sym.is_zero():
            with pytest.raises(SubsmoothError, match="^the zero mask has no mask file$"):
                maskfile.serialize(m)
        else:
            assert maskfile.parse(maskfile.serialize(m)) == m

    @pytest.mark.parametrize("mask", [
        scalar_mask(LaurentPoly()), vector_mask(SymbolMatrix([[LaurentPoly()] * 2] * 2)),
        inverse_taylor(vector_mask(SymbolMatrix([[LaurentPoly()] * 2] * 2)))],
        ids=["scalar", "vector", "hermite"])
    def test_zero_mask_refused_by_name(self, mask):
        """parse refuses a file without a nonzero coefficient, so serialize
        writes none."""
        with pytest.raises(SubsmoothError) as err:
            maskfile.serialize(mask)
        assert str(err.value) == "the zero mask has no mask file"

    def test_wrong_shape_rejected(self):
        text = maskfile.serialize(catalog.get("merrien"))
        doc = json.loads(text)
        doc["coeffs"][0][0] = ["1"]
        with pytest.raises(MaskFileError):
            maskfile.parse(json.dumps(doc))

    def test_unknown_kind_rejected(self):
        with pytest.raises(MaskFileError) as err:
            maskfile.parse(json.dumps({"schema_version": 1, "kind": "spline",
                                       "p": 1, "support_lo": 0, "coeffs": []}))
        assert "kind" in str(err.value)


class TestCatalog:
    def test_double_knot_coefficients(self):
        dk = catalog.get("double-knot")
        assert dk.coefficient(0) == RatMatrix.from_rows([["1/4", 0], ["5/8", "1/8"]])
        assert dk.coefficient(1) == RatMatrix.from_rows([["3/4", "1/4"], ["1/4", "3/4"]])
        assert dk.coefficient(2) == RatMatrix.from_rows([["1/8", "5/8"], [0, "1/4"]])

    def test_merrien_coefficients(self):
        m = catalog.get("merrien")
        assert m.coefficient(-1) == RatMatrix.from_rows([["1/2", "-1/8"],
                                                         ["3/4", "-1/8"]])
        assert m.coefficient(0) == RatMatrix.from_rows([[1, 0], [0, "1/2"]])
        assert m.coefficient(1) == RatMatrix.from_rows([["1/2", "1/8"],
                                                        ["-3/4", "-1/8"]])

    def test_derham_coefficients(self):
        d = catalog.get("derham")
        eighth = Fraction(1, 8)
        assert d.coefficient(-2) == RatMatrix.from_rows(
            [["5/4", "-3/8"], ["9/2", "-5/4"]]).scale(eighth)
        assert d.coefficient(-1) == RatMatrix.from_rows(
            [["27/4", "-9/8"], ["9/2", "3/4"]]).scale(eighth)
        assert d.coefficient(0) == RatMatrix.from_rows(
            [["27/4", "9/8"], ["-9/2", "3/4"]]).scale(eighth)
        assert d.coefficient(1) == RatMatrix.from_rows(
            [["5/4", "3/8"], ["-9/2", "-5/4"]]).scale(eighth)

    def test_bspline_symbols(self):
        from subsmooth import LaurentPoly
        assert catalog.get("bspline0").symbol[0, 0] == LaurentPoly({0: 1, 1: 1})
        assert catalog.get("bspline1").symbol[0, 0] == LaurentPoly(
            {-1: "1/2", 0: 1, 1: "1/2"})

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog.get("quintic-box")

    @pytest.mark.parametrize("name", [*catalog_oracle.FIXED, *(f"bspline{l}" for l in range(65))])
    def test_every_entry_equals_the_oracle(self, name):
        """The integer numerators of each entry, its kind and its normalized
        triple equal those of the rational and factored constructions."""
        want = (catalog_oracle.bspline(int(name[7:])) if name.startswith("bspline")
                else catalog_oracle.FIXED[name]())
        got = catalog.get(name)
        assert got.kind is want.kind
        assert ([[(e.lo, e.nums, e.den) for e in row] for row in got.symbol.entries]
                == [[(e.lo, e.nums, e.den) for e in row] for row in want.symbol.entries])


class TestCli:
    def test_show_merrien(self, capsys):
        assert main(["show", "catalog:merrien"]) == 0
        out = capsys.readouterr().out
        assert "spectral condition: holds, phi = 0" in out
        assert "interpolatory: True" in out

    def test_show_double_knot(self, capsys):
        assert main(["show", "catalog:double-knot"]) == 0
        out = capsys.readouterr().out
        assert "common 1-eigenspace basis: (1, 1)" in out

    def test_show_stdout_is_pinned(self, tmp_path, capsys):
        """The whole stdout of show for every catalog mask and for three 2x2
        vector masks, one per outcome of check_taylor: eigenspace span{e2}
        (merrien's Taylor scheme), the whole plane (diag(1 + z, 1 + z)) and a
        line other than span{e2} (double-knot, in the catalog)."""
        one_plus_z, zero = LaurentPoly({0: 1, 1: 1}), LaurentPoly()
        files = {"merrien-taylor": subsmooth.taylor_scheme(catalog.get("merrien")),
                 "diag-1+z": vector_mask(SymbolMatrix([[one_plus_z, zero],
                                                       [zero, one_plus_z]]))}
        args = [f"catalog:{name}" for name in ALL_CATALOG + ["bspline64"]]
        for label, mask in files.items():
            path = tmp_path / f"{label}.mask"
            path.write_text(maskfile.serialize(mask))
            args.append(str(path))
        out = []
        for arg in args:
            assert main(["show", arg]) == 0
            out.append(f"$ subsmooth show {os.path.basename(arg)}\n"
                       + capsys.readouterr().out)
        pinned = os.path.join(os.path.dirname(__file__), "show_stdout.txt")
        with open(pinned, encoding="utf-8") as fh:
            assert "".join(out) == fh.read()

    @pytest.mark.parametrize("name,message", [
        ("nope", "unknown catalog scheme 'nope'; available: bspline{l}, derham, "
                 "derham-smoothed, double-knot, merrien, merrien-smoothed"),
        ("bspline65", "b-spline degree 65 out of range (<= 64)"),
        # the name is matched whole, in ASCII digits
        pytest.param("bspline3\n", "unknown catalog scheme 'bspline3\\n'; available: "
                     "bspline{l}, derham, derham-smoothed, double-knot, merrien, "
                     "merrien-smoothed", id="trailing-newline"),
        pytest.param("bspline\u0663", "unknown catalog scheme 'bspline\u0663'; available: "
                     "bspline{l}, derham, derham-smoothed, double-knot, merrien, "
                     "merrien-smoothed", id="arabic-indic-digit"),
        # a run int() would refuse to read is out of range unread
        pytest.param("bspline" + "0" * 5000 + "3",
                     "b-spline degree " + "0" * 5000 + "3 out of range (<= 64)",
                     id="overlong-digit-run"),
    ])
    def test_catalog_error_prints_its_message(self, name, message, capsys):
        assert main(["show", f"catalog:{name}"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_show_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mask"
        bad.write_text(maskfile.serialize(catalog.get("bspline1"))
                       .replace('"1/2"', '"1/0"', 1))
        assert main(["show", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_show_missing_file(self, capsys):
        assert main(["show", "/nonexistent/mask.json"]) == 1
        assert capsys.readouterr().err == (
            f"error: /nonexistent/mask.json: {os.strerror(errno.ENOENT)}\n")

    def test_smooth_merrien_matches_reference(self, tmp_path, capsys):
        out = tmp_path / "c.mask"
        assert main(["smooth", "catalog:merrien", "--rounds", "1",
                     "--out", str(out)]) == 0
        assert out.read_text() == maskfile.serialize(catalog.get("merrien-smoothed"))
        log = capsys.readouterr().err
        assert "zeta = 1" in log
        assert "phi 0 -> -1/2" in log

    def test_smooth_derham_matches_reference(self, tmp_path):
        out = tmp_path / "c.mask"
        assert main(["smooth", "catalog:derham", "--out", str(out)]) == 0
        assert out.read_text() == maskfile.serialize(catalog.get("derham-smoothed"))

    def test_smooth_scalar_two_rounds(self, tmp_path):
        out = tmp_path / "b3.mask"
        assert main(["smooth", "catalog:bspline1", "--rounds", "2",
                     "--out", str(out)]) == 0
        assert out.read_text() == maskfile.serialize(catalog.get("bspline3"))

    def test_smooth_phi_drops_every_round(self, tmp_path, capsys):
        out = tmp_path / "c2.mask"
        assert main(["smooth", "catalog:merrien", "--rounds", "2",
                     "--out", str(out)]) == 0
        log = capsys.readouterr().err
        assert "phi 0 -> -1/2" in log
        assert "phi -1/2 -> -1" in log
        assert maskfile.load(str(out)).phi == -1

    def test_certify_bspline(self, capsys):
        assert main(["certify", "catalog:bspline1", "--ell", "0"]) == 0
        assert "L=1" in capsys.readouterr().out.replace(" ", "")

    def test_certify_merrien_chain(self, capsys):
        assert main(["certify", "catalog:merrien", "--ell", "1"]) == 0
        out = capsys.readouterr().out
        assert "chain certificate" in out

    def test_certify_zero_mask_errors(self, tmp_path, capsys):
        zero = tmp_path / "zero.mask"
        zero.write_text(json.dumps({"schema_version": 1, "kind": "scalar",
                                    "p": 1, "support_lo": 0, "coeffs": []}) + "\n")
        assert main(["certify", str(zero)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_certify_inconclusive_exit_code(self, tmp_path, capsys):
        # wild coefficients: no contractive power at small lmax
        doc = {"schema_version": 1, "kind": "scalar", "p": 1,
               "support_lo": 0, "coeffs": [[["-2"]], [["1"]], [["3"]]]}
        mask = tmp_path / "wild.mask"
        mask.write_text(json.dumps(doc) + "\n")
        assert main(["certify", str(mask), "--lmax", "3"]) == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_certify_lmax_bounds_the_search(self, capsys):
        # the Taylor scheme needs L=3, so lmax=1 must be inconclusive
        assert main(["certify", "catalog:merrien", "--ell", "1", "--lmax", "1"]) == 2
        assert main(["certify", "catalog:merrien", "--ell", "1"]) == 0

    def test_render_merrien(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["render", "catalog:merrien", "--depth", "6",
                     "--basis", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,c1,c2"
        row0 = [line for line in lines[1:] if line.startswith("0,")]
        assert row0 and row0[0].split(",")[1] == "1"

    def test_render_smoothed_support(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["render", "catalog:merrien-smoothed", "--depth", "6",
                     "--out", str(out)]) == 0
        ts = [float(line.split(",")[0])
              for line in out.read_text().strip().split("\n")[1:]]
        assert min(ts) >= -6 and max(ts) <= 1

    def test_render_depth_zero_is_usage_error(self, capsys):
        assert main(["render", "catalog:merrien", "--depth", "0"]) == 1
        assert "depth" in capsys.readouterr().err

    def test_render_exact_flag(self, capsys):
        assert main(["render", "catalog:bspline1", "--depth", "1", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "1/2" in out

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(subsmooth.__file__))
        proc = subprocess.run([sys.executable, "-m", "subsmooth", "show",
                               "catalog:derham"], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert "phi: -1/2" in proc.stdout
