"""The mask-file and symbol-printing boundary through Fractions, kept as a
slow independent oracle.

``parse`` reads each rational into a ``Fraction`` under its field name and
builds every entry with ``LaurentPoly.from_coeffs``, the dict-of-Fraction
constructor; ``serialize`` writes ``str()`` of each coefficient's Fraction
through ``json.dumps(sort_keys=True, indent=2)``; ``poly_str`` prints a
polynomial term by term from its ``coeffs`` mapping.  The package reads and
writes the same bytes from integer numerators, one gcd per cell or term.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

from subsmooth import (Kind, LaurentPoly, Mask, MaskFileError, SubsmoothError,
                       SymbolMatrix, hermite_mask, scalar_mask, vector_mask)

SCHEMA_VERSION = 1
_KINDS = {"scalar": Kind.SCALAR, "vector": Kind.VECTOR, "hermite": Kind.HERMITE}
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_MAX_RATIONAL_CHARS = 1000
_MAX_P = 5


def _writable(x: Fraction, where: str) -> str:
    if (max(abs(x.numerator), x.denominator).bit_length() <= 4 * _MAX_RATIONAL_CHARS
            and len(s := str(x)) <= _MAX_RATIONAL_CHARS):
        return s
    raise SubsmoothError(f"{where}: rational longer than {_MAX_RATIONAL_CHARS} "
                         "characters, which a mask file cannot hold")


def _str_to_rat(s, where: str) -> Fraction:
    if not isinstance(_fits(s, where), str):
        raise MaskFileError(f"{where}: rationals must be strings, got {s!r}")
    if len(s) > _MAX_RATIONAL_CHARS:
        raise MaskFileError(f"{where}: rational longer than "
                            f"{_MAX_RATIONAL_CHARS} characters")
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise MaskFileError(f"{where}: invalid rational {s!r} "
                            "(expected an integer or p/q)")
    num = int(m[1])
    if m[2] is None:
        return Fraction(num)
    den = int(m[2])
    if den == 0:
        raise MaskFileError(f"{where}: invalid rational {s!r} (zero denominator)")
    if math.gcd(num, den) != 1:
        raise MaskFileError(f"{where}: rational {s!r} is not in lowest terms")
    return Fraction(num, den)


def _int_field(doc: dict, key: str):
    v = _fits(doc.get(key), key)
    return v if isinstance(v, int) and not isinstance(v, bool) else None


def serialize(mask: Mask) -> str:
    sym, p = mask.symbol, mask.p
    if p > _MAX_P:
        raise SubsmoothError(f"p: {p} is over the mask-file limit of {_MAX_P}")
    if mask.support is None:
        raise SubsmoothError("the zero mask has no mask file")
    lo, hi = mask.support
    coeffs = [[[_writable(sym[r, c].coeff(i), f"coeffs[{i - lo}][{r}][{c}]")
                for c in range(p)] for r in range(p)] for i in range(lo, hi + 1)]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": mask.kind.value,
        "p": mask.p,
        "support_lo": lo,
        "coeffs": coeffs,
    }
    if mask.kind is Kind.HERMITE:
        doc["phi"] = _writable(mask.phi, "phi")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _digits(v: int) -> int:
    """The number of digits of v, counted by str() with the digit limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return len(str(abs(v)))
    finally:
        sys.set_int_max_str_digits(limit)


def _fits(v, where: str):
    """v, unless it is an integer of more digits than the digit limit for
    integer strings: then a MaskFileError naming where."""
    limit = sys.get_int_max_str_digits()
    if type(v) is int and limit and _digits(v) > limit:
        raise MaskFileError(f"{where}: {_digits(v)} digits, over the limit of {limit} digits "
                            "for integer strings")
    return v


def parse(text: str) -> Mask:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # each field names its own integer over the limit
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MaskFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise MaskFileError("arrays or objects nested too deeply") from None
    finally:
        sys.set_int_max_str_digits(limit)
    if not isinstance(doc, dict):
        raise MaskFileError("top level must be an object")

    version = _int_field(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise MaskFileError(f"schema_version: expected {SCHEMA_VERSION}, "
                            f"got {doc.get('schema_version')!r}")

    kind_name = _fits(doc.get("kind"), "kind")
    if not isinstance(kind_name, str) or kind_name not in _KINDS:
        raise MaskFileError(f"kind: expected one of {sorted(_KINDS)}, got {kind_name!r}")
    kind = _KINDS[kind_name]

    p = _int_field(doc, "p")
    if p is None or p < 1:
        raise MaskFileError(f"p: expected a positive integer, got {doc.get('p')!r}")
    if kind is Kind.SCALAR and p != 1:
        raise MaskFileError("p: scalar masks must have p = 1")
    if kind is Kind.HERMITE and p != 2:
        raise MaskFileError("p: hermite masks must have p = 2")

    lo = _int_field(doc, "support_lo")
    if lo is None:
        raise MaskFileError(
            f"support_lo: expected an integer, got {doc.get('support_lo')!r}")
    if limit and _digits(lo) >= limit:  # an end one digit longer would not print
        raise MaskFileError(f"support_lo: {_digits(lo)} digits, at the limit of {limit} "
                            "digits for integer strings")

    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or not coeffs:
        raise MaskFileError("coeffs: expected a nonempty list of p x p arrays")
    for idx, mat in enumerate(coeffs):
        if not (isinstance(mat, list) and len(mat) == p
                and all(isinstance(row, list) and len(row) == p for row in mat)):
            raise MaskFileError(f"coeffs[{idx}]: expected a {p}x{p} array")
    vals = [[[_str_to_rat(x, f"coeffs[{idx}][{r}][{c}]") for c, x in enumerate(row)]
             for r, row in enumerate(mat)] for idx, mat in enumerate(coeffs)]
    sym = SymbolMatrix([[LaurentPoly.from_coeffs(lo, [v[r][c] for v in vals])
                         for c in range(p)] for r in range(p)])
    if sym.is_zero():
        raise MaskFileError("coeffs: expected at least one nonzero coefficient")

    if kind is not Kind.HERMITE and "phi" in doc:
        raise MaskFileError("phi: only hermite masks carry phi")
    if kind is Kind.SCALAR:
        return scalar_mask(sym[0, 0])
    if kind is Kind.VECTOR:
        if p > _MAX_P:
            raise MaskFileError(f"p: {p} is over the mask-file limit of {_MAX_P}")
        return vector_mask(sym)

    if "phi" not in doc:
        raise MaskFileError("phi: required for hermite masks")
    phi = _str_to_rat(doc["phi"], "phi")
    mask = hermite_mask(sym)
    if phi != mask.phi:
        raise MaskFileError(
            f"phi: stored value {phi} disagrees with the symbol "
            f"(linear reproduction gives {mask.phi})")
    return mask


def poly_str(f: LaurentPoly) -> str:
    """str(f), one Fraction per term."""
    if not f.coeffs:
        return "0"
    parts = []
    for e, c in sorted(f.coeffs.items()):
        if e == 0:
            term = str(c)
        else:
            zpow = "z" if e == 1 else f"z^{e}"
            if c == 1:
                term = zpow
            elif c == -1:
                term = f"-{zpow}"
            else:
                term = f"{c}*{zpow}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out
