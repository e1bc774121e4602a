"""Mask file format: canonical JSON with rationals as reduced p/q strings.

Floats never appear, so files round-trip without any loss and canonical
serialization is byte-stable: keys sorted, fixed indentation, rationals
reduced with positive denominator, support trimmed to the true window.
Parsing is strict: a rational is an integer or p/q in lowest terms with
q > 0 and at most 1000 characters, integer fields reject JSON booleans,
a mask has at least one nonzero coefficient, and p is at most 5, because
exact elimination over long entries slows down fast as p grows.

Schema (version 1):
    {
      "coeffs": [ [[<rat>, ...], ...], ... ],   # one p x p array per index
      "kind": "scalar" | "vector" | "hermite",
      "p": <int>,
      "phi": <rat>,                              # hermite only
      "schema_version": 1,
      "support_lo": <int>
    }
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .errors import MaskFileError, SubsmoothError
from .laurent import LaurentPoly, SymbolMatrix
from .masks import Kind, Mask, hermite_mask, scalar_mask, vector_mask

SCHEMA_VERSION = 1

_KINDS = {"scalar": Kind.SCALAR, "vector": Kind.VECTOR, "hermite": Kind.HERMITE}

# Rationals in a mask file: "-?digits" or "-?digits/digits", ASCII only.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_MAX_RATIONAL_CHARS = 1000
# Largest p.  For a file of 1000-character entries whose eigenspace needs
# all three eliminations, smooth stops after 0.2-0.3 s at p = 5, 0.6-1.0 s at p = 6.
_MAX_P = 5


def _writable(x: Fraction, where: str) -> str:
    """str(x), refused by name when parse would refuse its length;
    a value of over 4 * _MAX_RATIONAL_CHARS bits is refused before str()."""
    if (max(abs(x.numerator), x.denominator).bit_length() <= 4 * _MAX_RATIONAL_CHARS
            and len(s := str(x)) <= _MAX_RATIONAL_CHARS):
        return s
    raise SubsmoothError(f"{where}: rational longer than {_MAX_RATIONAL_CHARS} "
                         "characters, which a mask file cannot hold")


def _str_to_rat(s, where: str) -> Fraction:
    """Parse an integer or p/q in lowest terms with q > 0, at most
    _MAX_RATIONAL_CHARS characters; reject everything else."""
    if not isinstance(s, str):
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
    """The value of an integer field; JSON true/false are not integers."""
    v = doc.get(key)
    return v if isinstance(v, int) and not isinstance(v, bool) else None


def serialize(mask: Mask) -> str:
    """Canonical text form; parse(serialize(m)) == m, byte-stable.  A
    rational that parse would refuse for its length, a p over _MAX_P or the
    zero mask is a SubsmoothError."""
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


def parse(text: str) -> Mask:
    """Parse a mask file; raises MaskFileError with field diagnostics."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MaskFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # e.g. an integer literal over the digit limit
        raise MaskFileError(str(exc)) from None
    except RecursionError:
        raise MaskFileError("arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise MaskFileError("top level must be an object")

    version = _int_field(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise MaskFileError(f"schema_version: expected {SCHEMA_VERSION}, "
                            f"got {doc.get('schema_version')!r}")

    kind_name = doc.get("kind")
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

    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or not coeffs:
        raise MaskFileError("coeffs: expected a nonempty list of p x p arrays")
    for idx, mat in enumerate(coeffs):
        if not (isinstance(mat, list) and len(mat) == p
                and all(isinstance(row, list) and len(row) == p for row in mat)):
            raise MaskFileError(f"coeffs[{idx}]: expected a {p}x{p} array")
    # the shapes are checked first, so a huge p costs no more than the file
    vals = [[[_str_to_rat(x, f"coeffs[{idx}][{r}][{c}]") for c, x in enumerate(row)]
             for r, row in enumerate(mat)] for idx, mat in enumerate(coeffs)]
    sym = SymbolMatrix([[LaurentPoly.from_coeffs(lo, [v[r][c] for v in vals])
                         for c in range(p)] for r in range(p)])
    if sym.is_zero():
        raise MaskFileError("coeffs: expected at least one nonzero coefficient")

    if kind is Kind.SCALAR:
        return scalar_mask(sym[0, 0])
    if kind is Kind.VECTOR:
        if "phi" in doc:
            raise MaskFileError("phi: only hermite masks carry phi")
        if p > _MAX_P:  # checked last, so other faults keep their messages
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


def load(path: str) -> Mask:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
