"""Mask file format: canonical JSON with rationals as reduced p/q strings.

Floats never appear, so files round-trip without any loss and canonical
serialization is byte-stable: keys sorted, fixed indentation, rationals
reduced with positive denominator, support trimmed to the true window.
Parsing is strict: a rational is an integer or p/q in lowest terms with
q > 0 and at most 1000 characters, integer fields reject JSON booleans,
a mask has at least one nonzero coefficient, only hermite masks carry phi,
and p is at most 5, because exact elimination over long entries slows down
fast as p grows.  support_lo has fewer digits than the interpreter's limit
for integer strings, so that an end of the support one digit longer prints.

Cells are read and written as integers, with no Fraction per coefficient.
parse reads the text with one json.loads, which puts a _Digits, the digit
count, in place of an integer literal over that limit; the field that reads
it refuses it by name, and a key the schema does not read is ignored with
its contents.  parse checks the rationals in index, row, column order into numerators and
denominators (_ratios), formatting a cell's name coeffs[i][r][c] only to
refuse it, and puts each entry's numerators over the lcm of its
denominators: the (lo, nums, den) triple of laurent.  serialize reduces each
cell from its entry's numerators with one gcd, refuses a cell parse would
refuse by its bit length before str() sees it, and writes the text that
json.dumps(doc, sort_keys=True, indent=2) gives, from one template: its
strings hold only digits, - and /, and its keys come in a fixed order.
tests/maskfile_oracle.py keeps the Fraction and json.dumps versions.

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
from itertools import chain

from .errors import MaskFileError, SubsmoothError
from .laurent import _normalize, _padded, _symbol
from .masks import Kind, Mask, hermite_mask, scalar_mask, vector_mask
from .refine import _digits, _lowest_terms, _too_many_digits, _unprintable

SCHEMA_VERSION = 1

_KINDS = {"scalar": Kind.SCALAR, "vector": Kind.VECTOR, "hermite": Kind.HERMITE}

# Rationals in a mask file: "-?digits" or "-?digits/digits", ASCII only.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_MAX_RATIONAL_CHARS = 1000
# Numerators and denominators of at most this many bits, 1657, have at most
# (_MAX_RATIONAL_CHARS - 2) // 2 digits each (2**1657 < 10**499), so "-p/q" fits.
_SHORT_BITS = (10 ** ((_MAX_RATIONAL_CHARS - 2) // 2)).bit_length() - 1
# Largest p.  For a file of 1000-character entries whose eigenspace needs
# all three eliminations, smooth stops after 0.2-0.3 s at p = 5, 0.6-1.0 s at p = 6.
_MAX_P = 5


def _writable(n: int, d: int, where: str) -> str:
    """str(Fraction(n, d)) for n / d in lowest terms, d > 0, refused by name when
    parse would refuse its length; a value of over 4 * _MAX_RATIONAL_CHARS bits
    is refused before str()."""
    if (max(abs(n), d).bit_length() <= 4 * _MAX_RATIONAL_CHARS
            and len(s := str(n) if d == 1 else f"{n}/{d}") <= _MAX_RATIONAL_CHARS):
        return s
    raise SubsmoothError(f"{where}: rational longer than {_MAX_RATIONAL_CHARS} "
                         "characters, which a mask file cannot hold")


def _long(mask: Mask) -> bool:
    """Whether a numerator or denominator of phi or of the symbol has over
    _SHORT_BITS bits; without one, every rational of the mask's file fits."""
    n, d = (mask.phi or 0).as_integer_ratio()
    top = max(abs(n), d)  # the largest numerator or denominator, off each entry's max and min
    for row in mask.symbol.entries:
        for e in row:
            if e.nums:
                top = max(top, e.den, max(e.nums), -min(e.nums))
    return top.bit_length() > _SHORT_BITS


def check_writable(mask: Mask) -> None:
    """serialize's SubsmoothError for a rational too long for a mask file, serializing
    only when _long(mask)."""
    if _long(mask):
        serialize(mask)


def _ratios(values, name) -> tuple[list[int], list[int]]:
    """The numerators and denominators of the mask-file rationals in values, each
    an integer or p/q in lowest terms with q > 0 and at most _MAX_RATIONAL_CHARS
    characters, checked in order.  The first value that is not one is a
    MaskFileError named name(k), k its position, formatted only then."""
    nums, dens = [], []
    for s in values:
        m = (_RATIONAL.fullmatch(s) if isinstance(s, str) and len(s) <= _MAX_RATIONAL_CHARS
             else None)
        if m is not None:
            n, d = int(m[1]), int(m[2] or 1)
            if d and math.gcd(n, d) == 1:
                nums.append(n)
                dens.append(d)
                continue
        where = name(len(nums))
        if not isinstance(_fits(s, where), str):
            raise MaskFileError(f"{where}: rationals must be strings, got {s!r}")
        if len(s) > _MAX_RATIONAL_CHARS:
            raise MaskFileError(f"{where}: rational longer than "
                                f"{_MAX_RATIONAL_CHARS} characters")
        if m is None:
            raise MaskFileError(f"{where}: invalid rational {s!r} "
                                "(expected an integer or p/q)")
        if not d:
            raise MaskFileError(f"{where}: invalid rational {s!r} (zero denominator)")
        raise MaskFileError(f"{where}: rational {s!r} is not in lowest terms")
    return nums, dens


class _Digits(int):
    """The digit count of an integer literal over the digit limit, in its place."""


def _parse_int(s: str) -> int:
    """json's parse_int: int(s), or a _Digits for a literal over the digit limit
    for integer strings, so that the field that reads it can name it."""
    try:
        return int(s)
    except ValueError:  # the only fault of a JSON integer literal
        return _Digits(len(s) - s.startswith("-"))


def _fits(v, where: str):
    """v, unless it is a _Digits: then a MaskFileError naming where."""
    if type(v) is _Digits:
        raise MaskFileError(f"{where}: {_too_many_digits(v)}")
    return v


def _long_end(lo: int) -> str | None:
    """Why a mask file cannot hold support_lo = lo, or None: a support end one
    digit longer than lo must still print under the digit limit."""
    if _unprintable(10 * abs(lo)):
        return f"support_lo: {_too_many_digits(_digits(abs(lo)))}"
    return None


def _int_field(doc: dict, key: str):
    """The value of an integer field; JSON true/false are not integers."""
    v = _fits(doc.get(key), key)
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
    if why := _long_end(lo):
        raise SubsmoothError(f"{why}, which a mask file cannot hold")
    cells = []  # per entry, row by row: the reduced numerators and denominators at lo..hi
    for row in sym.entries:
        for e in row:
            cells += _lowest_terms(_padded(e, lo, hi), e.den)
    if _long(mask):  # refuse the first cell, index by index, that parse would refuse
        for i, cell in enumerate(zip(*cells)):
            for k in range(p * p):
                _writable(cell[2 * k], cell[2 * k + 1], f"coeffs[{i}][{k // p}][{k % p}]")
    # the layout of json.dumps(doc, sort_keys=True, indent=2): each cell "p/q", then
    # "/1" dropped as str() drops it; json.dumps writes -, / and digits as they are
    row = '      [\n' + ',\n'.join(['        "%d/%d"'] * p) + '\n      ]'
    mat = '    [\n' + ',\n'.join([row] * p) + '\n    ]'
    body = ',\n'.join([mat] * (hi - lo + 1)) % tuple(chain.from_iterable(zip(*cells)))
    phi = (f'  "phi": "{_writable(*mask.phi.as_integer_ratio(), "phi")}",\n'
           if mask.kind is Kind.HERMITE else "")
    return ('{\n  "coeffs": [\n' + body.replace('/1"', '"') + '\n  ],\n'
            f'  "kind": "{mask.kind.value}",\n  "p": {p},\n{phi}'
            f'  "schema_version": {SCHEMA_VERSION},\n  "support_lo": {lo}\n}}\n')


def parse(text: str) -> Mask:
    """Parse a mask file; raises MaskFileError with field diagnostics."""
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise MaskFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise MaskFileError("arrays or objects nested too deeply") from None
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
    if why := _long_end(lo):
        raise MaskFileError(why)

    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or not coeffs:
        raise MaskFileError("coeffs: expected a nonempty list of p x p arrays")
    for idx, mat in enumerate(coeffs):
        if not (isinstance(mat, list) and len(mat) == p
                and all(isinstance(row, list) and len(row) == p for row in mat)):
            raise MaskFileError(f"coeffs[{idx}]: expected a {p}x{p} array")
    # the shapes are checked first, so a huge p costs no more than the file
    pp = p * p
    nums, dens = _ratios(chain.from_iterable(chain.from_iterable(coeffs)),
                         lambda k: f"coeffs[{k // pp}][{k // p % p}][{k % p}]")
    entries = []  # entry k of the p x p, row by row, on the lcm of its denominators
    for k in range(pp):
        ds = dens[k::pp]
        den = math.lcm(*ds)
        entries.append(_normalize(lo, [x if d == den else x * (den // d)
                                       for x, d in zip(nums[k::pp], ds)], den))
    sym = _symbol(tuple(tuple(entries[r:r + p]) for r in range(0, pp, p)))
    if sym.is_zero():
        raise MaskFileError("coeffs: expected at least one nonzero coefficient")

    if kind is not Kind.HERMITE and "phi" in doc:
        raise MaskFileError("phi: only hermite masks carry phi")
    if kind is Kind.SCALAR:
        return scalar_mask(sym[0, 0])
    if kind is Kind.VECTOR:
        if p > _MAX_P:  # checked last, so other faults keep their messages
            raise MaskFileError(f"p: {p} is over the mask-file limit of {_MAX_P}")
        return vector_mask(sym)

    if "phi" not in doc:
        raise MaskFileError("phi: required for hermite masks")
    (n,), (d,) = _ratios((doc["phi"],), lambda k: "phi")
    mask = hermite_mask(sym)
    if (n, d) != mask.phi.as_integer_ratio():
        raise MaskFileError(
            f"phi: stored value {Fraction(n, d)} disagrees with the symbol "
            f"(linear reproduction gives {mask.phi})")
    return mask


def load(path: str) -> Mask:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
