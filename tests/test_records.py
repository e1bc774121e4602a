"""The immutable result records: Mask, Eigenstructure, FinSeq (LimitSample),
Certificate, Refusal, SpectralReport and TaylorReport.  Equality and hash go
by the fields, no attribute can be assigned, the defaults, Mask's argument
checks, the per-instance caches and the printed forms of certificates and
refusals."""

from fractions import Fraction

import pytest

import subsmooth.linalg as linalg
import subsmooth.masks as masks_module
from subsmooth import (Certificate, Eigenstructure, FinSeq, Kind, LaurentPoly,
                       LimitSample, Mask, Refusal, SpectralReport, SymbolMatrix,
                       TaylorReport, canonical_transform, catalog,
                       certify_hermite, certify_vector, check_spectral,
                       check_taylor, common_one_eigenspace, render,
                       taylor_scheme)

HALF = Fraction(1, 2)


def hat():
    return SymbolMatrix(((LaurentPoly({-1: HALF, 0: 1, 1: HALF}),),))


def pair_symbol():
    return catalog.get("merrien").symbol


def records():
    """One instance of each record, built twice from equal fields, and one
    that differs in a field."""
    merrien = catalog.get("merrien")
    es = canonical_transform(catalog.get("double-knot"))
    return [
        (Mask(Kind.SCALAR, hat()), Mask(Kind.SCALAR, hat()),
         Mask(Kind.VECTOR, hat())),
        (Mask(Kind.HERMITE, pair_symbol()), Mask(Kind.HERMITE, pair_symbol()),
         Mask(Kind.HERMITE, catalog.get("derham").symbol)),
        (es, Eigenstructure(es.k, es.basis, es.r, es.r_inv),
         Eigenstructure(es.k + 1, es.basis, es.r, es.r_inv)),
        (FinSeq.delta(2), FinSeq.make(2, 0, [[1, 0]]), FinSeq.delta(2, 2)),
        (FinSeq.delta(2), FinSeq(FinSeq.delta(2).comps, 0), FinSeq(FinSeq.delta(2).comps, 3)),
        (certify_vector(catalog.get("bspline3"), 1), certify_vector(catalog.get("bspline3"), 1),
         certify_vector(catalog.get("bspline3"), 0)),
        (certify_hermite(merrien, 2, 3), certify_hermite(merrien, 2, 3),
         certify_hermite(merrien, 2, 2)),
        (check_spectral(merrien), check_spectral(merrien),
         check_spectral(catalog.get("double-knot"))),
        (check_taylor(taylor_scheme(merrien)), check_taylor(taylor_scheme(merrien)),
         check_taylor(catalog.get("double-knot"))),
    ]


def test_the_records_cover_every_type():
    assert {type(a) for a, _, _ in records()} == {
        Mask, Eigenstructure, FinSeq, Certificate, Refusal, SpectralReport, TaylorReport}
    assert LimitSample is FinSeq


@pytest.mark.parametrize("a,b,other", records())
def test_equality_and_hash_go_by_the_fields(a, b, other):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("a,b,other", records())
def test_no_attribute_can_be_assigned(a, b, other):
    name = type(a).__name__
    fields = {"Mask": "kind", "Eigenstructure": "k", "FinSeq": "comps",
              "Certificate": "L", "Refusal": "reason", "SpectralReport": "holds",
              "TaylorReport": "in_tilde"}
    with pytest.raises(AttributeError):
        setattr(a, fields[name], None)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_defaults():
    assert Mask(Kind.SCALAR, hat()).phi is None
    assert Mask(Kind.VECTOR, pair_symbol()).phi is None
    assert FinSeq(FinSeq.delta(1).comps).n == 0
    assert Certificate(2, HALF, (1,), (0, 1)).ell is None
    assert Certificate(2, HALF, (1,), (0, 1)).phi is None
    assert Refusal("contractivity", "no power").norms == ()


def test_keyword_construction_matches_positional():
    assert Certificate(L=2, norm_value=HALF, ks=(1,), support=(0, 1), phi=HALF) == \
        Certificate(2, HALF, (1,), (0, 1), None, HALF)
    assert Refusal(stage="s", reason="r", norms=(1,)) == Refusal("s", "r", (1,))
    assert Mask(kind=Kind.HERMITE, symbol=pair_symbol()) == \
        Mask(Kind.HERMITE, pair_symbol())


@pytest.mark.parametrize("kind,symbol,message", [
    (Kind.SCALAR, pair_symbol(), "scalar masks store a 1x1 symbol"),
    (Kind.HERMITE, hat(), "Hermite masks refine value/derivative pairs (p = 2)"),
])
def test_mask_argument_errors(kind, symbol, message):
    with pytest.raises(ValueError) as err:
        Mask(kind, symbol)
    assert str(err.value) == message


def test_mask_eigenspace_is_computed_once_per_instance(monkeypatch):
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda a: calls.append(a) or eliminate(a))
    mask = Mask(Kind.HERMITE, pair_symbol())
    first = common_one_eigenspace(mask)
    assert common_one_eigenspace(mask) == first
    assert common_one_eigenspace(mask) is not first  # a fresh list each call
    assert len(calls) == 1
    common_one_eigenspace(Mask(Kind.HERMITE, pair_symbol()))
    assert len(calls) == 2


def test_mask_phi_is_read_off_the_symbol_once_per_instance(monkeypatch):
    calls = []
    derive_phi = masks_module.derive_phi
    monkeypatch.setattr(masks_module, "derive_phi",
                        lambda s: calls.append(s) or derive_phi(s))
    mask = Mask(Kind.HERMITE, catalog.get("derham").symbol)
    assert Mask._fields == ("kind", "symbol")
    assert mask.phi == Fraction(-1, 2)
    assert mask.phi == Fraction(-1, 2)
    assert len(calls) == 1
    with pytest.raises(AttributeError):
        mask.phi = 0
    assert mask.phi == Fraction(-1, 2)


def test_sequence_values_are_computed_once_per_instance(monkeypatch):
    calls = []
    at = FinSeq.at
    monkeypatch.setattr(FinSeq, "at", lambda self, i: calls.append(i) or at(self, i))
    seq = render(catalog.get("bspline1"), 2)
    values = seq.values
    assert len(calls) == len(values) == 7
    assert seq.values is values
    assert len(calls) == 7
    assert FinSeq(seq.comps, seq.n).values == values
    assert len(calls) == 14


def test_certificate_and_refusal_print_as_before():
    assert str(Certificate(3, Fraction(3, 4), (1,), (-1, 2))) == (
        "C0 certificate: |(1/2 S)^3| = 3/4 < 1\n"
        "  - canonical transform with k=1\n"
        "  - derived scheme support (-1, 2)\n"
        "  - contractive at L=3 with norm 3/4")
    assert str(Certificate(1, HALF, (2, 1, 1), (0, 1), ell=2)) == (
        "chain certificate (ell=2): |(1/2 S)^1| = 1/2 < 1\n"
        "  - descent 1: derived scheme with k=2\n"
        "  - descent 2: derived scheme with k=1\n"
        "  - canonical transform with k=1\n"
        "  - derived scheme support (0, 1)\n"
        "  - contractive at L=1 with norm 1/2")
    assert str(Certificate(2, HALF, (1,), (0, 1), ell=1, phi=Fraction(0))) == (
        "chain certificate (ell=1): |(1/2 S)^2| = 1/2 < 1\n"
        "  - spectral condition holds with phi=0\n"
        "  - taylor scheme eigenspace is span{e2}\n"
        "  - canonical transform with k=1\n"
        "  - derived scheme support (0, 1)\n"
        "  - contractive at L=2 with norm 1/2")
    assert str(Refusal("contractivity", "no power up to 2 is contractive",
                       (Fraction(1), Fraction(3, 2)))) == (
        "inconclusive at stage 'contractivity': no power up to 2 is contractive\n"
        "  norms per power: 1, 3/2")
    assert str(Refusal("spectral condition", "violated conditions [1]")) == (
        "inconclusive at stage 'spectral condition': violated conditions [1]")


def test_reprs_name_the_fields():
    assert repr(Refusal("s", "r")) == "Refusal(stage='s', reason='r', norms=())"
    assert repr(Certificate(1, HALF, (1,), (0, 1))) == (
        "Certificate(L=1, norm_value=Fraction(1, 2), ks=(1,), support=(0, 1), "
        "ell=None, phi=None)")
    assert repr(SpectralReport(True, ())) == "SpectralReport(holds=True, violated=())"
    assert repr(TaylorReport(True, False)) == (
        "TaylorReport(holds_taylor=True, in_tilde=False)")
