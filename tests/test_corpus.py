"""The differential corpus of tests/corpus.py: its digest file lists every
call, a fixed sample reproduces its recorded digests, and a changed output
is named by its call.  ``python -m tests.corpus --check`` runs every call."""

from subsmooth import laurent

from tests import corpus


def test_digest_file_lists_every_call_once():
    assert list(corpus.recorded()) == corpus.calls()


def test_sample_reproduces_recorded_digests():
    assert set(corpus.SAMPLE) <= set(corpus.calls())
    assert corpus.differences(corpus.run(corpus.SAMPLE), corpus.recorded()) == []


def test_changed_refusal_price_names_its_calls(monkeypatch):
    """Raising the work budget by one word product changes the text of every
    refusal that quotes it, and only those calls differ."""
    monkeypatch.setattr(laurent, "MAX_WORK", laurent.MAX_WORK + 1)
    priced = ["smooth long-den-4.mask --out out.txt", "certify long-den-4.mask",
              "render wide.mask --depth 8"]
    assert corpus.differences(corpus.run(corpus.SAMPLE), corpus.recorded()) == priced
