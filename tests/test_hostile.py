"""The hostile-input harness of tests/hostile.py: its rules, its deadline,
and the documents whose refusals name what the digit limit refuses.
``python -m tests.hostile`` runs every document."""

from tests import hostile


def test_rules_name_each_fault():
    def call(code, stderr, stdout=""):
        return hostile.Call("x.mask", ("show", "x.mask"), code, 0.0, 0.0, stdout, stderr)

    assert call(0, "").faults() == [] and call(2, "").faults() == []
    assert call(1, "note: a\nerror: b\n").faults() == []
    assert call(1, "error: a\nerror: b\n").faults() == ["2 error: lines"]
    assert call(1, "internal error, please report: x\n").faults() == ["0 error: lines"]
    assert call(-9, "").faults() == ["exit -9"]
    assert call(0, "", "Traceback (most recent call last):").faults() == ["Traceback"]
    assert hostile.Call("x.mask", ("show", "x.mask"), -9, 0.0, 0.0, "", "", True).faults() == [
        f"killed after {hostile.WALL_SECONDS} s", "exit -9"]
    assert call(1, "error: Exceeds the limit (4300 digits) for integer string conversion; use "
                   "sys.set_int_max_str_digits() to increase the limit\n").faults() == [
        "the interpreter's digit-limit text"]


def test_a_call_past_the_deadline_is_killed(monkeypatch, tmp_path):
    monkeypatch.setattr(hostile, "WALL_SECONDS", 0)
    call = hostile.run_call(str(tmp_path), "x.mask", ("show",))
    assert call.timed_out and call.faults() == ["killed after 0 s", "exit -9"]


def test_digit_limit_documents_are_refused_by_name():
    """A support_lo of the limit's digits, of either sign, or one digit past
    it is refused in every command by its field; one digit short of the limit
    it parses, render names the index of t beyond the float range by its
    digit count, and smooth refuses to write a support end at the limit."""
    calls = hostile.run(["support-below-limit.mask", "support-at-limit.mask",
                         "support-at-limit-negative.mask", "support-past-limit.mask"])
    assert [c.faults() for c in calls] == [[]] * 16
    refused = {c.document: {d.stderr for d in calls if d.document == c.document}
               for c in calls if c.document != "support-below-limit.mask"}
    at = "error: support_lo: 4300 digits, at the limit of 4300 digits for integer strings\n"
    assert refused == {
        "support-at-limit.mask": {at}, "support-at-limit-negative.mask": {at},
        "support-past-limit.mask": {"error: support_lo: 4301 digits, over the limit of 4300 "
                                    "digits for integer strings\n"}}
    below = {c.argv[0]: c for c in calls if c.document == "support-below-limit.mask"}
    assert below["show"].code == below["certify"].code == 0
    assert (below["render"].code, below["render"].stderr) == (
        1, "error: t at an index of 4302 digits is beyond the float range; render it with "
           "--exact\n")
    assert below["smooth"].code == 1 and below["smooth"].stderr.endswith(
        "\nerror: support_lo: 4300 digits, at the limit of 4300 digits for integer strings, "
        "which a mask file cannot hold\n")


def test_over_limit_integer_after_a_wide_document_is_named_in_bounded_memory():
    """One parse of a 100,000-character key over 900 nested lists of 10**6
    zeros, then an over-limit integer under a key that the schema does not
    read, costs each child tens of MB and refuses the file by its missing
    schema_version."""
    calls = hostile.run(["long-key-wide-list.mask"])
    assert [(c.faults(), c.stderr) for c in calls] == [
        ([], "error: schema_version: expected 1, got None\n")] * 4
    assert max(c.rss_mb for c in calls) < 200
