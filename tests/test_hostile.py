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
    assert call(1, "error: x\n").notes() == []
    assert call(1, "error: Exceeds the limit (4300 digits) for integer string conversion; use "
                   "sys.set_int_max_str_digits() to increase the limit\n").notes() == [
        "the interpreter's digit-limit text"]


def test_a_call_past_the_deadline_is_killed(monkeypatch, tmp_path):
    monkeypatch.setattr(hostile, "WALL_SECONDS", 0)
    call = hostile.run_call(str(tmp_path), "x.mask", ("show",))
    assert call.timed_out and call.faults() == ["killed after 0 s", "exit -9"]


def test_digit_limit_documents_are_refused_by_name():
    """A support_lo one digit past the limit is refused in every command by
    its field; at the limit it parses, and render names the index of t beyond
    the float range by its digit count."""
    calls = hostile.run(["support-at-limit.mask", "support-past-limit.mask"])
    assert [c.faults() for c in calls] == [[]] * 8
    past = {c.argv[0]: c.stderr for c in calls if c.document == "support-past-limit.mask"}
    assert set(past.values()) == {"error: support_lo: 4301 digits, over the limit of 4300 "
                                  "digits for integer strings\n"}
    assert [c.notes() for c in calls if c.document == "support-past-limit.mask"] == [[]] * 4
    render, = (c for c in calls if c.document == "support-at-limit.mask" and c.argv[0] == "render")
    assert (render.code, render.stderr) == (1, "error: t at an index of 4303 digits is beyond "
                                               "the float range; render it with --exact\n")


def test_over_limit_integer_after_a_wide_document_is_named_in_bounded_memory():
    """The refusal formats the path of the literal it names and no other: a
    100,000-character key over 900 nested lists of 10**6 zeros costs each
    child tens of MB, where a path per value would pass the 1 GiB limit."""
    calls = hostile.run(["long-key-wide-list.mask"])
    assert [(c.faults(), c.stderr) for c in calls] == [
        ([], "error: z: 4301 digits, over the limit of 4300 digits for integer strings\n")] * 4
    assert max(c.rss_mb for c in calls) < 200
