"""Hostile mask files under resource limits.

Each document of ``documents()`` runs under ``show``, ``certify``,
``render --depth 8`` and ``smooth --rounds 2``, as ``python -m subsmooth`` in
a child process, one call at a time, under the default digit limit for
integer strings (4300), with no stdin.  ``preexec_fn`` sets ``RLIMIT_AS``
(1 GiB) and ``RLIMIT_CPU`` in each child, so the limits bind only the
children; a child still running after ``WALL_SECONDS`` (one that waits
without using its CPU) is killed.  Every call must exit 0, 1 or 2 in time; an
exit 1 prints exactly one ``error:`` line; no call prints ``Traceback`` or the
interpreter's own digit-limit text, which names no field.  The report gives
each call's exit code, peak RSS (the child's ``ru_maxrss``), time and last
stderr line.

    PYTHONPATH=src python -m tests.hostile    # exit 1 when a call breaks a rule
"""

from __future__ import annotations

import importlib.util
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from tests.long_den import long_denominator_doc

LIMIT = 4300  # digits, the interpreter's default for integer strings
MEMORY = 1 << 30  # bytes of address space per child
CPU_SECONDS = 20
WALL_SECONDS = 40
COMMANDS = (("show",), ("certify",), ("render", "--depth", "8"), ("smooth", "--rounds", "2"))


def _scalar(coeffs, support_lo="0") -> str:
    """A scalar mask file; support_lo is written as given, so that it may hold
    an integer literal that this process could not print."""
    doc = json.dumps({"schema_version": 1, "kind": "scalar", "p": 1, "support_lo": "@",
                      "coeffs": [[[c]] for c in coeffs]}, ensure_ascii=False)
    return doc.replace('"@"', support_lo)


def documents() -> dict[str, str]:
    """The hostile documents, by file name."""
    hat = ["1/2", "1", "1/2"]
    return {
        "deep-nesting.mask": '{"coeffs": ' + "[" * 100_000 + "]" * 100_000 + "}",
        "zero-terms.mask": _scalar(["0"] * 200_000 + hat),
        # support_lo of LIMIT - 1, LIMIT and LIMIT + 1 digits: only the first
        # parses, and render names the index of t beyond the float range by its
        # digit count
        "support-below-limit.mask": _scalar(hat, "-" + "9" * (LIMIT - 1)),
        "support-at-limit.mask": _scalar(hat, "9" * LIMIT),
        "support-at-limit-negative.mask": _scalar(hat, "-" + "9" * LIMIT),
        "support-past-limit.mask": _scalar(hat, "1" + "0" * LIMIT),
        "rational-1000.mask": _scalar(["1/2", "1/1" + "0" * 997, "1/2"]),
        "rational-1001.mask": _scalar(["1/2", "1/1" + "0" * 998, "1/2"]),
        "long-den-5.mask": long_denominator_doc(5),
        "duplicate-keys.mask": _scalar(hat)[:-1] + ', "coeffs": [[["1"]]], "kind": "vector"}',
        "byte-order-mark.mask": "\ufeff" + _scalar(hat),
        "non-ascii-digits.mask": _scalar(["\u0661/\u0662", "1", "1/2"]),  # Arabic-Indic 1/2
        # one over-limit integer under a key the schema does not read, after a
        # 100,000-character key over 900 nested lists of 10**6 zeros: parsed
        # once, then refused for its missing schema_version
        "long-key-wide-list.mask": ('{"' + "k" * 100_000 + '": ' + "[" * 900
                                    + "0," * 999_999 + "0" + "]" * 900 + ', "z": 1'
                                    + "0" * LIMIT + "}"),
    }


class Call(NamedTuple):
    document: str
    argv: tuple[str, ...]
    code: int
    rss_mb: float
    seconds: float
    stdout: str
    stderr: str
    timed_out: bool = False

    def faults(self) -> list[str]:
        """The rules this call breaks."""
        out = [f"killed after {WALL_SECONDS} s"] if self.timed_out else []
        if self.code not in (0, 1, 2):
            out.append(f"exit {self.code}")
        errors = [line for line in self.stderr.splitlines() if line.startswith("error:")]
        if self.code == 1 and len(errors) != 1:
            out.append(f"{len(errors)} error: lines")
        if "Traceback" in self.stdout + self.stderr:
            out.append("Traceback")
        if "set_int_max_str_digits" in self.stderr:
            out.append("the interpreter's digit-limit text")
        return out


def _limits() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_call(directory: str, document: str, command: tuple[str, ...]) -> Call:
    """One command on one document file of directory, in a child process."""
    # located, not imported: a forked child starts with this process's pages
    src = os.path.dirname(importlib.util.find_spec("subsmooth").submodule_search_locations[0])
    env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS=str(LIMIT))
    argv = (command[0], document, *command[1:])
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "subsmooth", *argv], cwd=directory,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env,
                                preexec_fn=_limits)
        timed_out = False
        while True:  # wait4 gives the rusage of this child alone
            pid, status, usage = os.wait4(proc.pid, 0 if timed_out else os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > WALL_SECONDS:
                proc.kill()
                timed_out = True
            else:
                time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return Call(document, argv, proc.returncode, usage.ru_maxrss / 1024, seconds,
                    out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"),
                    timed_out)


def run(names=None) -> list[Call]:
    """Every command on each document of names (default: all), one at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        written = []  # only the names: a forked child starts with this process's pages
        for name, text in documents().items():
            if names is None or name in names:
                Path(tmp, name).write_text(text, encoding="utf-8")
                written.append(name)
        return [run_call(tmp, name, command) for name in written for command in COMMANDS]


def main() -> int:
    calls = run()
    for c in calls:
        last = (c.stderr.splitlines() or [""])[-1]
        print(f"{' '.join(c.argv[:1] + c.argv[2:]):<18} {c.document:<31} exit {c.code}  "
              f"{c.rss_mb:6.1f} MB {c.seconds:6.2f} s  "
              f"{'; '.join(c.faults()) or 'ok'}  {last[:90]}")
    bad = [c for c in calls if c.faults()]
    print(f"{len(bad)} of {len(calls)} calls break a rule; peak RSS "
          f"{max(c.rss_mb for c in calls):.1f} MB, slowest {max(c.seconds for c in calls):.2f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
