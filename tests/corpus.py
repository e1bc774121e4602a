"""A differential corpus: fixed command lines, each with a recorded sha256.

Each call runs ``subsmooth.cli.main`` in this process, in a fresh temporary
directory that holds the input mask files, under the interpreter's default
digit limit for integer strings (4300).  Its digest is the sha256 of its
exit code, stdout, stderr and the file it wrote (``OUT``), if any.
``tests/corpus.sha256`` holds one line per call, ``<digest>  <command line>``.

    PYTHONPATH=src python -m tests.corpus --check    # name every call that differs
    PYTHONPATH=src python -m tests.corpus --update   # rewrite the digest file

The calls are every catalog mask and the seeded ``tests.maskgen`` masks under
``show``, ``certify`` (default and ``--ell 2 --lmax 6``), ``smooth --rounds 3``
and ``render --depth 6`` (float and ``--exact``), the long-denominator files
for p = 1..4, and the refusals of values that floats, integer strings or an
output path cannot hold and of a render step over the work budget.  ``SAMPLE`` is the part that the tier-1 tests run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from subsmooth import LaurentPoly, cli, maskfile, scalar_mask

from tests import maskgen

DIGESTS = Path(__file__).with_name("corpus.sha256")
OUT = "out.txt"

CATALOG = ("bspline0", "bspline1", "bspline3", "bspline5", "double-knot", "merrien",
           "derham", "merrien-smoothed", "derham-smoothed")
SEEDS = (0, 1, 2)
LONG_DEN = (1, 2, 3, 4)  # p = 4: smooth and certify refuse at their prices
GENERATORS = {
    "derivable": lambda rng: maskgen.rand_derivable_mask(rng, 2, 1),
    "smoothable": lambda rng: maskgen.rand_smoothable_mask(rng, 3, 2),
    "taylor": maskgen.rand_taylor_mask,
    "spectral": maskgen.rand_smoothing_ready_spectral,
    "convergent": lambda rng: maskgen.rand_convergent_style_mask(rng, 3, 1),
}


def inputs() -> dict[str, str]:
    """The mask files of the corpus, by file name."""
    files = {f"{name}-{seed}.mask": maskfile.serialize(gen(random.Random(f"corpus/{name}/{seed}")))
             for name, gen in GENERATORS.items() for seed in SEEDS}
    files.update({f"long-den-{p}.mask": maskgen.long_denominator_doc(p) for p in LONG_DEN})
    # 300 one-digit coefficients: render refuses step 7 of 8 at its price
    files["wide.mask"] = maskfile.serialize(
        scalar_mask(LaurentPoly.from_coeffs(0, [1 + i % 9 for i in range(300)])))
    # values beyond the float range and, from depth 6 on, the digit limit
    big = 10 ** 998
    files["long.mask"] = maskfile.serialize(scalar_mask(LaurentPoly({0: big, 1: 1, 2: 1 - big})))
    # t = i / 2**n beyond the float range
    files["far.mask"] = json.dumps({"schema_version": 1, "kind": "scalar", "p": 1,
                                    "support_lo": 10 ** 400,
                                    "coeffs": [[["1/2"]], [["1"]], [["1/2"]]]})
    return files


def _mask_calls(ref: str) -> list[str]:
    return [f"show {ref}", f"certify {ref}", f"certify {ref} --ell 2 --lmax 6",
            f"smooth {ref} --rounds 3 --out {OUT}", f"render {ref} --depth 6",
            f"render {ref} --depth 6 --exact"]


def calls() -> list[str]:
    """Every command line of the corpus, in a fixed order."""
    out = [c for name in CATALOG for c in _mask_calls(f"catalog:{name}")]
    out += [c for name in GENERATORS for seed in SEEDS for c in _mask_calls(f"{name}-{seed}.mask")]
    out += [c for p in LONG_DEN for c in (f"show long-den-{p}.mask", f"certify long-den-{p}.mask",
                                           f"smooth long-den-{p}.mask --out {OUT}")]
    out += ["render long.mask --depth 2", "render long.mask --depth 6 --exact",
            "certify long.mask --lmax 16", "render far.mask --depth 2",
            "render far.mask --depth 2 --exact", "render wide.mask --depth 8",
            "render catalog:bspline1 --depth 2 --out no/such/dir/x.csv"]
    return out


SAMPLE = (*_mask_calls("catalog:merrien-smoothed"), *_mask_calls("taylor-0.mask"),
          "certify long-den-1.mask", "smooth long-den-4.mask --out out.txt",
          "certify long-den-4.mask", "render wide.mask --depth 8", "render long.mask --depth 2",
          "render long.mask --depth 6 --exact", "render far.mask --depth 2",
          "render far.mask --depth 2 --exact",
          "render catalog:bspline1 --depth 2 --out no/such/dir/x.csv")


def _digest(call: str) -> str:
    """The sha256 of one call, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(call.split())
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, so that a traceback shows as a change
            code = f"raised {type(exc).__name__}"
            err.write(str(exc))
    written = None
    if os.path.exists(OUT):
        written = Path(OUT).read_text(encoding="utf-8")
        os.remove(OUT)
    blob = json.dumps([code, out.getvalue(), err.getvalue(), written])
    return hashlib.sha256(blob.encode()).hexdigest()


def run(selected) -> dict[str, str]:
    """The digest of each call in selected."""
    limit = sys.get_int_max_str_digits()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs().items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        sys.set_int_max_str_digits(4300)
        try:
            return {call: _digest(call) for call in selected}
        finally:
            sys.set_int_max_str_digits(limit)
            os.chdir(here)


def recorded() -> dict[str, str]:
    """The digest file, as call -> digest."""
    pairs = (line.split("  ", 1) for line in DIGESTS.read_text(encoding="utf-8").splitlines())
    return {call: digest for digest, call in pairs}


def differences(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """The calls of got whose digest is not the one in want."""
    return [call for call, digest in got.items() if want.get(call) != digest]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.corpus", description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="name every call whose digest differs")
    mode.add_argument("--update", action="store_true", help="rewrite the digest file")
    args = parser.parse_args(argv)
    got = run(calls())
    if args.update:
        DIGESTS.write_text("".join(f"{d}  {c}\n" for c, d in got.items()), encoding="utf-8")
        print(f"wrote {len(got)} digests to {DIGESTS.name}")
        return 0
    want = recorded()
    bad = differences(got, want) + [c for c in want if c not in got]
    for call in bad:
        print(f"differs: {call}")
    print(f"{len(bad)} of {len(want.keys() | got.keys())} calls differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
