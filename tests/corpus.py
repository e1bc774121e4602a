"""A differential corpus: fixed command lines, each with a recorded sha256.

This is the one record of pinned CLI outputs.  Each call runs
``subsmooth.cli.main`` in this process, in a fresh temporary directory that
holds the input mask files, under the interpreter's default digit limit for
integer strings (4300).  Its digest is the sha256 of its exit code, stdout,
stderr and the file it wrote (``OUT``), if any.  ``tests/corpus.sha256``
holds one line per call, ``<digest>  <command line>``.

    PYTHONPATH=src python -m tests.corpus --check    # name every call that differs
    PYTHONPATH=src python -m tests.corpus --update   # rewrite the digest file

The calls, family by family:

- every catalog mask and the seeded ``tests.maskgen`` masks under ``show``,
  ``certify`` (default and ``--ell 2 --lmax 6``), ``smooth --rounds 3`` and
  ``render --depth 6`` (float and ``--exact``);
- the derivable and smoothable masks with their first k columns made
  eigenvectors (``PAST_EIGENSPACE``) under ``certify`` and ``smooth``, which
  get past the eigenspace there;
- the catalog under ``certify`` at the ``--ell`` (``ELLS``) and ``--lmax``
  (``LMAXES``) values that change its output, and under ``smooth --rounds``
  1 and 12 with the file it writes;
- the long-denominator files for p = 1..5 at seed 0, and for p = 2..4 at
  seed 1 under ``show`` and ``certify``;
- the paper's constructions (``PINNED``): merrien smoothed 64 times,
  double-knot and derham 12 times, their certificates and ``show``, and
  their refusals;
- the heavy tier (``HEAVY``): the slowest refusals and renders;
- the refusals of values that floats, integer strings or an output path
  cannot hold, of a path that is a directory and of a render step over the
  work budget;
- a ``support_lo`` of 4299 digits (``show``, ``certify``, ``smooth`` and
  ``render``), 4300 digits of either sign and 4301 digits (``show``).

``SAMPLE`` is the part that the tier-1 tests run.
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
# p -> seeds; p = 4 and 5: smooth and certify refuse at their prices.  Seed 1
# changes the denominators that show and certify print; at p = 1 every entry
# is in column p - 1, so the seed changes nothing, and smooth's refusal of a
# seed-1 file is the one of its seed-0 file.
LONG_DEN = {1: (0,), 2: (0, 1), 3: (0, 1), 4: (0, 1), 5: (0,)}
GENERATORS = {
    "derivable": lambda rng: maskgen.rand_derivable_mask(rng, 2, 1),
    "smoothable": lambda rng: maskgen.rand_smoothable_mask(rng, 3, 2),
    "taylor": maskgen.rand_taylor_mask,
    "spectral": maskgen.rand_smoothing_ready_spectral,
    "convergent": lambda rng: maskgen.rand_convergent_style_mask(rng, 3, 1),
}
# certify and smooth of the generators above stop at the empty eigenspace;
# these masks get past it (show and render read them as they read the rest)
PAST_EIGENSPACE = {
    "derivable-eig": lambda rng: maskgen.with_eigenspace(maskgen.rand_derivable_mask(rng, 2, 1), 1),
    "smoothable-eig": lambda rng: maskgen.with_eigenspace(maskgen.rand_smoothable_mask(rng, 3, 2),
                                                          2),
}
# catalog name -> the --ell values at which its certify prints what no other
# of its certify calls prints (bspline0 refuses at every ell as at
# --ell 2 --lmax 6; merrien and derham at --ell 1 certify as by default);
# bspline1 --ell 3 is its exit-2 refusal, as at --ell 2 --lmax 6
ELLS = {"bspline1": (1, 3), "bspline3": (1, 3, 4), "bspline5": (1, 3, 4), "double-knot": (1, 3),
        "merrien": (3,), "derham": (3, 4), "merrien-smoothed": (3, 4),
        "derham-smoothed": (3, 4)}
# ... and the --lmax values: at lmax 1 bspline0, merrien and derham are
# refused before their contractive power; bspline0, refused at every lmax,
# lists its norms up to MAX_LMAX; the other masks certify at lmax 1 as by
# default, and their lmax-16 refusals are in HEAVY
LMAXES = {"bspline0": (1, 16), "merrien": (1,), "derham": (1,)}
# file name -> (catalog name, rounds): the bytes that smooth --rounds writes
CHAINS = {"m64.mask": ("merrien", 64), "dk12.mask": ("double-knot", 12), "d12.mask": ("derham", 12)}

# The paper's constructions.  64 Hermite rounds write m64.mask byte for byte,
# and ten descents over its numerators of about 700 bits print the recorded
# certificate.  Three descents of the 12-round vector chain, each one
# intertwine in a canonical basis, print theirs, and show reads the 12-round
# Hermite chain back into its symbols, values and spectral report (the
# 12-round smooth calls of the catalog family write dk12 and d12).  Then
# merrien's refusal at --ell 2 with its norm list; 65,535 float rows whose t
# needs 17 digits, some in exponent form (3.0517578125e-05); exact rows with
# integer cells (0,1,0), the last column included; and 64 de Rham rounds,
# refused in round 44, the first whose output a mask file cannot hold: exit 1,
# 44 round lines and "rational longer than 1000 characters".
PINNED = (f"smooth catalog:merrien --rounds 64 --out {OUT}", "certify m64.mask --ell 10",
          "certify dk12.mask --ell 3", "show d12.mask", "certify catalog:merrien --ell 2 --lmax 10",
          f"render catalog:bspline1 --depth 15 --out {OUT}",
          f"render catalog:merrien --depth 12 --exact --out {OUT}",
          f"smooth catalog:derham --rounds 64 --out {OUT}")

# The heavy tier, 0.2-0.8 s each: the four --lmax 16 refusals, which spend
# their time in iterated-symbol products and norms; merrien smoothed 64 times
# rendered and certified at --ell 30 (refused at the budget); and a B-spline
# of degree 64.
HEAVY = ("certify catalog:derham --ell 3 --lmax 16", "certify catalog:merrien --ell 2 --lmax 16",
         "certify catalog:merrien-smoothed --ell 3 --lmax 16",
         "certify catalog:double-knot --ell 2 --lmax 16", "render m64.mask --depth 4",
         "certify m64.mask --ell 30", "render catalog:bspline64 --depth 10")


# file name -> a support_lo at the digit limit for integer strings (4300) and
# either side of it
SUPPORT_DIGITS = {"lo-4299-neg.mask": "-" + "9" * 4299, "lo-4300.mask": "9" * 4300,
                  "lo-4300-neg.mask": "-" + "9" * 4300, "lo-4301.mask": "1" + "0" * 4300}


def _long_den(p: int, seed: int) -> str:
    return f"long-den-{p}.mask" if seed == 0 else f"long-den-{p}-seed{seed}.mask"


def inputs() -> dict[str, str]:
    """The mask files of the corpus, by file name."""
    files = {f"{name}-{seed}.mask": maskfile.serialize(gen(random.Random(f"corpus/{name}/{seed}")))
             for name, gen in (GENERATORS | PAST_EIGENSPACE).items() for seed in SEEDS}
    files.update({_long_den(p, seed): maskgen.long_denominator_doc(p, seed)
                  for p, seeds in LONG_DEN.items() for seed in seeds})
    files.update({name: maskfile.serialize(maskgen.smoothed(*how)) for name, how in CHAINS.items()})
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
    # a support_lo of 4299, 4300 and 4301 digits, written as text: this process
    # could not print the last
    for name, lo in SUPPORT_DIGITS.items():
        files[name] = files["far.mask"].replace(str(10 ** 400), lo)
    return files


def _mask_calls(ref: str) -> list[str]:
    return [f"show {ref}", f"certify {ref}", f"certify {ref} --ell 2 --lmax 6",
            f"smooth {ref} --rounds 3 --out {OUT}", f"render {ref} --depth 6",
            f"render {ref} --depth 6 --exact"]


def calls() -> list[str]:
    """Every command line of the corpus, in a fixed order."""
    out = [c for name in CATALOG for c in _mask_calls(f"catalog:{name}")]
    out += [c for name in GENERATORS for seed in SEEDS for c in _mask_calls(f"{name}-{seed}.mask")]
    out += [c for name in PAST_EIGENSPACE for seed in SEEDS
            for c in (f"certify {name}-{seed}.mask",
                      f"smooth {name}-{seed}.mask --rounds 3 --out {OUT}")]
    out += [c for p, seeds in LONG_DEN.items() for seed in seeds
            for c in (f"show {_long_den(p, seed)}", f"certify {_long_den(p, seed)}",
                      *([f"smooth {_long_den(p, seed)} --out {OUT}"] if seed == 0 else []))]
    out += ["render long.mask --depth 2", "render long.mask --depth 6 --exact",
            "certify long.mask --lmax 16", "render far.mask --depth 2",
            "render far.mask --depth 2 --exact", "render wide.mask --depth 8",
            "render catalog:bspline1 --depth 2 --out no/such/dir/x.csv", "show ."]
    out += [f"show {name}" for name in SUPPORT_DIGITS]
    out += ["certify lo-4299-neg.mask", f"smooth lo-4299-neg.mask --rounds 2 --out {OUT}",
            "render lo-4299-neg.mask --depth 2"]
    out += [f"certify catalog:{name} --ell {ell}" for name, ells in ELLS.items() for ell in ells]
    out += [f"certify catalog:{name} --lmax {lmax}"
            for name, lmaxes in LMAXES.items() for lmax in lmaxes]
    out += [f"smooth catalog:{name} --rounds {rounds} --out {OUT}"
            for name in CATALOG for rounds in (1, 12)]
    return out + [*PINNED, *HEAVY]


SAMPLE = (*_mask_calls("catalog:merrien-smoothed"), *_mask_calls("taylor-0.mask"),
          "certify long-den-1.mask", "smooth long-den-4.mask --out out.txt",
          "certify long-den-4.mask", "render wide.mask --depth 8", "render long.mask --depth 2",
          "render long.mask --depth 6 --exact", "render far.mask --depth 2",
          "render far.mask --depth 2 --exact",
          "render catalog:bspline1 --depth 2 --out no/such/dir/x.csv", "certify dk12.mask --ell 3")


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
