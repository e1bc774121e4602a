"""Output checks for benchmark jobs.

The checks compare what a user gets, not how it is printed:

* CSVs and mask files byte for byte, against digests recorded at the seed
  commit (golden.json; the depth-6 renders are the committed
  demos/out/*.csv) or, for one smoothing round, against the independent
  catalog `*-smoothed` references serialized;
* `certify` by exit code, L, exact norm and per-power norm list, parsed out
  of the text, against golden.json for the catalog masks and against
  golden_bitgrowth.json (keyed by the sha256 of the mask file) for the
  generated masks of the recorded seeds, and with the norms for L <= 6
  recomputed by repeated refinement of unit impulses;
* `show` by the kind and support it reports for the file it read.

stderr is never checked.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction

from subsmooth import (Kind, canonical_transform, catalog, conjugate, derived,
                       maskfile, taylor_scheme)
from subsmooth.refine import DEFAULT_LMAX

from workloads import Job

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
BITGROWTH_GOLDEN_PATH = os.path.join(os.path.dirname(GOLDEN_PATH), "golden_bitgrowth.json")
ORACLE_LMAX = 6

# Only the figures are parsed, so the surrounding wording may change.
_GRANT_RE = re.compile(r"\|\(1/2 S\)\^(\d+)\|\s*=\s*(-?\d+(?:/\d+)?)\s*<\s*1")
_NORMS_RE = re.compile(r"norms per power:\s*(.*)")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def result_digest(result: dict) -> str:
    """sha256 of a parsed certify result, as golden_bitgrowth.json stores it."""
    return sha256(json.dumps(result, sort_keys=True).encode())


def parse_certify(rc: int, text: str) -> dict | None:
    """Exit code, L, norm and norm list of one certify output, or None if
    the output does not say what its exit code claims."""
    if rc == 0:
        m = _GRANT_RE.search(text)
        if m is None:
            return None
        return {"rc": 0, "L": int(m.group(1)), "norm": m.group(2), "norms": None}
    if rc == 2:
        m = _NORMS_RE.search(text)
        norms = [s.strip() for s in m.group(1).split(",")] if m else []
        return {"rc": 2, "L": None, "norm": None, "norms": norms}
    return None


# -- norm oracle -------------------------------------------------------------------
#
# The norms are recomputed from unit impulses, not from symbol products.  The
# stage it refines is built with the library's own pipeline, so a product bug
# that corrupts that stage fools the oracle; the pinned results catch those.

def _refine(coeffs: dict[int, list[list[Fraction]]], p: int,
            seq: dict[int, list[Fraction]]) -> dict[int, list[Fraction]]:
    """(S c)_i = sum_j A_{i-2j} c_j on plain dicts of Fraction lists."""
    out: dict[int, list[Fraction]] = {}
    for j, cj in seq.items():
        for s, m in coeffs.items():
            row = out.setdefault(2 * j + s, [Fraction(0)] * p)
            for r in range(p):
                row[r] += sum(m[r][t] * cj[t] for t in range(p))
    return out


def oracle_norm(mask, L: int) -> Fraction:
    """|(1/2 S)^L| from L refinements of the p unit impulses, then the max
    row sum per residue class mod 2**L; uses only `support` and
    `coefficient` of the mask."""
    p = mask.p
    lo, hi = mask.support
    coeffs = {}
    for i in range(lo, hi + 1):
        m = mask.coefficient(i)
        coeffs[i] = [[m[r, t] for t in range(p)] for r in range(p)]
    cols = []
    for t in range(p):
        seq = {0: [Fraction(int(r == t)) for r in range(p)]}
        for _ in range(L):
            seq = _refine(coeffs, p, seq)
        cols.append(seq)
    arity = 2 ** L
    sums: dict[int, list[Fraction]] = {}
    for col in cols:
        for i, v in col.items():
            acc = sums.setdefault(i % arity, [Fraction(0)] * p)
            for r in range(p):
                acc[r] += abs(v[r])
    return max(max(acc) for acc in sums.values()) / arity


def contractivity_stage(mask, ell: int):
    """The mask whose halved powers certify searches, built with the public
    pipeline: Taylor scheme for Hermite input, then descents and the final
    derived scheme after canonical transforms."""
    current = mask
    descents = ell
    if mask.kind is Kind.HERMITE:
        current = taylor_scheme(mask)
        descents = ell - 1
    for _ in range(descents + 1):
        es = canonical_transform(current)
        current = derived(conjugate(current, es.r), es.k)
    return current


def _certify_args(job: Job, tmp: str):
    argv = job.resolve(tmp)
    path = argv[1]
    mask = (catalog.get(path[len("catalog:"):]) if path.startswith("catalog:")
            else maskfile.load(path))
    if "--ell" in argv:
        ell = int(argv[argv.index("--ell") + 1])
    else:
        ell = 1 if mask.kind is Kind.HERMITE else 0
    if "--lmax" in argv:
        lmax = int(argv[argv.index("--lmax") + 1])
    else:  # the rule of `subsmooth certify`
        lmax = int(os.environ.get("SUBSMOOTH_LMAX", DEFAULT_LMAX))
    return mask, ell, lmax


def check_certify(job: Job, rc: int, text: str, golden: dict, pinned: dict,
                  tmp: str) -> bool:
    """`pinned` maps the sha256 of a mask file to the result digest of its
    certify job."""
    got = parse_certify(rc, text)
    if got is None:
        return False
    want = golden.get(job.key)
    if want is not None and got != want:
        return False
    path = job.resolve(tmp)[1]
    if not path.startswith("catalog:"):
        with open(path, "rb") as fh:
            want = pinned.get(sha256(fh.read()))
        if want is not None and result_digest(got) != want:
            return False
    mask, ell, lmax = _certify_args(job, tmp)
    norms = got["norms"]
    if rc == 2:
        if len(norms) != lmax or any(Fraction(n) < 1 for n in norms):
            return False
        checked = {L: norms[L - 1] for L in range(1, min(ORACLE_LMAX, lmax) + 1)}
    else:
        if not 1 <= got["L"] <= lmax or Fraction(got["norm"]) >= 1:
            return False
        checked = {got["L"]: got["norm"]} if got["L"] <= ORACLE_LMAX else {}
    stage = contractivity_stage(mask, ell)
    if rc == 0:
        # no smaller power may be contractive
        for L in range(1, min(got["L"], ORACLE_LMAX + 1)):
            if oracle_norm(stage, L) < 1:
                return False
    return all(oracle_norm(stage, L) == Fraction(n) for L, n in checked.items())


def check_show(job: Job, text: str, tmp: str) -> bool:
    mask = maskfile.load(job.resolve(tmp)[1])
    lines = text.splitlines()
    return (f"kind: {mask.kind.value}" in lines
            and f"support: {mask.support}" in lines)


def check_digest(job: Job, digest: str, golden: dict) -> bool:
    if job.ref is not None:
        return digest == sha256(maskfile.serialize(catalog.get(job.ref)).encode())
    return golden.get(job.key) == digest


class Checker:
    """Verdicts per job execution, memoized on the exact output."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.golden = load_golden()
        self.pinned = load_golden(BITGROWTH_GOLDEN_PATH)["results"]
        self._memo: dict[tuple, bool] = {}

    def check(self, job: Job, rc: int | None, stdout: str, digest: str | None) -> bool:
        """`digest` is the sha256 of the output file, or of stdout for a job
        without --out."""
        key = (job.key, rc, stdout, digest)
        if key not in self._memo:
            self._memo[key] = self._check(job, rc, stdout, digest)
        return self._memo[key]

    def _check(self, job: Job, rc, stdout: str, digest: str | None) -> bool:
        if job.command == "certify":
            return rc in (0, 2) and check_certify(job, rc, stdout, self.golden, self.pinned,
                                                      self.tmp)
        if rc != 0:
            return False
        if job.command == "show":
            return check_show(job, stdout, self.tmp)
        return digest is not None and check_digest(job, digest, self.golden)
