"""One workload run inside a fresh interpreter, started by run.py.

The first thing it does is import `subsmooth.cli` and print `ready`, so the
parent can time the cold start.  With `--probe` it stops there.  With
`--baseline` it imports only the standard modules that `subsmooth.cli`
imported at the seed commit, prints `ready` and stops: the yardstick that
run.py divides the cold start by.  Otherwise it writes the workload's
generated inputs, runs the job list in a closed loop with one client until
the time is up, checks every output, and prints one JSON report as its last
stdout line.
"""

import sys

if __name__ == "__main__":
    if sys.argv[1:] == ["--baseline"]:
        # a fixed list: a change to what the library imports must show
        import argparse, dataclasses, enum, fractions, json, math, os, re, typing  # noqa: E401,F401
    else:
        import subsmooth.cli  # the cold start run.py times, so before anything else

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if sys.argv[1:] in (["--probe"], ["--baseline"]):
        sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

import subsmooth.cli as cli  # noqa: E402

from checks import Checker, sha256  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Job, write_inputs  # noqa: E402


# The reference kernel: exact product of two fixed 48-term dict-of-Fraction
# polynomials, the kind of work the library does, in the benchmark's own
# code.  It runs before and after every job, so each job's time can also be
# given in units of the reference time measured at the same moment.
_REF_A = {i: Fraction(i % 7 - 3, 2 ** (i % 5)) for i in range(48)}
_REF_B = {i: Fraction(i % 5 - 2, 3 ** (i % 3)) for i in range(48)}


def reference_s() -> float:
    gc.collect()
    t0 = perf_counter()
    out: dict[int, Fraction] = {}
    for e1, c1 in _REF_A.items():
        for e2, c2 in _REF_B.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return perf_counter() - t0


@dataclass(frozen=True)
class Record:
    """One job execution.  `ref_s` is the mean of the reference times just
    before and just after it; `ref` is the job's time in reference units."""

    job: Job
    rc: int | None
    seconds: float
    ref_s: float
    out_sha: str
    digest: str | None

    @property
    def ref(self) -> float:
        return self.seconds / self.ref_s


def run_job(job: Job, tmp: str):
    """Run one CLI call in-process; return (rc, seconds, stdout, digest of
    the output file, or of stdout for a job without --out)."""
    argv = job.resolve(tmp)
    path = job.out_file
    if path is not None:  # a stale file from an earlier pass must not pass the check
        with contextlib.suppress(FileNotFoundError):
            os.remove(path.replace("{tmp}", tmp))
    out = io.StringIO()
    gc.collect()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else None
    except Exception:  # an internal error is a failed job, not a crashed run
        rc = None
    dt = perf_counter() - t0
    stdout = out.getvalue()
    digest = sha256(stdout.encode())
    if path is not None:
        try:
            with open(path.replace("{tmp}", tmp), "rb") as fh:
                digest = sha256(fh.read())
        except FileNotFoundError:
            digest = None
    return rc, dt, stdout, digest


def run_pass(units, tmp: str, texts: dict, tracer=None) -> list[Record]:
    """Run every job once.  `texts` keeps one copy of each distinct stdout,
    so the benchmark's own memory does not grow with the number of passes."""
    records = []
    ref_before = reference_s()
    for unit in units:
        for job in unit:
            if tracer is not None:
                tracer.job = len(records)
            rc, dt, stdout, digest = run_job(job, tmp)
            ref_after = reference_s()
            out_sha = sha256(stdout.encode())
            texts.setdefault(out_sha, stdout)
            records.append(Record(job, rc, dt, (ref_before + ref_after) / 2,
                                  out_sha, digest))
            ref_before = ref_after
    return records


def consistent(passes) -> bool:
    """True when every execution of a job gave the same exit code and bytes."""
    seen: dict[str, set] = {}
    for records in passes:
        for r in records:
            seen.setdefault(r.job.key, set()).add((r.rc, r.out_sha, r.digest))
    return all(len(v) == 1 for v in seen.values())


def timed_passes(units, tmp: str, texts: dict, seconds: float, rng: random.Random):
    """Passes in seeded order until the next one would overrun `seconds`."""
    passes, durations = [], []
    start = perf_counter()
    while True:
        order = list(units)
        rng.shuffle(order)
        t0 = perf_counter()
        passes.append(run_pass(order, tmp, texts))
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return passes


def _figures(passes, field: str) -> tuple[float, float, float]:
    """(wall, median job, slowest job) of one per-job figure.

    wall is the median over passes of the pass total.  Each entry of the
    job list gets its median over passes; the median job and the slowest
    job are the median and the maximum of those, so a job list with an even
    number of entries still gives a steady middle value.
    """
    per_job: dict[str, list[float]] = {}
    for records in passes:
        for r in records:
            per_job.setdefault(r.job.key, []).append(getattr(r, field))
    entries = [statistics.median(per_job[r.job.key]) for r in passes[0]]
    return (statistics.median(sum(getattr(r, field) for r in rec) for rec in passes),
            statistics.median(entries), max(entries))


def summarize(passes) -> dict:
    """End-to-end figures from the job latencies of all passes."""
    wall_s, p50_s, max_s = _figures(passes, "seconds")
    wall_ref, p50_ref, max_ref = _figures(passes, "ref")
    jobs: dict[str, dict] = {}
    for records in passes:
        for r in records:
            j = jobs.setdefault(r.job.key, {"latencies_s": [], "reference_s": []})
            j["latencies_s"].append(r.seconds)
            j["reference_s"].append(r.ref_s)
    for j in jobs.values():
        j["samples"] = len(j["latencies_s"])
    return {
        "wall_s": wall_s, "job_p50_ms": p50_s * 1e3, "job_max_s": max_s,
        "wall_ref": wall_ref, "job_p50_ref": p50_ref, "job_max_ref": max_ref,
        "passes": len(passes),
        "samples": sum(len(rec) for rec in passes),
        "jobs": jobs,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = ap.parse_args()

    inputs = write_inputs(args.workload, args.seed, args.tmp)
    units = WORKLOADS[args.workload]()
    rng = random.Random(f"{args.seed}/order")
    report = {"inputs": inputs}
    texts: dict[str, str] = {}

    if args.trace:
        order = list(units)
        rng.shuffle(order)
        untraced, traced, stats, overheads = [], [], [], []
        for _ in range(2):
            untraced.append(run_pass(order, args.tmp, texts))
            with Tracer() as tracer:
                traced.append(run_pass(order, args.tmp, texts, tracer))
            stats.append(tracer.layer_stats())
            overheads.append(tracer.count_overhead_s())
        passes = untraced + traced
        report["untraced_wall_s"] = [sum(r.seconds for r in rec) for rec in untraced]
        report["traced_wall_s"] = [sum(r.seconds for r in rec) for rec in traced]
        report["count_overhead_s"] = overheads
        counts = [{(layer, stat): v for layer, s in st.items()
                   for stat, v in s.items() if stat != "self_s"} for st in stats]
        report["counts_repeat"] = counts[0] == counts[1]
        layers = stats[0]
        for layer, s in layers.items():
            s["self_s"] = min(st[layer]["self_s"] for st in stats)
        report["layers"] = layers
        report["missing"] = tracer.missing
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    else:
        passes = timed_passes(units, args.tmp, texts, args.seconds, rng)
        report.update(summarize(passes))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = Checker(args.tmp)
    records = [r for rec in passes for r in rec]
    verdicts = [checker.check(r.job, r.rc, texts[r.out_sha], r.digest) for r in records]
    report["attempted"] = len(records)
    report["failed"] = verdicts.count(False)
    report["failed_jobs"] = sorted({r.job.key for r, ok in zip(records, verdicts) if not ok})
    # traced and untraced passes, or all timed passes, give the same bytes
    report["outputs_repeat"] = consistent(passes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
