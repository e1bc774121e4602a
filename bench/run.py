"""Benchmark of the subsmooth CLI.

Run from the root of the repository:

    python3 bench/run.py --workload render-deep --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload certify-search --seed 1 --seconds 28 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 0

Each workload runs in one fresh single-threaded interpreter (worker.py) that
calls `subsmooth.cli.main(argv)` in a closed loop with one client.  Set-up
time is the cold start (spawn until `subsmooth.cli` is imported) of probe
interpreters, each over the cold start of a baseline interpreter that only
imports the standard modules, times BASELINE_S.  `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones from a
separate traced run.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PAIRS = 12  # half before the workload interpreter, half after it
# Set-up time is given in seconds of a host on which the baseline cold start
# takes BASELINE_S: its median over 120 starts on a shared 2-vCPU 2.0 GHz
# Xeon VM, Python 3.11.7.  The ratio cancels the host's speed, which on a
# shared host changes set-up time in seconds by a third within minutes.
BASELINE_S = 0.0735
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start worker.py; return the process and seconds until it was ready."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("SUBSMOOTH_LMAX", None)  # jobs without --lmax use the library's default
    t0 = time.perf_counter()
    # -S: no site-packages .pth hooks, which the library does not use
    proc = subprocess.Popen([sys.executable, "-S", os.path.join(BENCH, "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line != "ready\n":
        proc.kill()
        proc.wait()
        raise BenchError("worker did not start")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for the worker's output; kill it if it runs out of time."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def _cold_start(flag: str) -> float:
    proc, ready = _spawn([flag])
    _finish(proc, 30)
    return ready


def _probe_setup(n: int) -> list[tuple[float, float]]:
    """n pairs of cold starts: an interpreter that imports subsmooth.cli,
    then one that imports only the standard modules."""
    return [(_cold_start("--probe"), _cold_start("--baseline")) for _ in range(n)]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    _cold_start("--probe")  # compiles the .pyc files of a fresh checkout; not counted
    setup = _probe_setup(SETUP_PAIRS // 2)
    tmp = os.path.join(OUT, f"run-{os.getpid()}-{workload}")
    os.makedirs(tmp, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--tmp", tmp]
    if trace:
        args += ["--spans", os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")]
    try:
        proc, _ = _spawn(args)
        out = _finish(proc, RUN_LIMIT_S - (time.perf_counter() - start))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup += _probe_setup(SETUP_PAIRS - SETUP_PAIRS // 2)
    report = json.loads(out.splitlines()[-1])
    report["setup_samples_s"] = setup
    report["setup_raw_s"] = statistics.median(p for p, _ in setup)
    report["setup_s"] = statistics.median(p / b for p, b in setup) * BASELINE_S
    return report


def end_to_end(report: dict, spec: dict) -> dict:
    return {m["name"]: {"value": report[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer(report: dict, spec: dict) -> dict:
    overhead = min(report["traced_wall_s"]) - min(report["untraced_wall_s"])
    metrics = {}
    for m in spec["per_layer"]:
        layer, _, stat = m["name"].rpartition(".")
        if m["name"] == "trace.overhead_s":
            value = overhead
        else:
            value = report["layers"].get(layer, {}).get(stat, 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def correct(report: dict) -> bool:
    return (report["failed"] == 0 and report["outputs_repeat"]
            and report.get("counts_repeat", True))


def git_sha() -> str | None:
    # a checkout that is no repository must not report a repository around it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def metadata(workload: str, seed: int, seconds: float, report: dict) -> dict:
    keys = ("passes", "samples", "jobs", "setup_samples_s", "setup_raw_s", "inputs",
            "failed_jobs", "untraced_wall_s", "traced_wall_s", "count_overhead_s", "missing")
    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "python": platform.python_version(), "git_sha": git_sha(),
            "nproc": os.cpu_count(), "src_lines": src_lines(),
            "failed_ratio": report["failed"] / report["attempted"]}
    meta.update({k: report[k] for k in keys if k in report})
    return meta


def print_report(workload: str, report: dict, metrics: dict, trace: int) -> None:
    print(f"== {workload}: {report['attempted']} jobs, failed_ratio "
          f"{report['failed'] / report['attempted']:.4g} ({report['failed']}/"
          f"{report['attempted']})" + ("" if trace else f", {report['passes']} passes"))
    if trace:
        wall = min(report["traced_wall_s"])
        print(f"   wall (min of 2): untraced {min(report['untraced_wall_s']):.4f} s, "
              f"traced {wall:.4f} s")
        rows = sorted(report["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for layer, s in rows:
            work = ", ".join(f"{k} {v}" for k, v in s.items() if k not in ("calls", "self_s"))
            print(f"   {layer:34} calls {s['calls']:>7}  self {s['self_s']:9.4f} s "
                  f"({s['self_s'] / wall:6.1%})  {work}")
        if report["missing"]:
            print(f"   missing: {', '.join(report['missing'])}")
        return
    shown = {"wall_s": "s", "job_p50_ms": "ms", "job_max_s": "s", "setup_raw_s": "s"}
    shown.update({name: m["unit"] for name, m in metrics.items()})
    for name, unit in shown.items():
        print(f"   {name:14} {report[name]:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "subsmooth", "cli.py")):
        print(f"error: no subsmooth sources under {SRC}", file=sys.stderr)
        return 1
    spec = load_spec()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for w in workloads:
            report = run_workload(w, args.seed, args.seconds, args.trace)
            metrics = per_layer(report, spec) if args.trace else end_to_end(report, spec)
            print_report(w, report, metrics, args.trace)
            print("metadata " + json.dumps(metadata(w, args.seed, args.seconds, report)))
            results[w] = (report, metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, (_, ms) in results.items() for k, v in ms.items()}
    else:
        metrics = results[args.workload][1]
    reports = [r for r, _ in results.values()]
    print(json.dumps({"correct": all(correct(r) for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
