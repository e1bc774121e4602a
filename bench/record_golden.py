"""Record golden.json and golden_bitgrowth.json: the expected outputs of
the fixed benchmark jobs and of the certify-bitgrowth jobs of seeds
BITGROWTH_SEEDS.

Run from the root of the repository, at a commit whose outputs are trusted:

    PYTHONPATH=src python3 bench/record_golden.py

CSVs and mask files are stored as sha256 digests, certify results as the
parsed exit code, L, norm and norm list; for the generated masks, keyed by
the sha256 of the mask file, as the digest of that parsed result.  The
depth-6 renders must equal the committed demos/out/*.csv, or nothing is
written.  The bit-growth part takes about ten minutes.
"""

import json
import os
import sys
import tempfile

from checks import (BITGROWTH_GOLDEN_PATH, GOLDEN_PATH, parse_certify, result_digest,
                    sha256)
from worker import run_job
from workloads import DEMO_RENDERS, WORKLOADS, certify_bitgrowth, write_inputs

BITGROWTH_SEEDS = range(200)


def record_bitgrowth(tmp: str) -> dict[str, str]:
    results = {}
    for seed in BITGROWTH_SEEDS:
        inputs = write_inputs("certify-bitgrowth", seed, tmp)
        for (job,) in certify_bitgrowth():
            rc, _, stdout, _ = run_job(job, tmp)
            got = parse_certify(rc, stdout)
            if got is None:
                sys.exit(f"seed {seed}, {job.key}: exit {rc}")
            results[inputs[os.path.basename(job.argv[1])]] = result_digest(got)
    return results


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in WORKLOADS.items():
            if name == "certify-bitgrowth":
                continue  # seeded inputs, recorded per mask file below
            for unit in make():
                for job in unit:
                    if job.command == "show" or job.ref is not None:
                        continue
                    rc, _, stdout, digest = run_job(job, tmp)
                    if job.command == "certify":
                        golden[job.key] = parse_certify(rc, stdout)
                    elif rc == 0:
                        golden[job.key] = digest
                    else:
                        sys.exit(f"{job.key}: exit {rc}")
        bitgrowth = record_bitgrowth(tmp)
    for name in DEMO_RENDERS:
        key = f"render catalog:{name} --depth 6 --out {{tmp}}/{name}-d6.csv"
        with open(os.path.join("demos", "out", f"{name}.csv"), "rb") as fh:
            if sha256(fh.read()) != golden[key]:
                sys.exit(f"{key} differs from demos/out/{name}.csv")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(BITGROWTH_GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seeds": [BITGROWTH_SEEDS.start, BITGROWTH_SEEDS.stop - 1],
                   "results": bitgrowth}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {GOLDEN_PATH}, "
          f"{len(bitgrowth)} to {BITGROWTH_GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
