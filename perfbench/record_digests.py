#!/usr/bin/env python3
"""Record the answer digests that run.py compares against.

    python3 perfbench/record_digests.py

For each workload and each of the seeds 0 to 31, one worker runs the
digest prefix (the leading items whose certificates and documents the
digest covers), and all the digests are written to
perfbench/expected.json.  Run it only when a change is meant to alter
answers; otherwise a differing digest is a failure to investigate, not
to re-record.
"""

import json
import sys
import time

import run

SEEDS = range(32)


def main() -> int:
    run.OUT.mkdir(parents=True, exist_ok=True)
    digests = {}
    for workload in run.WORKLOADS:
        digests[workload] = {}
        for seed in SEEDS:
            child = run.worker(workload, seed, "plain", time.monotonic() + 600, items=1)
            if child["failed"]:
                sys.stderr.write(f"{workload} seed {seed}: {child['failures']}\n")
                return 1
            digests[workload][str(seed)] = child["digest"]
            print(workload, seed, child["digest"], flush=True)
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps({"digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
