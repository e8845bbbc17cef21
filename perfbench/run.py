#!/usr/bin/env python3
"""polyadj benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in fresh single-threaded worker processes that
import polyadj from ./src, so every process starts cold.

--trace 0 reports the end-to-end metrics: a closed loop with one client
runs items for --seconds, and setup_s is the median of its own cold
set-up and SETUP_SAMPLES more, started between its items.  peak_rss_mb
is read after a fixed number of items.  Times are the worker's CPU
time, so time the host takes the CPU away is not counted, and they are
scaled to an uncontended machine by a probe timed between items and
after set-up (see worker.py); the figures as measured are printed above
the result line.

--trace 1 reports the per-layer metrics: a fixed item list (its length
set by TRACE_RATE * --seconds) run once plain and once with every layer
wrapped, which also gives the tracing overhead.

Every answer is re-checked by independent code, every process must
produce the same digest of the leading items, and that digest must
match expected.json for the seeds recorded there.  The last stdout line
is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("matsui-criterion", "random-adjacency", "pair-witness", "cli-mix")
# cold set-ups in fresh processes, spread over the timed run's items;
# with the timed process's own set-up they make the setup_s sample
SETUP_SAMPLES = 20
# traced-run items per second of --seconds: the plain and the traced
# pass together take about --seconds at the commit that defined the
# benchmark
TRACE_RATE = {
    "matsui-criterion": 20, "random-adjacency": 150, "pair-witness": 45, "cli-mix": 20,
}
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, mode: str, deadline: float,
           seconds: float = 0, items: int = 0, setups: int = 0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds), "--items", str(items),
        "--setups", str(setups), "--out", str(OUT),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    # a session of its own, so that a timeout also ends the set-up
    # processes the worker starts
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker for {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def check_digest(workload: str, seed: int, child: dict) -> str | None:
    recorded = json.loads((BENCH / "expected.json").read_text())["digests"][workload]
    want = recorded.get(str(seed))
    if want is not None and child["digest"] != want:
        return f"digest {child['digest']} differs from the recorded {want}"
    return None


def latency_metrics(lat_ms: list[float]) -> dict:
    return {
        "throughput_per_s": (1000 * len(lat_ms) / sum(lat_ms), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    child = worker(workload, seed, "plain", deadline, seconds=seconds, setups=SETUP_SAMPLES)
    setups = child["setups"]
    for name, (value, unit) in latency_metrics(child["latencies_ms"]).items():
        print(f"{name} as measured: {value} {unit}")
    print(f"setup_s as measured: {statistics.median(s['setup_s'] for s in setups)} s")
    metrics = latency_metrics(child["scaled_ms"])
    metrics["setup_s"] = (statistics.median(s["setup_scaled_s"] for s in setups), "s")
    metrics["peak_rss_mb"] = (child["peak_rss_mb"], "MB")
    print(f"latency samples: {child['attempted']}, setup samples: {len(setups)}")
    return [child], metrics


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    items = math.ceil(TRACE_RATE[workload] * seconds)
    plain = worker(workload, seed, "plain", deadline, items=items)
    traced = worker(workload, seed, "trace", deadline, items=items)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    overhead = sum(traced["scaled_ms"]) / sum(plain["scaled_ms"]) - 1
    metrics["trace.overhead_share"] = (overhead, "share")
    metrics["trace.item_s"] = (traced["busy_s"], "s")
    print(f"traced items: {traced['attempted']}, spans written to {traced['spans_file']}")
    return [plain, traced], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "polyadj" / "__init__.py").is_file():
        sys.stderr.write(f"no polyadj sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    run = per_layer if args.trace else end_to_end
    try:
        children, metrics = run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [f for c in children for f in c["failures"]]
    if len({c["digest"] for c in children}) != 1:
        problems.append("worker processes disagree on the digest")
    mismatch = check_digest(args.workload, args.seed, children[0])
    if mismatch:
        problems.append(mismatch)
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    print(f"digest: {children[0]['digest']}")
    print(f"error_rate: {failed / attempted} ({failed} of {attempted} items)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
