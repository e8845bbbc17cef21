"""One benchmark process: import polyadj, generate one workload's items
from the seed, run them, check every answer, print one JSON line.

Modes:
  setup    stop after the first item is generated; report setup_s only
  plain    run the items untraced
  trace    run the items with every layer wrapped

With --items N the first N items run, and at least the digest prefix;
otherwise items run until --seconds have passed, and at least the
digest prefix and the rss_items after which peak memory is read, so
that a faster library does not report more memory for running more
items.  With --setups N, N more cold set-ups run in fresh processes
between items, spread evenly over --seconds of item time, so that they
meet the same fast and slow spells of the machine as the items do.

Times are CPU times of this process: its main thread's for items and
probes, the whole process's for set-up.  On a shared virtual machine
the host takes the CPU away now and then; wall time counts that wait,
and it lands mostly on long items, so it inflates latency_p90_ms most.
CPU time does not count it where the kernel accounts steal time, as
Linux with paravirtual steal-time accounting does.

Times are reported twice: as measured, and scaled to an uncontended
machine.  The machine this benchmark was defined on is shared, and the
speed of the CPU time it gives swings by up to 40 % over seconds to
minutes.  So every PROBE_GAP_S of wall time, between items, the worker
times a fixed probe of interpreter work (Fraction and dict arithmetic,
as in the library's hot paths); each item's time is multiplied by
PROBE_REF_S over the median of the five probes around it, and the set-up time by PROBE_REF_S
over the median of SETUP_PROBES probes taken right after it.  The probe
runs no polyadj code, so a change to the library moves the scaled times
by its own speed.
"""

import time

START = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

# probe time on an idle machine of the kind the benchmark was defined on
PROBE_REF_S = 0.0005
PROBE_GAP_S = 0.025
SETUP_PROBES = 40


def probe() -> float:
    """Time a fixed piece of interpreter work, with the collector off so
    the library's heap cannot lengthen it."""
    gc.disable()
    try:
        start = time.thread_time()
        acc = Fraction(0)
        table = {}
        for i in range(1, 120):
            acc += Fraction(i, i + 1)
            table[(i, i & 7)] = acc
        return time.thread_time() - start
    finally:
        gc.enable()


def speed(probes) -> float:
    """Slowdown against the idle machine, from a handful of probes."""
    return statistics.median(probes) / PROBE_REF_S


def cold_setup(args) -> dict:
    """Set up once more in a fresh process, as this one did."""
    cmd = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--mode", "setup", "--out", args.out,
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--items", type=int, default=0)
    ap.add_argument("--setups", type=int, default=0,
                    help="cold set-ups in fresh processes, spread evenly over --seconds of items")
    ap.add_argument("--out", required=True, help="scratch directory inside the checkout")
    args = ap.parse_args()

    import workloads  # imports polyadj
    from spans import Tracer

    out_dir = Path(args.out)
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{args.mode}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        stream = wl.items()
        pending = next(stream)
        setup_s = time.process_time() - START
        setup_scaled = setup_s / speed([probe() for _ in range(SETUP_PROBES)])
        setups = [{"setup_s": setup_s, "setup_scaled_s": setup_scaled}]
        if args.mode == "setup":
            print(json.dumps(setups[0]))
            return 0

        tracer = None
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
        limit = max(args.items, wl.digest_items) if args.items else None
        least = max(wl.digest_items, wl.rss_items)
        peak_rss_mb = None
        digest = hashlib.sha256()
        latencies = []
        failures = []
        probes = []
        item_probe = []
        last_probe = float("-inf")
        loop_start = time.perf_counter()
        paused = 0.0
        index = 0
        while True:
            elapsed = time.perf_counter() - loop_start - paused
            if limit is not None:
                if index == limit:
                    break
            elif index >= least and elapsed >= args.seconds:
                break
            item = pending if index == 0 else next(stream)
            wl.prepare(item)
            if len(setups) <= args.setups and elapsed >= (len(setups) - 0.5) * args.seconds / args.setups:
                start = time.perf_counter()
                setups.append(cold_setup(args))
                paused += time.perf_counter() - start
            if time.perf_counter() - last_probe >= PROBE_GAP_S:
                probes.append(probe())
                last_probe = time.perf_counter()
            item_probe.append(len(probes) - 1)
            if tracer is not None:
                tracer.begin_item(index)
            t0 = time.thread_time()
            try:
                out = wl.run(item)
                error = None
            except Exception as exc:  # a failed item is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            took = time.thread_time() - t0
            if tracer is not None:
                tracer.end_item()
            latencies.append(took)
            if error is None:
                error = wl.check(item, out)
            if error is not None:
                failures.append(f"item {index}: {error}")
            if index < wl.digest_items:
                text = "<failed>" if out is None else wl.text(item, out)
                digest.update(text.encode() + b"\n")
            index += 1
            if index == wl.rss_items:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes.append(probe())
        scaled = [
            t / speed(probes[max(0, j - 2):j + 3]) for t, j in zip(latencies, item_probe)
        ]

        result = {
            "setups": setups,
            "attempted": index,
            "failed": len(failures),
            "failures": failures[:10],
            "digest": digest.hexdigest(),
            "busy_s": sum(latencies),
            "latencies_ms": [1000 * t for t in latencies],
            "scaled_ms": [1000 * t for t in scaled],
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            missing = [name for name in wl.traced_calls if tracer.count(name) == 0]
            if missing:
                sys.stderr.write(
                    f"trace: no calls recorded for {', '.join(missing)} on {args.workload}; "
                    "a traced function was not rebound\n"
                )
                return 3
            busy = [name for name in wl.idle_calls if tracer.count(name) != 0]
            if busy:
                sys.stderr.write(
                    f"trace: {', '.join(busy)} was called on {args.workload}, "
                    "which must not reach it\n"
                )
                return 3
            result["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
            spans = out_dir / f"spans-{args.workload}-{args.seed}.tsv"
            tracer.write_spans(spans)
            result["spans_file"] = str(spans)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
