"""One benchmark process: set up a workload, then run its ops in a closed
loop (one caller, the next op sent only when the previous one returned).

Started by run.py in a fresh interpreter for every measurement, so lazy
imports and module caches start empty each time. Prints one JSON line.

    python3 bench/worker.py --workload glue --seed 1 --spawned <monotonic>
        --mode timed --seconds 22

Host speed. On a shared VM the same op takes up to twice as long from one
second to the next, and 25-s runs a few minutes apart differ by up to 50 %.
A second process on the other core does not see the same slowdowns, but a
fixed calibration chunk run in this thread right before each op does: over
windows of a few seconds the op/chunk ratio stays within about 3 %. So a
chunk runs before every op and around every set-up step, outside the timed
intervals. Op times are divided by their pass's host-speed factor (mean
chunk time in the pass over CALIBRATION_REF_S), the warm-up part of set-up
by the median over its chunks. The start-up part (interpreter, imports)
depends on process-creation and page-fault costs that the chunk does not
see; run.py scales it by a reference start-up instead. Reported times are
therefore seconds at the reference host speed; the raw ones are reported
too.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_OPS = 100
# about the median time of one calibration chunk on the 2-core VM the
# benchmark was written on; it fixes the unit of the normalised times
CALIBRATION_REF_S = 0.0018
# chunks before and after set-up; a set-up of 0.2 s sees the host speed
# change within it, and the median of these tracks it better than a few
SETUP_CHUNKS = 10


def calibrate():
    """Time one fixed chunk of pure-Python work in the library's mix:
    Fraction and big-integer arithmetic, nested lists, tuple-keyed dicts."""
    t0 = time.perf_counter()
    for _ in range(4):
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(i, i + 3)
        big = 1
        for i in range(1, 60):
            big = big * (i + 7) // (i % 5 + 1) + i
        rows = [[(i * j + big) % 11 for j in range(16)] for i in range(16)]
        seen = {}
        for row in rows:
            key = tuple(row[:4])
            seen[key] = seen.get(key, 0) + sum(row)
    return time.perf_counter() - t0


def _load_library():
    sys.path.insert(0, str(SRC))
    import sncgeom
    from sncgeom import lattice

    if Path(sncgeom.__file__).resolve().parent != SRC / "sncgeom":
        raise ImportError(f"sncgeom imported from {sncgeom.__file__}, "
                          f"not from {SRC}")
    lattice.rank_mod_p([[1]])  # the lazy numpy import, out of the first op


def _set_up(workload, seed, chunks):
    """Generate the op list and warm the process, sampling host speed after
    every step."""
    import workloads

    ops = workloads.generate(workload, seed)
    chunks.append(calibrate())
    if workload == "glue":
        # fills the process-wide component cache for every cycle length
        for op in ops:
            op.run()
            chunks.append(calibrate())
    return ops


def _run_pass(ops, call, first_id):
    """One pass: (raw latencies of correct ops, failures, chunk times)."""
    latencies, chunks, failed = [], [], 0
    for i, op in enumerate(ops):
        chunks.append(calibrate())
        t0 = time.perf_counter()
        try:
            result = call(first_id + i, op.run)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        t1 = time.perf_counter()
        if op.check(result):
            latencies.append(t1 - t0)
        else:
            print(f"wrong result for {op.key[:3]}", file=sys.stderr)
            failed += 1
    return latencies, failed, chunks


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() of the parent just before spawn")
    p.add_argument("--mode", choices=["setup", "timed", "passes"],
                   required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--passes", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    chunks = [calibrate() for _ in range(SETUP_CHUNKS)]
    _load_library()
    startup_s = time.monotonic() - args.spawned - sum(chunks)
    ops = _set_up(args.workload, args.seed, chunks)
    chunks += [calibrate() for _ in range(SETUP_CHUNKS)]
    warm_up_s = time.monotonic() - args.spawned - startup_s - sum(chunks)
    result = {"startup_s": startup_s, "warm_up_s": warm_up_s,
              "setup_speed": statistics.median(chunks) / CALIBRATION_REF_S,
              "ops_per_pass": len(ops)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    call = lambda i, fn: fn()  # noqa: E731
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        call = tracer.run_op

    raw, latencies, speeds = [], [], []
    failed = passes = 0
    t_start = time.perf_counter()
    while True:
        lat, bad, chunks = _run_pass(ops, call, passes * len(ops))
        speed = statistics.fmean(chunks) / CALIBRATION_REF_S
        raw += lat
        latencies += [t / speed for t in lat]
        speeds.append(speed)
        failed += bad
        passes += 1
        if args.mode == "passes":
            if passes == args.passes:
                break
        elif (time.perf_counter() - t_start >= args.seconds
              and passes * len(ops) >= MIN_OPS):
            break
    result.update(
        latencies=latencies, raw_latencies=raw, failed=failed, passes=passes,
        speeds=speeds,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        table, ratios = tracer.layer_table()
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path, table, ratios)
        result.update(layers=table, ratios=ratios, trace_file=str(path))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
