"""sncgeom benchmark: four closed-loop workloads, end to end and per layer.

    python3 bench/run.py --workload {glue,surface,fano,verify} --seed N
        --seconds S --trace {0,1}

Run from anywhere; the library is imported from ../src. Every measurement
runs in a fresh interpreter (bench/worker.py), one process, one thread.

--trace 0 prints the end-to-end metrics: set-up is repeated in separate
processes and its median reported; one more process sets up and then runs
whole passes of the op list for at least S seconds and 100 ops.
--trace 1 runs a fixed number of passes twice, untraced and traced, and
prints the per-layer metrics of the traced run, with the untraced figures
and the tracing overhead on the line before. Spans go to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150
# set-up processes per run; the glue set-up fills the component cache
# (several seconds), the others mostly import
SETUP_REPEATS = {"glue": 3, "surface": 7, "fano": 7, "verify": 7}
TRACE_PASSES = 2
# The start-up of a worker (interpreter, site, numpy, the library) moves by
# a quarter from one hour to the next on the same VM while its calibration
# chunks do not, so it is scaled by this reference start-up, which does not
# involve the library, timed before every set-up. Its median on the VM the
# benchmark was written on ranged 0.13-0.17 s from hour to hour.
REFERENCE_STARTUP = [sys.executable, "-c", "import numpy"]
REFERENCE_STARTUP_S = 0.15

SPANNED_METRICS = {
    "lattice.rank": ("calls", "cells", "self_s"),
    "lattice.kernel_basis": ("calls", "cells", "self_s"),
    "lattice.smith_normal_form": ("calls", "cells", "self_s"),
    "lattice.rank_mod_p": ("calls", "cells", "self_s"),
    "lattice.solve": ("calls", "self_s"),
    "lattice.det_int": ("calls", "self_s"),
    "picard.degree_one_polarization": ("calls", "self_s"),
    "picard.is_negative_definite": ("calls", "self_s"),
    "picard.dot": ("calls", "self_s"),
    "picard.cycle_surface": ("self_s",),
    "picard.uniform_degree_seed": ("self_s",),
    "snc.glue_report": ("self_s",),
    "snc.dual_complex": ("self_s",),
    "snc.assemble": ("self_s",),
    "snc.structure_cohomology": ("self_s",),
    "snc.fundamental_group": ("self_s",),
    "snc.abelianization": ("self_s",),
    "snc.simplicial_homology": ("self_s",),
    "snc.canonical_order": ("self_s",),
    "snc.default_component_factory": ("calls",),
    "fano.glued_h0": ("calls", "self_s"),
    "fano.glued_basis": ("calls", "self_s"),
    "fano.degree_one_generation": ("calls", "self_s"),
    "resolution.build_chain": ("calls", "self_s"),
    "poly.MultiPoly.__mul__": ("calls",),
    "poly.MultiPoly.__add__": ("calls",),
    "poly.determinant": ("calls", "self_s"),
    "poly.adjugate": ("calls", "self_s"),
    "poly.divide_exact": ("calls", "self_s"),
    "poly.blowup_chart": ("calls", "self_s"),
    "poly.derive_adjoint_relation": ("calls", "self_s"),
    "poly.rank_locus_codim_estimate": ("calls", "self_s"),
}
UNITS = {"calls": "count", "cells": "count", "self_s": "s"}


class BenchError(Exception):
    pass


def worker(workload, seed, mode, **options):
    """Run bench/worker.py in a fresh interpreter and return its report."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    for name, value in options.items():
        if value is True:
            argv.append(f"--{name}")
        elif value is not False:
            argv += [f"--{name}", str(value)]
    spawned = time.monotonic()
    proc = subprocess.run(argv + ["--spawned", repr(spawned)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def reference_startup():
    t0 = time.monotonic()
    subprocess.run(REFERENCE_STARTUP, check=True, capture_output=True,
                   timeout=WORKER_TIMEOUT_S)
    return time.monotonic() - t0


def summary(report, key="latencies"):
    """End-to-end figures of one worker run, setup_s aside. Times are op
    latencies (normalised ones unless key names the raw list); the timed
    wall is their sum, which leaves out calibration chunks and checks."""
    lat = report[key]
    if not lat:
        raise BenchError("no op returned a correct result")
    attempted = len(lat) + report["failed"]
    return attempted, {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        # the 9th decile: with >= 100 ops, >= 10 samples lie beyond it
        "op_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ok_ratio": (len(lat) / attempted, "ratio"),
    }


def _rounded(metrics):
    return json.dumps({k: round(v, 6) for k, (v, _) in metrics.items()})


def end_to_end(workload, seed, seconds):
    references, runs = [], []
    for i in range(SETUP_REPEATS[workload]):
        references.append(reference_startup())
        if i + 1 < SETUP_REPEATS[workload]:
            runs.append(worker(workload, seed, "setup"))
    report = worker(workload, seed, "timed", seconds=seconds)
    runs.append(report)
    attempted, metrics = summary(report)
    startup_speed = statistics.median(references) / REFERENCE_STARTUP_S
    metrics["setup_s"] = (statistics.median(
        r["startup_s"] / startup_speed + r["warm_up_s"] / r["setup_speed"]
        for r in runs), "s")
    _, raw = summary(report, "raw_latencies")
    raw["setup_s"] = (statistics.median(
        r["startup_s"] + r["warm_up_s"] for r in runs), "s")
    speeds = report["speeds"]
    print(f"# {workload} seed={seed}: {attempted} ops in {report['passes']} "
          f"passes of {report['ops_per_pass']}; host speed factor per pass "
          f"{min(speeds):.3f}..{max(speeds):.3f}; raw {_rounded(raw)}")
    return attempted, report["failed"], metrics


def per_layer(workload, seed):
    plain = worker(workload, seed, "passes", passes=TRACE_PASSES)
    traced = worker(workload, seed, "passes", passes=TRACE_PASSES,
                    trace=True)
    _, plain_metrics = summary(plain)
    _, traced_metrics = summary(traced)
    overhead = plain_metrics["ops_per_s"][0] / traced_metrics["ops_per_s"][0]
    print(f"# {workload} seed={seed} untraced {TRACE_PASSES} passes: "
          f"{_rounded(plain_metrics)}; trace.overhead_ratio {overhead:.3f}; "
          f"spans in {traced['trace_file']}")
    layers = traced["layers"]
    # self times at the reference host speed, like the end-to-end times
    speed = statistics.fmean(traced["speeds"])
    metrics = {f"{name}.{field}": (layers[name][field] / speed
                                   if field == "self_s"
                                   else layers[name][field], UNITS[field])
               for name, fields in SPANNED_METRICS.items()
               for field in fields}
    metrics.update({name: (value, "ratio")
                    for name, value in traced["ratios"].items()})
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    attempted = sum(len(r["latencies"]) + r["failed"] for r in (plain, traced))
    return attempted, plain["failed"] + traced["failed"], metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(SETUP_REPEATS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sncgeom" / "__init__.py").is_file():
        print(f"no sncgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            attempted, failed, metrics = per_layer(args.workload, args.seed)
        else:
            attempted, failed, metrics = end_to_end(
                args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
