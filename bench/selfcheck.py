"""Determinism self-check of the benchmark.

    python3 bench/selfcheck.py [--seed N]

1. Two generations of every workload's op list from one seed, in separate
   interpreters with different string-hash seeds, are identical.
2. Two traced runs of every workload report identical calls and cells
   counts, so a later change can cite them.
3. The glue timed phase makes no component-cache miss: set-up filled it.

Exits 0 when all three hold.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("glue", "surface", "fano", "verify")

LIST_OPS = f"""
import sys
sys.path.insert(0, {str(HERE.parent / "src")!r})
import workloads
for name in {WORKLOADS!r}:
    print(name, [op.key for op in workloads.generate(name, int(sys.argv[1]))])
"""


def _run(argv, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(argv, cwd=HERE, env=env, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{argv[1]} exited with {proc.returncode}")
    return proc.stdout


def traced_counts(workload, seed, hash_seed):
    out = _run([sys.executable, "run.py", "--workload", workload, "--seed",
                str(seed), "--seconds", "1", "--trace", "1"], hash_seed)
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith((".calls", ".cells", "_ratio"))
            and k != "trace.overhead_ratio"}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    seed = p.parse_args(argv).seed
    ok = True

    lists = [_run([sys.executable, "-c", LIST_OPS, str(seed)], h)
             for h in (1, 2)]
    same = lists[0] == lists[1]
    print(f"op lists identical across generations: {same}")
    ok &= same

    for workload in WORKLOADS:
        first, second = (traced_counts(workload, seed, h) for h in (1, 2))
        diff = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: traced counts identical: {not diff}"
              + (f" (differ: {diff})" if diff else ""))
        ok &= not diff
        if workload == "glue":
            misses = first["snc.component_cache_miss_ratio"]
            lookups = first["snc.default_component_factory.calls"]
            print(f"glue: component cache misses per lookup {misses} "
                  f"over {lookups} lookups")
            ok &= misses == 0 and lookups > 0
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
