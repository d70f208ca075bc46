"""The library names the benchmark harness under bench/ wraps and calls.

`bench/spans.py` replaces each (module, attribute) it spans with a wrapper
and fails on a missing name, and `bench/worker.py` calls
`lattice.rank_mod_p([[1]])` at start-up, so `--trace 1` breaks when any of
them leaves the library.
"""

import importlib.util
from pathlib import Path

from sncgeom import lattice, poly

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_spans_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _ in spans.SPANNED
               if not callable(getattr(module, attr, None))]
    missing += [f"MultiPoly.{attr}" for attr, _ in spans.COUNTED
                if not callable(getattr(poly.MultiPoly, attr, None))]
    assert missing == []
    assert lattice.rank_mod_p([[1]]) == 1
