"""Spans around calls into the library's layers, recorded from outside.

``Tracer.install`` replaces module attributes such as ``lattice.rank`` and
``picard.dot`` with wrappers. The library looks these names up at call
time (``lattice.rank(...)`` from another module, ``dot(...)`` inside
picard), so every call, internal ones included, passes a wrapper; nothing
under ``src/`` changes. ``MultiPoly`` arithmetic is only counted: it runs
too often for a span per call, and its time stays in the caller's span.

Spans live in flat arrays until the run ends; ``layer_table`` derives the
per-layer numbers from them and ``write`` stores both at once.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array

from sncgeom import fano, lattice, picard, poly, resolution, snc

# (module, attribute, records cells = rows x cols of the first argument)
SPANNED = (
    (lattice, "rank", True),
    (lattice, "kernel_basis", True),
    (lattice, "smith_normal_form", True),
    (lattice, "rank_mod_p", True),
    (lattice, "solve", False),
    (lattice, "det_int", False),
    (picard, "cycle_surface", False),
    (picard, "uniform_degree_seed", False),
    (picard, "degree_one_polarization", False),
    (picard, "is_negative_definite", False),
    (picard, "dot", False),
    (snc, "glue_report", False),
    (snc, "dual_complex", False),
    (snc, "assemble", False),
    (snc, "default_component_factory", False),
    (snc, "structure_cohomology", False),
    (snc, "fundamental_group", False),
    (snc, "abelianization", False),
    (snc, "simplicial_homology", False),
    (snc, "canonical_order", False),
    (fano, "h0_table", False),
    (fano, "glued_h0", False),
    (fano, "glued_basis", False),
    (fano, "degree_one_generation", False),
    (fano, "quadric_kernel_dim", False),
    (resolution, "build_chain", False),
    (poly, "determinant", False),
    (poly, "adjugate", False),
    (poly, "divide_exact", False),
    (poly, "blowup_chart", False),
    (poly, "derive_adjoint_relation", False),
    (poly, "rank_locus_codim_estimate", False),
)
# class attribute -> counter name; the reflected operators are separate
# aliases of the same functions and count under the forward name
COUNTED = (
    ("__mul__", "poly.MultiPoly.__mul__"),
    ("__rmul__", "poly.MultiPoly.__mul__"),
    ("__add__", "poly.MultiPoly.__add__"),
    ("__radd__", "poly.MultiPoly.__add__"),
)
OP_SPAN = "op"
# parents of a modular-rank certification attempt in fano, and of the exact
# lattice.rank fallback when the certificate fails
CERTIFYING = ("fano.degree_one_generation", "fano.quadric_kernel_dim")


def _cells(rows):
    return len(rows) * len(rows[0]) if rows and rows[0] else 0


def _qualname(module, attr):
    return f"{module.__name__.rpartition('.')[2]}.{attr}"


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN]
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.cells = array("q")
        self.counts = {}
        self.current_op = -1
        self._stack = []
        self._t0 = time.perf_counter()

    def _open(self, name_id, cells):
        i = len(self.name)
        self.name.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.cells.append(cells)
        self._stack.append(i)
        self.start[i] = time.perf_counter()
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, with_cells=False):
        name_id = len(self.names)
        self.names.append(name)

        def wrapper(*args, **kwargs):
            i = self._open(name_id, _cells(args[0]) if with_cells else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    def counter(self, name, fn):
        self.counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for module, attr, with_cells in SPANNED:
            setattr(module, attr, self.span(
                _qualname(module, attr), getattr(module, attr), with_cells))
        for attr, name in COUNTED:
            setattr(poly.MultiPoly, attr,
                    self.counter(name, getattr(poly.MultiPoly, attr)))

    def run_op(self, op_id, fn):
        """Run one benchmark op under a root span."""
        self.current_op = op_id
        i = self._open(0, 0)
        try:
            return fn()
        finally:
            self._close(i)

    def layer_table(self):
        """name -> {calls, cells, self_s}, plus the ratios derived from
        parent links."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "cells": 0, "self_s": 0.0}
                 for name in self.names}
        parent_name = {}
        for i in range(n):
            name = self.names[self.name[i]]
            row = table[name]
            row["calls"] += 1
            row["cells"] += self.cells[i]
            row["self_s"] += self.end[i] - self.start[i] - child[i]
            p = self.parent[i]
            key = (name, self.names[self.name[p]] if p >= 0 else None)
            parent_name[key] = parent_name.get(key, 0) + 1
        for name, calls in self.counts.items():
            table[name] = {"calls": calls, "cells": 0, "self_s": 0.0}

        def under(name, parents):
            return sum(parent_name.get((name, p), 0) for p in parents)

        attempts = under("lattice.rank_mod_p", CERTIFYING)
        fallbacks = under("lattice.rank", CERTIFYING)
        factory_calls = table["snc.default_component_factory"]["calls"]
        misses = under("picard.degree_one_polarization",
                       ("snc.default_component_factory",))
        ratios = {
            # no attempt means nothing fell back
            "lattice.rank_mod_p.certified_ratio":
                1.0 - fallbacks / attempts if attempts else 1.0,
            "snc.component_cache_miss_ratio":
                misses / factory_calls if factory_calls else 0.0,
        }
        return table, ratios

    def write(self, path, table, ratios):
        """Store every span, one JSON line each, then the layer table, in
        one gzip'd file."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write(json.dumps({"span_fields": [
                "name", "start_s", "end_s", "parent", "op"]}) + "\n")
            for i in range(len(self.name)):
                fh.write(f'["{names[self.name[i]]}",'
                         f"{self.start[i] - self._t0:.9f},"
                         f"{self.end[i] - self._t0:.9f},"
                         f"{self.parent[i]},{self.op[i]}]\n")
            fh.write(json.dumps({"layers": table, "ratios": ratios}) + "\n")
