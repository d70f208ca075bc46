"""Command-line front end: reproducible reports over the library kernels.

Every command prints a human-readable report (or JSON with --json) and
exits 0 exactly when all embedded assertions passed; rejected input ends in
one line on stderr and exit 1.  `main` returns the exit status.  `verify`,
the one randomized command, takes --seed (default 0); the environment
variable SNC_SEED overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

from . import fano, lattice, picard, poly, resolution, snc


def _fail(message):
    print(message, file=sys.stderr)
    return 1


def _emit(args, report, ok):
    report["seconds"] = round(time.perf_counter() - args.t0, 3)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        _pretty(report)
    return 0 if ok else 1


def _pretty(report, indent=0):
    pad = "  " * indent
    for key, val in report.items():
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _pretty(val, indent + 1)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{pad}{key}:")
            for item in val:
                _pretty(item, indent + 1)
        else:
            print(f"{pad}{key}: {val}")


# the largest --corners surface accepts: corner_surface(100,000) and its
# report take about 1 s and 80 MB
SURFACE_MAX_CORNERS = 100_000


def cmd_surface(args):
    if args.corners is not None and args.corners < 0:
        return _fail("--corners must be >= 0")
    if args.corners is not None and args.corners > SURFACE_MAX_CORNERS:
        return _fail(f"--corners must be <= {SURFACE_MAX_CORNERS}")
    if args.schedule:
        s = picard.standard_schedule()
        source = "schedule standard"
    else:
        s = picard.corner_surface(args.corners)
        source = f"corners {args.corners}"
    report = {
        "command": f"surface ({source})",
        "cycle_length": s.length,
        "picard_rank": s.dim,
        "self_intersections": list(s.self_intersections()),
        "canonical": list(s.canonical),
        "invariants": "ok",  # every CycleSurface is validated when made
    }
    if all(c2 <= -2 for c2 in s.self_intersections()):
        h = picard.degree_one_polarization(s, picard.uniform_degree_seed(s))
        hint, mult = lattice.clear_denominators(h)
        report["polarization"] = [str(x) for x in h]
        report["polarization_integral"] = list(hint)
        report["polarization_scale"] = mult
        report["polarization_degrees"] = [
            str(picard.dot(h, c)) for c in s.cycle]
    return _emit(args, report, True)


# the largest glue file accepted, checked after parsing and before any
# construction: a vertex of degree d becomes a component with an
# anticanonical cycle of length 3d, whose cold seed and polarization take
# 0.04 s at d = 100, 0.19 s at 200, 0.46 s at 300 and 0.93 s at 400, about
# 6e-6 d^2 s; one component is built per distinct degree, so the squares of
# the distinct degrees are summed too. The suspension of a 400-gon (two
# vertices of degree 400, sum 160,016) takes about 0.8 s, and a
# 20,000-triangle refinement of the Klein bottle (largest degree 218, sum
# 536,760) about 2.5 s and 75 MB. At the sum limit the costliest degrees,
# 400, 399, 398, 349 and 4, build in about 2.8 s
GLUE_MAX_TRIANGLES = 20_000
GLUE_MAX_DEGREE = 400
GLUE_MAX_DEGREE_SQUARES = 600_000


def cmd_glue(args):
    try:
        with open(args.triangulation) as fh:
            tri = snc.Triangulation.from_json(fh.read())
    except (OSError, ValueError) as exc:
        return _fail(f"bad triangulation: {exc}")
    if len(tri.triangles) > GLUE_MAX_TRIANGLES:
        return _fail(f"a triangulation may have at most {GLUE_MAX_TRIANGLES} "
                     f"triangles, got {len(tri.triangles)}")
    degrees = set(Counter(v for t in tri.triangles for v in t).values())
    degree = max(degrees, default=0)
    if degree > GLUE_MAX_DEGREE:
        return _fail(f"a vertex may lie in at most {GLUE_MAX_DEGREE} "
                     f"triangles, got {degree}")
    squares = sum(d * d for d in degrees)
    if squares > GLUE_MAX_DEGREE_SQUARES:
        return _fail(f"the squares of the distinct vertex degrees may sum to "
                     f"at most {GLUE_MAX_DEGREE_SQUARES}, got {squares}")
    try:
        # glue_report validates first, through dual_complex
        report = snc.glue_report(tri)
    except ValueError as exc:
        return _fail(f"bad triangulation: {exc}")
    ok = all(report[k] for k in ("cohomology_crosscheck",
                                 "abelianization_crosscheck"))
    report = {"command": f"glue {args.triangulation}", **report,
              "crosschecks": "ok" if ok else "FAILED"}
    return _emit(args, report, ok)


# Constants of the glued Fano series: Z_1 and Z_2 glued along a quadric
# surface S, with omega_Z = L^-2 and the cone taken over L itself.
R_OMEGA = -2  # omega_Z = L^R_OMEGA: the glued 3-folds have index 2
CONSTRUCTION_DEGREE = 1  # the construction at L = L^1; the node is then
# x1 x2 = s^(CONSTRUCTION_DEGREE - R_OMEGA) = s^3
H2_S = 2  # h^2 of the quadric S = P^1 x P^1
H2_C = 1  # h^2 of the curve C along which Z_2 is blown up


# the most glued sections fano builds in one degree, read from the
# fiber-product count at degree max(2, --mmax) before any basis is built:
# ZR(4995) at --mmax 2, ZR(1995) at 3 and ZR(0) at 30, each at this limit,
# take about 1 s; the cost grows up to the square of the count. ZR(0) has the
# fewest sections in every degree, so no --mmax above 30 can pass, and that
# cap comes first, since the count loops over the degree.
FANO_MAX_H0 = 20_000
FANO_MAX_MMAX = 30


def cmd_fano(args):
    if args.r < 0 or (args.s is not None and args.s < 0):
        return _fail("--r and --s must be >= 0")
    if args.mmax < 1:
        return _fail("--mmax must be >= 1")
    if args.mmax > FANO_MAX_MMAX:
        return _fail(f"--mmax must be <= {FANO_MAX_MMAX}")
    if args.kind == "zr":
        if args.s is not None:
            return _fail("zr takes no --s")
        z = fano.ZR(args.r)
        # ends ordered so that the P^2-bundle side carries the surjective
        # restriction onto S; the other end is P^3
        h2_ends = (1, 2)
        series_note = ("embedding dimension runs over r+6 >= 6; smaller "
                       "stated dimensions correspond to classical cones "
                       "outside this series")
    else:
        if args.s is None:
            return _fail("zrs needs --s")
        z = fano.ZRS(args.r, args.s)
        h2_ends = (2, 2)
        series_note = None
    if fano.fiber_product_h0(z, max(2, args.mmax)) > FANO_MAX_H0:
        return _fail(f"--r, --s and --mmax give more than {FANO_MAX_H0} "
                     "glued sections in degree max(2, mmax)")
    table = fano.h0_table(z, args.mmax)
    gen = fano.degree_one_generation(z, max(2, args.mmax))
    m_node = fano.cover_degree(R_OMEGA, CONSTRUCTION_DEGREE)
    chain = resolution.build_chain(m_node, h2_ends[0], H2_S, H2_C, h2_ends[1])
    ok = gen
    report = {
        "command": f"fano {args.kind} r={args.r}"
                   + (f" s={args.s}" if args.kind == "zrs" else ""),
        "h0_table": {str(m): v for m, v in table.items()},
        "embedding_dimension": table[1],
        "degree_one_generation": gen,
        "node_multiplicity": m_node,
        "class_rank_bound": chain.class_rank_bound,
        # K_Z = R_OMEGA L, so the cone over (Z, L) has index -R_OMEGA = 2 > 1;
        # Y canonical and Y - Z terminal, the statement's other two
        # hypotheses, are taken as given for the series
        "singularity": fano.classify_singularity(
            -R_OMEGA, y_canonical=True, y_minus_z_terminal=True),
    }
    if series_note:
        report["note"] = series_note
    return _emit(args, report, ok)


# the largest --m resolve accepts: its report lists all m + 1 chain
# members, about 9 MB of JSON at this limit
RESOLVE_MAX_M = 100_000


def cmd_resolve(args):
    if args.m < 1:
        return _fail("--m must be >= 1")
    if args.m > RESOLVE_MAX_M:
        return _fail(f"--m must be <= {RESOLVE_MAX_M}")
    try:
        h2 = [int(x) for x in args.h2.split(",")]
        if len(h2) != 4 or min(h2) < 0:
            raise ValueError
    except ValueError:
        return _fail("--h2 expects four nonnegative integers z1,s,c,z2")
    try:
        chain = resolution.build_chain(args.m, *h2)
    except resolution.AssumptionViolated as exc:
        return _fail(f"assumption violated: {exc}")
    report = {
        "command": f"resolve m={args.m}",
        "local_multiplicities": [step[0] for step in chain.trace[:-1]],
        "steps": [str(step) for step in chain.trace],
        "members": [{"kind": e.kind, "h2": e.h2} for e in chain.members],
        "h2_formula": chain.h2_total,
        "h2_members": chain.h2_crosscheck,
        "class_rank_bound": chain.class_rank_bound,
        "bound_clamped": chain.bound_clamped,
    }
    # build_chain raises AssumptionViolated when the two h^2 routes differ
    return _emit(args, report, True)


# the value each verify result must take for the suite to pass
VERIFY_EXPECTED = {"adjugate_failures": 0, "adjoint_relation_failures": 0,
                   "chart_failures": 0, "codim_2x2_determinant": 4,
                   "codim_2x1_rank_drop": 2, "codim_3x2_rank_drop": 2}


def cmd_verify(args):
    try:
        seed = int(os.environ.get("SNC_SEED", args.seed))
    except ValueError:
        return _fail("SNC_SEED must be an integer")
    results = {}
    if args.suite in ("adjugate", "all"):
        results["adjugate_failures"] = poly.fuzz_adjugate(seed=seed)
        results["adjoint_relation_failures"] = poly.fuzz_adjoint_relation(
            seed=seed)
    if args.suite in ("charts", "all"):
        results["chart_failures"] = poly.fuzz_blowup_charts(seed=seed)
    if args.suite in ("detvar", "all"):
        try:
            results["codim_2x2_determinant"] = poly.rank_locus_codim_estimate(
                2, poly.SQUARE, ambient_dim=4, p=101, trials=20000, seed=seed)
            for n in (2, 3):
                results[f"codim_{n}x{n - 1}_rank_drop"] = (
                    poly.rank_locus_codim_estimate(
                        n, poly.N_BY_N_MINUS_1,
                        ambient_dim=max(4, n * (n - 1)),
                        p=101, trials=20000, seed=seed))
        except poly.Indeterminate as exc:
            return _fail(f"verify seed={seed}: {exc}")
    ok = all(value == VERIFY_EXPECTED[key] for key, value in results.items())
    report = {"command": f"verify {args.suite} seed={seed}", **results,
              "verdict": "pass" if ok else "FAIL"}
    return _emit(args, report, ok)


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other rejected input: one line on
    stderr and exit 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(
        prog="sncgeom",
        description="Exact invariants of normal crossing surface gluings, "
                    "anticanonical-cycle lattices, and glued Fano sections.")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("surface", help="anticanonical-cycle surface report")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--corners", type=int,
                   help=f"number of corner blow-ups, 0 to "
                        f"{SURFACE_MAX_CORNERS}")
    g.add_argument("--schedule", choices=["standard"],
                   help="named blow-up schedule")
    sp.set_defaults(func=cmd_surface)

    gp = sub.add_parser("glue", help="normal-crossing gluing report")
    gp.add_argument("--triangulation", required=True,
                    help=f"triangulation JSON file, at most "
                         f"{GLUE_MAX_TRIANGLES} triangles, at most "
                         f"{GLUE_MAX_DEGREE} at any vertex, and at most "
                         f"{GLUE_MAX_DEGREE_SQUARES} summed over the "
                         f"squares of the distinct vertex degrees")
    gp.set_defaults(func=cmd_glue)

    fp = sub.add_parser("fano", help="glued Fano section report")
    fp.add_argument("--kind", choices=["zr", "zrs"], required=True)
    sizes = (f">= 0, with at most {FANO_MAX_H0} glued sections in degree "
             f"max(2, mmax)")
    fp.add_argument("--r", type=int, required=True, help=f"twist {sizes}")
    fp.add_argument("--s", type=int, help=f"second twist (zrs), {sizes}")
    fp.add_argument("--mmax", type=int, default=3,
                    help=f"top degree, 1 to {FANO_MAX_MMAX}")
    fp.set_defaults(func=cmd_fano)

    rp = sub.add_parser("resolve", help="node resolution chain report")
    rp.add_argument("--m", type=int, required=True,
                    help=f"node multiplicity, 1 to {RESOLVE_MAX_M}")
    rp.add_argument("--h2", required=True, metavar="Z1,S,C,Z2")
    rp.set_defaults(func=cmd_resolve)

    vp = sub.add_parser("verify", help="run the property/fuzz suites")
    vp.add_argument("--suite", choices=["adjugate", "charts", "detvar",
                                        "all"], default="all")
    vp.add_argument("--seed", type=int, default=0)
    vp.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error
        return exc.code
    args.t0 = time.perf_counter()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
