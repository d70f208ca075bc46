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

from . import fano, picard, poly, resolution, snc


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


def cmd_surface(args):
    if args.corners is not None and args.corners < 0:
        return _fail("--corners must be >= 0")
    if args.schedule:
        s = picard.standard_schedule()
        source = "schedule standard"
    else:
        s = picard.triangle_surface()
        for _ in range(args.corners):
            s = picard.blowup_corner(s, 0)
        source = f"corners {args.corners}"
    ok = True
    try:
        s.validate()
    except picard.InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        ok = False
    report = {
        "command": f"surface ({source})",
        "cycle_length": s.length,
        "picard_rank": s.dim,
        "self_intersections": list(s.self_intersections()),
        "canonical": list(s.canonical),
        "invariants": "ok" if ok else "FAILED",
    }
    if ok and all(c2 <= -2 for c2 in s.self_intersections()):
        h = picard.degree_one_polarization(s, picard.uniform_degree_seed(s))
        hint, mult = picard.clear_denominators(h)
        report["polarization"] = [str(x) for x in h]
        report["polarization_integral"] = list(hint)
        report["polarization_scale"] = mult
        report["polarization_degrees"] = [
            str(picard.dot(h, c)) for c in s.cycle]
    return _emit(args, report, ok)


def cmd_glue(args):
    try:
        with open(args.triangulation) as fh:
            tri = snc.Triangulation.from_json(fh.read())
        tri.validate()
    except (OSError, ValueError) as exc:
        return _fail(f"bad triangulation: {exc}")
    report = snc.glue_report(tri)
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


def cmd_fano(args):
    if args.r < 0 or (args.s is not None and args.s < 0):
        return _fail("--r and --s must be >= 0")
    if args.mmax < 1:
        return _fail("--mmax must be >= 1")
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


def cmd_resolve(args):
    if args.m < 1:
        return _fail("--m must be >= 1")
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
        results["codim_2x2_determinant"] = poly.rank_locus_codim_estimate(
            2, poly.SQUARE, ambient_dim=4, p=101, trials=20000, seed=seed)
        for n in (2, 3):
            results[f"codim_{n}x{n - 1}_rank_drop"] = (
                poly.rank_locus_codim_estimate(
                    n, poly.N_BY_N_MINUS_1,
                    ambient_dim=max(4, n * (n - 1)),
                    p=101, trials=20000, seed=seed))
    ok = (results.get("adjugate_failures", 0) == 0
          and results.get("adjoint_relation_failures", 0) == 0
          and results.get("chart_failures", 0) == 0
          and results.get("codim_2x2_determinant", 4) == 4
          and all(results.get(f"codim_{n}x{n - 1}_rank_drop", 2) == 2
                  for n in (2, 3)))
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
    g.add_argument("--corners", type=int, help="number of corner blow-ups")
    g.add_argument("--schedule", choices=["standard"],
                   help="named blow-up schedule")
    sp.set_defaults(func=cmd_surface)

    gp = sub.add_parser("glue", help="normal-crossing gluing report")
    gp.add_argument("--triangulation", required=True,
                    help="triangulation JSON file")
    gp.set_defaults(func=cmd_glue)

    fp = sub.add_parser("fano", help="glued Fano section report")
    fp.add_argument("--kind", choices=["zr", "zrs"], required=True)
    fp.add_argument("--r", type=int, required=True)
    fp.add_argument("--s", type=int)
    fp.add_argument("--mmax", type=int, default=3)
    fp.set_defaults(func=cmd_fano)

    rp = sub.add_parser("resolve", help="node resolution chain report")
    rp.add_argument("--m", type=int, required=True)
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
