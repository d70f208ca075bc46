"""Acceptance gate: one test per headline claim, one pass/fail line each.

Each test enforces both the exact expected values and its wall-clock
budget; run with `pytest -v tests/test_acceptance.py -s` to see the lines.
"""

import itertools
import random
import time

from sncgeom import fano, picard, poly, resolution, snc


def _report(number, description, ok, seconds, budget):
    status = "PASS" if ok and seconds < budget else "FAIL"
    print(f"[{status}] criterion {number}: {description} "
          f"({seconds:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} value check failed"
    assert seconds < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_01_zr_section_counts():
    t0 = time.perf_counter()
    ok = all(fano.glued_h0(fano.ZR(r), 1) == r + 6 for r in range(21))
    _report(1, "glued degree-1 sections of the bundle/quadric series "
               "equal r+6 for r=0..20", ok, time.perf_counter() - t0, 5)


def test_criterion_02_zrs_section_counts():
    t0 = time.perf_counter()
    ok = all(fano.glued_h0(fano.ZRS(r, s), 1) == r + s + 8
             for r in range(11) for s in range(11))
    _report(2, "glued degree-1 sections of the two-bundle series equal "
               "r+s+8 for r,s=0..10", ok, time.perf_counter() - t0, 10)


def test_criterion_03_quadric_kernel():
    t0 = time.perf_counter()
    z0 = fano.ZR(0)
    ok = (fano.glued_h0(z0, 2) == 19
          and fano.quadric_kernel_dim(z0) == 2)
    _report(3, "first member of the series has h0(L^2)=19 and lies on "
               "exactly 2 quadrics (a (2,2) intersection)", ok,
            time.perf_counter() - t0, 2)


def test_criterion_04_degree_one_generation():
    t0 = time.perf_counter()
    ok = all(fano.degree_one_generation(fano.ZR(r), 3) for r in range(6))
    ok = ok and all(fano.degree_one_generation(fano.ZRS(r, s), 3)
                    for r in range(5) for s in range(5))
    _report(4, "degree-1 sections generate the section ring through "
               "degree 3 (r<=5 and r,s<=4)", ok,
            time.perf_counter() - t0, 60)


def test_criterion_05_class_rank_bounds():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 13):
        ok = ok and resolution.build_chain(m, 1, 2, 1, 2).class_rank_bound == 0
        ok = ok and resolution.build_chain(m, 2, 2, 1, 2).class_rank_bound == 1
    _report(5, "class-group rank bound is 0 for the quadric-ended series "
               "and 1 for the two-bundle series, m=1..12", ok,
            time.perf_counter() - t0, 1)


def test_criterion_06_cohomology_vs_oracle():
    t0 = time.perf_counter()
    cases = {
        snc.tetrahedron: ((1, 0, 1), (0, ())),
        snc.torus_7: ((1, 2, 1), (2, ())),
        snc.rp2_6: ((1, 0, 0), (0, (2,))),
        snc.klein_bottle: ((1, 1, 0), (1, (2,))),
        snc.genus2: ((1, 4, 1), (4, ())),
    }
    ok = True
    for factory, (coh_want, (free, torsion)) in cases.items():
        t = factory()
        d = snc.dual_complex(t)
        coh = snc.structure_cohomology(d)
        oracle, oab = snc.simplicial_homology(t)
        ab = snc.abelianization(snc.fundamental_group(d))
        ok = ok and coh == coh_want == oracle
        ok = ok and ab == oab
        ok = ok and (ab.free_rank, ab.torsion) == (free, torsion)
    _report(6, "structure cohomology and abelianized loop group of the "
               "five reference surfaces match the simplicial oracle "
               "(incl. Z/2 of the projective plane)", ok,
            time.perf_counter() - t0, 5)


def test_criterion_07_orientability():
    t0 = time.perf_counter()
    orientable = {snc.tetrahedron: 1, snc.torus_7: 1, snc.rp2_6: 2,
                  snc.klein_bottle: 2, snc.genus2: 1}
    ok = all(snc.canonical_order(snc.dual_complex(f())) == want
             for f, want in orientable.items())
    for i in range(20):
        base, want = random.Random(i).choice(list(orientable.items()))
        t = snc.refine_random(base(), 1 + i % 7, seed=i)
        ok = ok and snc.canonical_order(snc.dual_complex(t)) == want
    _report(7, "canonical-sheaf order is 1 exactly on orientable "
               "gluings, 2 otherwise (5 surfaces + 20 refinements)", ok,
            time.perf_counter() - t0, 30)


def test_criterion_08_anticanonical_cycle_invariant():
    t0 = time.perf_counter()
    ok = True
    for case in range(1000):
        rng = random.Random(case)
        s = picard.triangle_surface()
        for _ in range(rng.randint(0, 20)):
            s = picard.blowup_corner(s, rng.randrange(s.length))
        total = [sum(c[i] for c in s.cycle) for i in range(s.dim)]
        ok = ok and tuple(total) == tuple(-x for x in s.canonical)
        ok = ok and s.validate()
    std = picard.standard_schedule()
    h = picard.degree_one_polarization(std, picard.uniform_degree_seed(std))
    ok = ok and all(picard.dot(h, c) == 1 for c in std.cycle)
    _report(8, "cycle sum equals the anticanonical class over 1000 "
               "fuzzed blow-up sequences; degree-1 polarization exact on "
               "the reference surface", ok, time.perf_counter() - t0, 30)


def test_criterion_09_adjugate_and_chart_suites():
    t0 = time.perf_counter()
    ok = (poly.fuzz_adjugate(cases=200, seed=0) == 0
          and poly.fuzz_adjoint_relation(cases=200, seed=0) == 0
          and poly.fuzz_blowup_charts(cases=100, seed=0) == 0)
    _report(9, "adjugate identity (200 cases), adjoint-relation residual "
               "(200 cases) and blow-up chart divisibility (100 cases) "
               "all exact", ok, time.perf_counter() - t0, 120)


def test_criterion_10_mayer_vietoris_crosscheck():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 13):
        for h2 in itertools.product(range(1, 6), repeat=4):
            h2_z1, h2_s, h2_c, h2_z2 = h2
            if h2_z2 < h2_s:
                # the surjectivity hypothesis is unsatisfiable here
                try:
                    resolution.build_chain(m, *h2)
                    ok = False
                except resolution.AssumptionViolated:
                    pass
                continue
            rep = resolution.build_chain(m, *h2)
            ok = ok and rep.h2_total == rep.h2_crosscheck
    _report(10, "second Betti number of the chain union from the chain "
                "members equals the one from Z1 u_S Z2 plus the exceptional "
                "count of the local blow-ups for m<=12, inputs in [1..5]^4",
            ok, time.perf_counter() - t0, 10)


def test_criterion_11_loop_kernel_classes():
    t0 = time.perf_counter()
    ok = True
    for factory in (snc.tetrahedron, snc.torus_7, snc.rp2_6,
                    snc.klein_bottle, snc.genus2):
        d = snc.dual_complex(factory())
        ok = ok and snc.loop_kernel_classes(snc.assemble(d)) == 1
        ok = ok and (snc.loop_kernel_classes(
            snc.assemble(d, node_markings=[])) == len(d.polygons))
    _report(11, "loop classes collapse to 1 with all nodes marked and "
                "stay one-per-component with none marked", ok,
            time.perf_counter() - t0, 60)


def test_criterion_12_determinantal_codimensions():
    t0 = time.perf_counter()
    ok = poly.rank_locus_codim_estimate(
        2, poly.SQUARE, ambient_dim=4, p=101, trials=50000, seed=0) == 4
    ok = ok and poly.rank_locus_codim_estimate(
        2, poly.N_BY_N_MINUS_1, ambient_dim=4, p=101,
        trials=30000, seed=0) == 2
    ok = ok and poly.rank_locus_codim_estimate(
        3, poly.N_BY_N_MINUS_1, ambient_dim=6, p=101,
        trials=30000, seed=0) == 2
    _report(12, "codimension over F_101, counted exactly over every "
                "kernel direction: 4 for the singular locus of a 2x2 "
                "determinant, 2 for the nx(n-1) rank-drop loci", ok,
            time.perf_counter() - t0, 60)
