"""Seeded op lists for the four benchmark workloads.

Each workload is one pass: a list of ops that the timed loop repeats. An op
holds its inputs (``key``, used to compare two generations), a zero-argument
``run`` that calls into the library, and a ``check`` that compares the
result with a value obtained by a second route: a closed form, the
benchmark's own arithmetic, or a constant the mathematics fixes. A check
never compares the timed call's output with itself.

Within a workload the ops spread over many distinct input sizes, so the
median and the 90th percentile of op latency fall inside a cluster of
samples instead of on the step between two size classes.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple

from sncgeom import fano, picard, poly, resolution, snc


class Op(NamedTuple):
    key: tuple
    run: Callable
    check: Callable


# -- glue ------------------------------------------------------------------

# A vertex of degree d becomes a component with an anticanonical cycle of
# length 3 * d. Degree <= 7 keeps the cold polarizations of refinements at
# cycle length <= 21; genus2's three degree-10 vertices add one of length 30.
MAX_DEGREE = 7

# (name, constructor, orientable): refine_random keeps orientability and
# the Euler characteristic, so both come from the base surface.
REFERENCE_SURFACES = (
    ("tetrahedron", snc.tetrahedron, True),
    ("torus_7", snc.torus_7, True),
    ("rp2_6", snc.rp2_6, False),
    ("klein_bottle_4", lambda: snc.klein_bottle(4), False),
    ("genus2", snc.genus2, True),
)
KLEIN_GRIDS = (3, 5, 6)
# (base, number of 1-to-3 splits); every slot has at least a few percent of
# refine_random seeds that keep all vertex degrees <= MAX_DEGREE.
REFINE_SLOTS = (
    ("tetrahedron", 1), ("tetrahedron", 2), ("tetrahedron", 3),
    ("tetrahedron", 4), ("tetrahedron", 5),
    ("rp2_6", 1), ("rp2_6", 2), ("rp2_6", 3),
    ("torus_7", 1), ("torus_7", 2),
    ("klein_bottle_3", 1), ("klein_bottle_3", 2),
    ("klein_bottle_4", 1), ("klein_bottle_4", 2), ("klein_bottle_4", 3),
    ("klein_bottle_5", 1), ("klein_bottle_5", 2), ("klein_bottle_5", 3),
)


def _max_degree(t):
    degree = {}
    for tri in t.triangles:
        for v in tri:
            degree[v] = degree.get(v, 0) + 1
    return max(degree.values())


def _closed_surface_report(t, orientable):
    """glue_report as the classification of closed surfaces predicts it,
    from V - E + T and orientability alone."""
    edges = {frozenset(pair) for tri in t.triangles
             for pair in itertools.combinations(tri, 2)}
    v, e, f = t.vertex_count, len(edges), len(t.triangles)
    chi = v - e + f
    b1 = (2 if orientable else 1) - chi
    b2 = 1 if orientable else 0
    return {
        "euler_characteristic": chi,
        "cohomology": [1, b1, b2],
        "cohomology_simplicial_oracle": [1, b1, b2],
        "cohomology_crosscheck": True,
        "abelianization": {"free_rank": b1,
                           "torsion": [] if orientable else [2]},
        "abelianization_crosscheck": True,
        "canonical_order": 1 if orientable else 2,
        "loop_kernel_classes": 1,
        "components": v,
        "double_curves": e,
        "triple_points": f,
    }


def _glue_op(label, t, orientable):
    expected = _closed_surface_report(t, orientable)
    return Op(key=("glue", label, t.vertex_count, t.triangles),
              run=lambda: snc.glue_report(t),
              check=lambda report: report == expected)


def glue_ops(rng):
    bases = {name: (make(), orientable)
             for name, make, orientable in REFERENCE_SURFACES}
    for n in (3, 4, 5):
        bases[f"klein_bottle_{n}"] = (snc.klein_bottle(n), False)
    ops = [_glue_op(name, *bases[name]) for name, _, _ in REFERENCE_SURFACES]
    ops += [_glue_op(f"klein_bottle_{n}", snc.klein_bottle(n), False)
            for n in KLEIN_GRIDS]
    for base, splits in REFINE_SLOTS:
        t0, orientable = bases[base]
        for _ in range(10_000):
            t = snc.refine_random(t0, splits, seed=rng.randrange(2 ** 31))
            if _max_degree(t) <= MAX_DEGREE:
                break
        else:
            raise RuntimeError(f"no refinement of {base} with {splits} "
                               f"splits keeps vertex degree <= {MAX_DEGREE}")
        ops.append(_glue_op(f"{base}+{splits}", t, orientable))
    rng.shuffle(ops)
    return ops


# -- surface ---------------------------------------------------------------

CYCLE_LENGTHS = range(6, 19)


def _pairing(a, b):
    """The intersection form of the blown-up plane, H^2 = 1, E_i^2 = -1;
    the benchmark's own, so the check does not go through picard.dot."""
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def _polarize(m):
    s = picard.cycle_surface(m)
    return s, picard.degree_one_polarization(s, picard.uniform_degree_seed(s))


def _is_degree_one_polarization(m, result):
    s, h = result
    return (s.length == m and all(_pairing(h, c) == 1 for c in s.cycle)
            and _pairing(h, h) > 0)


def surface_ops(rng):
    ms = list(CYCLE_LENGTHS)
    rng.shuffle(ms)
    return [Op(key=("surface", m), run=lambda m=m: _polarize(m),
               check=lambda res, m=m: _is_degree_one_polarization(m, res))
            for m in ms]


# -- fano ------------------------------------------------------------------

FANO_MMAX = 3
# node multiplicity of the contracted cone: omega = L^-2, construction at L
NODE_MULTIPLICITY = fano.cover_degree(-2, 1)


def _fano_report(z, h2_ends):
    table = fano.h0_table(z, FANO_MMAX)
    generated = fano.degree_one_generation(z, FANO_MMAX)
    chain = resolution.build_chain(NODE_MULTIPLICITY, h2_ends[0], 2, 1,
                                   h2_ends[1])
    return table, generated, chain.class_rank_bound


def _fano_op(kind, r, s, swap):
    if kind == "zr":
        z, h2_ends, h0, bound = fano.ZR(r, swap=swap), (1, 2), r + 6, 0
    else:
        z, h2_ends, h0, bound = fano.ZRS(r, s, swap=swap), (2, 2), r + s + 8, 1

    def check(result):
        table, generated, rank_bound = result
        return (sorted(table) == list(range(1, FANO_MMAX + 1))
                and table[1] == h0 and generated is True
                and rank_bound == bound)

    return Op(key=("fano", kind, r, s, swap),
              run=lambda: _fano_report(z, h2_ends), check=check)


def fano_ops(rng):
    configs = [("zr", r, None) for r in range(9)]
    configs += [("zrs", r, s) for r in range(9) for s in range(5)
                if r + s <= 6]
    ops = [_fano_op(kind, r, s, rng.random() < 0.5) for kind, r, s in configs]
    rng.shuffle(ops)
    return ops


# -- verify ----------------------------------------------------------------

CODIM_P = 101
# (n, shape, ambient dimension, codimension of the locus for generic forms)
CODIM_SHAPES = (
    (2, poly.SQUARE, 4, 4),
    (2, poly.N_BY_N_MINUS_1, 4, 2),
    (3, poly.N_BY_N_MINUS_1, 6, 2),
)
H2_RANGE = range(1, 6)
# The sweeps are the costliest ops, their cost does not depend on the seed,
# and neighbouring multiplicities differ by about 10 %. Three per
# multiplicity make them 16 % of a pass, so the 90th percentile falls well
# inside them rather than on their border with the fuzz batches.
MV_MULTIPLICITIES = range(10, 15)
# With 4x4 polynomial matrices allowed, one seed's adjugate batches cost 3x
# another's; at 3x3 the pass total varies by about 20 %.
ADJUGATE_MAX_SIZE = 3
# A fuzz batch's cost depends on the sizes its seed draws. Three seeded
# batches per size give the median a wider sample of them, so it moves less
# from one workload seed to the next.
FUZZ_DRAWS = 3


def _rank_mod(rows, p):
    """Rank over F_p; the benchmark's own, not lattice.rank_mod_p."""
    a = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _square_2x2_codim(seed, ambient_dim, p):
    """Exact codimension of {M = 0} for the 2x2 matrix of affine forms the
    estimator draws first from random.Random(seed), or None when the four
    forms have no common zero over F_p. For about one seed in a hundred the
    linear part is singular mod p, and the estimator then rightly finds no
    point (Indeterminate) or a larger locus."""
    rng = random.Random(seed)
    forms = [[rng.randrange(p) for _ in range(ambient_dim + 1)]
             for _ in range(4)]
    linear = _rank_mod([f[:ambient_dim] for f in forms], p)
    if _rank_mod(forms, p) > linear:
        return None
    return linear


def _codim_op(n, shape, ambient_dim, generic_codim, trials, seed):
    expected = generic_codim
    if shape == poly.SQUARE:
        expected = _square_2x2_codim(seed, ambient_dim, CODIM_P)

    def run():
        try:
            return poly.rank_locus_codim_estimate(
                n, shape, ambient_dim=ambient_dim, p=CODIM_P, trials=trials,
                seed=seed)
        except poly.Indeterminate:
            return None

    return Op(key=("verify", "codim", n, shape, trials, seed), run=run,
              check=lambda codim: codim == expected)


def _mayer_vietoris_sweep(m, seed):
    """Mismatches of build_chain against the closed Betti formula over
    h2 in [1..5]^4; h2_z2 < h2_s must raise AssumptionViolated."""
    bad = 0
    for z1, s, c, z2 in itertools.product(H2_RANGE, repeat=4):
        try:
            chain = resolution.build_chain(m, z1, s, c, z2, seed=seed)
        except resolution.AssumptionViolated:
            bad += z2 >= s
            continue
        total = z1 + z2 - s + c + (m - 1)
        bad += (z2 < s or chain.h2_total != total
                or chain.h2_crosscheck != total
                or chain.class_rank_bound != max(0, total - (m + 1)))
    return bad


def _fuzz_op(name, fuzz, cases, seed, **options):
    return Op(key=("verify", name, cases, seed),
              run=lambda: fuzz(cases=cases, seed=seed, **options),
              check=lambda failures: failures == 0)


def _sweep_op(m, seed):
    return Op(key=("verify", "mayer_vietoris", m, seed),
              run=lambda: _mayer_vietoris_sweep(m, seed),
              check=lambda bad: bad == 0)


def verify_ops(rng):
    def seed():
        return rng.randrange(2 ** 31)

    def fuzz(name, fn, sizes, **options):
        return [_fuzz_op(name, fn, cases, seed(), **options)
                for cases in sizes for _ in range(FUZZ_DRAWS)]

    kinds = [
        fuzz("adjugate", poly.fuzz_adjugate, range(16, 80, 8),
             max_size=ADJUGATE_MAX_SIZE),
        fuzz("adjoint_relation", poly.fuzz_adjoint_relation,
             range(20, 100, 10)),
        fuzz("charts", poly.fuzz_blowup_charts, range(20, 100, 10)),
        [_codim_op(*shape, trials, seed())
         for trials in (800, 1000, 1200) for shape in CODIM_SHAPES],
        [_sweep_op(m, seed()) for m in MV_MULTIPLICITIES for _ in range(3)],
    ]
    for kind in kinds:
        rng.shuffle(kind)
    # rotate through the kinds: one op of each in turn
    return [op for group in itertools.zip_longest(*kinds) for op in group
            if op is not None]


WORKLOADS = {
    "glue": glue_ops,
    "surface": surface_ops,
    "fano": fano_ops,
    "verify": verify_ops,
}


def generate(workload, seed):
    """The op list of one pass of a workload; equal seeds give equal lists."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
