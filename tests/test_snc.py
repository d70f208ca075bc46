import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sncgeom import lattice, picard, snc

SURFACES = {
    "sphere": (snc.tetrahedron, (1, 0, 1), 1),
    "torus": (snc.torus_7, (1, 2, 1), 1),
    "projective_plane": (snc.rp2_6, (1, 0, 0), 2),
    "klein_bottle": (snc.klein_bottle, (1, 1, 0), 2),
    "genus2": (snc.genus2, (1, 4, 1), 1),
}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_triangulations_are_closed_manifolds(name):
    factory, _, _ = SURFACES[name]
    assert factory().validate()


def test_validate_rejects_boundary():
    t = snc.Triangulation(3, ((0, 1, 2),))
    with pytest.raises(snc.Boundary):
        t.validate()


@pytest.mark.parametrize("t", [
    snc.Triangulation(0, ()),
    snc.Triangulation(8, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                          (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7))),
])
def test_validate_rejects_empty_and_disconnected(t):
    with pytest.raises(ValueError):
        t.validate()


def test_validate_rejects_nonmanifold():
    # two spheres sharing one edge: edge {0,1} lies in four triangles
    t = snc.Triangulation(6, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                              (0, 1, 4), (0, 1, 5), (0, 4, 5), (1, 4, 5)))
    with pytest.raises((snc.NonManifold, ValueError)):
        t.validate()
        snc.dual_complex(t)


_TETRA = snc.tetrahedron().triangles


@pytest.mark.parametrize("t, message", [
    # a bowtie: two tetrahedra sharing vertex 0, whose link is two triangles
    (snc.Triangulation(7, _TETRA + tuple(tuple(v and v + 3 for v in tri)
                                         for tri in _TETRA)),
     r"^link of vertex 0 is disconnected$"),
    # the pillow: every edge lies in two triangles, both the same one
    (snc.Triangulation(3, ((0, 1, 2), (0, 1, 2))),
     r"^triangle \[0, 1, 2\] is repeated$"),
], ids=["bowtie", "pillow"])
def test_validate_rejects_pinched_links(t, message):
    with pytest.raises(snc.NonManifold, match=message):
        t.validate()


def test_validate_names_smallest_isolated_vertex_in_bounded_memory():
    """An isolated vertex is reported as the smallest unused id, and
    nothing of the declared vertex count's size is built to find it."""
    skip2 = tuple(tuple(v + (v >= 2) for v in tri)
                  for tri in snc.tetrahedron().triangles)
    with pytest.raises(snc.NonManifold, match="^isolated vertex 2$"):
        snc.Triangulation(5, skip2).validate()
    t = snc.Triangulation(10**6, snc.tetrahedron().triangles)
    tracemalloc.start()
    try:
        with pytest.raises(snc.NonManifold, match="^isolated vertex 4$"):
            t.validate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_euler_characteristic_consistency(name):
    factory, (h0, h1, h2), _ = SURFACES[name]
    t = factory()
    d = snc.dual_complex(t)
    assert d.euler_characteristic() == t.euler_characteristic()


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_structure_cohomology_vs_simplicial_oracle(name):
    factory, expected, _ = SURFACES[name]
    t = factory()
    coh = snc.structure_cohomology(snc.dual_complex(t))
    oracle, _ = snc.simplicial_homology(t)
    assert coh == expected == oracle


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_canonical_order(name):
    factory, _, order = SURFACES[name]
    assert snc.canonical_order(snc.dual_complex(factory())) == order


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_canonical_order_stable_under_refinement(name):
    factory, _, order = SURFACES[name]
    for seed in range(3):
        t = snc.refine_random(factory(), 5, seed=seed)
        t.validate()
        assert snc.canonical_order(snc.dual_complex(t)) == order


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_abelianization_vs_oracle(name):
    factory, _, _ = SURFACES[name]
    t = factory()
    pres = snc.fundamental_group(snc.dual_complex(t))
    assert oracles.validate_presentation(pres)
    ab = snc.abelianization(pres)
    _, oracle = snc.simplicial_homology(t)
    assert ab == oracle


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SURFACES)), splits=st.integers(0, 12),
       seed=st.integers(0, 2**16))
def test_dual_complex_readers_vs_simplicial_oracle(name, splits, seed):
    """Orientability, loop group, cohomology and cell counts read off the
    signed side table agree with the simplicial chain complex on refined
    surfaces, and the cohomology with elimination on the dual boundaries."""
    factory, _, order = SURFACES[name]
    t = snc.refine_random(factory(), splits, seed)
    d = snc.dual_complex(t)
    h, oracle = snc.simplicial_homology(t)
    assert snc.canonical_order(d) == 2 - h[2] == order
    assert snc.structure_cohomology(d) == oracles.dual_cohomology(d) == h
    assert snc.abelianization(snc.fundamental_group(d)) == oracle
    assert (len(d.polygons), len(d.curves), d.triangle_count) == (
        t.vertex_count, len(t.edges()), len(t.triangles))
    # each double curve is a side of exactly the two polygons at its ends
    assert set(d.curves) == t.edges()
    assert all(v in edge for v, signs in d.polygons.items()
               for edge in signs)
    assert sum(map(len, d.polygons.values())) == 2 * len(d.curves)


def test_rp2_torsion():
    pres = snc.fundamental_group(snc.dual_complex(snc.rp2_6()))
    ab = snc.abelianization(pres)
    assert ab.free_rank == 0 and ab.torsion == (2,)


def test_triangulation_json_roundtrip():
    t = snc.torus_7()
    assert snc.Triangulation.from_json(t.to_json()).triangles == t.triangles


def test_from_json_rejects_deeply_nested_brackets():
    # json.loads raises RecursionError here; from_json promises ValueError
    with pytest.raises(ValueError, match="nested too deeply"):
        snc.Triangulation.from_json("[" * 100_000)


def test_assemble_components_and_identifications():
    d = snc.dual_complex(snc.tetrahedron())
    z = snc.assemble(d)
    assert len(z.components) == 4
    for surf, h in z.components.values():
        assert surf.length == 3 * 3  # refinement 3, triangle degree 3
        from sncgeom import picard
        assert all(picard.dot(h, c) == 1 for c in surf.cycle)
    for edge, ((u, i), (w, j)) in z.curve_identifications.items():
        assert (u, w) == tuple(sorted(edge))
        assert i % 3 == 1 and j % 3 == 1  # middle curve of each side


def test_assemble_rejects_bad_factory(monkeypatch):
    d = snc.dual_complex(snc.tetrahedron())
    from sncgeom import picard

    def bad_factory(n):
        s = picard.cycle_surface(n + 3)
        return s, picard.degree_one_polarization(
            s, picard.uniform_degree_seed(s))

    monkeypatch.setattr(snc, "default_component_factory", bad_factory)
    with pytest.raises(snc.CycleLengthMismatch):
        snc.assemble(d)


def test_loop_kernel_classes_fully_marked():
    for factory in (snc.tetrahedron, snc.torus_7, snc.rp2_6):
        d = snc.dual_complex(factory())
        z = snc.assemble(d)
        assert snc.loop_kernel_classes(z) == 1


def test_loop_kernel_classes_no_markings():
    d = snc.dual_complex(snc.tetrahedron())
    z = snc.assemble(d, node_markings=[])
    assert snc.loop_kernel_classes(z) == len(d.polygons)


def test_loop_kernel_classes_partial_markings():
    d = snc.dual_complex(snc.tetrahedron())
    some_edge = next(iter(d.curves))
    z = snc.assemble(d, node_markings=[some_edge])
    assert snc.loop_kernel_classes(z) == len(d.polygons) - 1


def test_glue_report_crosschecks():
    r = snc.glue_report(snc.klein_bottle())
    assert r["cohomology_crosscheck"]
    assert r["abelianization_crosscheck"]
    assert r["canonical_order"] == 2
    assert r["loop_kernel_classes"] == 1


def test_refine_random_preserves_invariants():
    t = snc.refine_random(snc.torus_7(), 10, seed=4)
    t.validate()
    assert t.euler_characteristic() == 0
    (h, _) = snc.simplicial_homology(t)
    assert h == (1, 2, 1)


def _dense(rows, width):
    """The sparse {column: entry} rows as a dense list of lists."""
    return [[row.get(c, 0) for c in range(width)] for row in rows]


def _boundary_pairs(t):
    """(sparse rows, column count) of both simplicial boundaries and of
    both dual-complex boundaries of a triangulation."""
    d = snc.dual_complex(t)
    s1, s2, s_edges = snc.simplicial_boundaries(t)
    b1, b2, edges = oracles.dual_boundaries(d)
    return [(s1, len(s_edges)), (s2, len(s_edges)),
            (b1, len(edges)), (b2, len(edges))]


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_smith_invariants_match_sympy(name):
    """Optional oracle: the nonzero invariant factors of both simplicial
    boundaries agree with sympy's Smith form, up to sign, and with the
    unit-pivot invariant factors of the sparse rows."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    t = SURFACES[name][0]()
    for rows, width in _boundary_pairs(t)[:2]:
        d = _dense(rows, width)
        dense = oracles.smith_normal_form(d)
        assert dense.check(d)
        assert lattice.smith_normal_form(d) == dense.diagonal
        ours = [x for x in dense.diagonal if x]
        snf = smith_normal_form(sympy.Matrix(d), domain=sympy.ZZ)
        theirs = [abs(int(snf[i, i])) for i in range(min(snf.shape))
                  if snf[i, i]]
        assert ours == theirs == lattice.invariant_factors(rows)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_sparse_boundary_ranks_match_dense_rank(name):
    base = SURFACES[name][0]()
    for t in [base] + [snc.refine_random(base, 12, seed=s) for s in range(2)]:
        for rows, width in _boundary_pairs(t):
            assert lattice.sparse_rank(rows) == oracles.rank(
                _dense(rows, width))


def test_degree_guard_rejects_degree_two_on_first_curve(monkeypatch):
    """h + (C_1 + C_last)/2 has degree 2 on C_0, with a denominator."""
    from fractions import Fraction

    good = snc.default_component_factory

    def factory(n):
        s, h = good(n)
        c1, clast = s.cycle[1], s.cycle[-1]
        bad = tuple(Fraction(x) + Fraction(y + z, 2)
                    for x, y, z in zip(h, c1, clast))
        assert picard.dot(bad, s.cycle[0]) == 2
        return s, bad

    monkeypatch.setattr(snc, "default_component_factory", factory)
    with pytest.raises(snc.PolarizationDegreeMismatch):
        snc.glue_report(snc.tetrahedron())
