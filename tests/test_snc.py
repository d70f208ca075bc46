import re
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


_TETRA = snc.tetrahedron().triangles


def test_validate_rejects_nonmanifold():
    # two spheres sharing one edge: edge {0,1} lies in four triangles; a
    # sphere with a fin: edge {0,1} lies in three triangles
    for t in (snc.Triangulation(6, ((0, 1, 2), (0, 1, 3), (0, 2, 3),
                                    (1, 2, 3), (0, 1, 4), (0, 1, 5),
                                    (0, 4, 5), (1, 4, 5))),
              snc.Triangulation(5, _TETRA + ((0, 1, 4),))):
        with pytest.raises(snc.NonManifold, match=r"^edge \[0, 1\] lies in"):
            t.validate()


@pytest.mark.parametrize("t, message", [
    # a bowtie: two tetrahedra sharing vertex 0, whose link is two triangles
    (snc.Triangulation(7, _TETRA + tuple(tuple(v and v + 3 for v in tri)
                                         for tri in _TETRA)),
     r"^link of vertex 0 is disconnected$"),
    # the pillow: every edge lies in two triangles, both the same one
    (snc.Triangulation(3, ((0, 1, 2), (0, 1, 2))),
     r"^triangle \[0, 1, 2\] is repeated$"),
    # three distinct ids in a triangle of the wrong length
    (snc.Triangulation(4, ((0, 1, 2, 2),) + _TETRA[1:]),
     r"^degenerate triangle \(0, 1, 2, 2\)$"),
    (snc.Triangulation(4, ((0, 1),) + _TETRA[1:]),
     r"^degenerate triangle \(0, 1\)$"),
], ids=["bowtie", "pillow", "four_entries", "two_entries"])
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
        assert all(picard.dot(h, c) == 1 for c in surf.cycle)
    for edge, ((u, i), (w, j)) in z.curve_identifications.items():
        assert (u, w) == tuple(sorted(edge))
        assert i % 3 == 1 and j % 3 == 1  # middle curve of each side
    # every polygon of one cycle length shares one cached component
    z = snc.assemble(snc.dual_complex(snc.refine_random(snc.torus_7(), 12)))
    by_length = {}
    for v, signs in z.dual.polygons.items():
        by_length.setdefault(len(signs), []).append(z.components[v])
    assert any(len(shared) > 1 for shared in by_length.values())
    for n, shared in by_length.items():
        assert all(c is snc._FACTORY_CACHE[3 * n] for c in shared)


def test_degree_guard_fires_through_glue(monkeypatch):
    """A polarization off by one curve class is refused by picard's exit
    check, and the factory caches nothing for that length. The length-9
    cycle is not all -2, so the solve goes through `_cyclic_adjugate`."""
    monkeypatch.delitem(snc._FACTORY_CACHE, 9, raising=False)
    good = picard._cyclic_adjugate

    def off_by_one(sq):
        det, adj_1 = good(sq)
        return det, [adj_1[0] + det] + adj_1[1:]

    monkeypatch.setattr(picard, "_cyclic_adjugate", off_by_one)
    with pytest.raises(picard.InvariantError, match="degree is not 1"):
        snc.glue_report(snc.tetrahedron())
    assert 9 not in snc._FACTORY_CACHE


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


@pytest.mark.parametrize("t, marking", [
    # not an edge of the 4 x 4 grid: it used to merge polygons 0 and 10
    (snc.klein_bottle(4), frozenset((0, 10))),
    (snc.klein_bottle(4), (0, 10)),
    # an edge key with its vertices out of order is not a key
    (snc.klein_bottle(4), (1, 0)),
    # vertex 9 is not on the tetrahedron: it used to end in KeyError: 9
    (snc.tetrahedron(), frozenset((0, 9))),
], ids=["klein-frozenset", "klein-non-edge", "reversed", "tetra-frozenset"])
def test_assemble_rejects_markings_off_the_double_curves(t, marking):
    d = snc.dual_complex(t)
    first = next(iter(d.curves))
    with pytest.raises(ValueError, match="^node marking " +
                       re.escape(repr(marking)) + " is not a double curve$"):
        snc.assemble(d, node_markings=[first, marking, (0, 9)])


def test_edge_keys_are_sorted_vertex_pairs():
    """The triangulation, the dual complex and the simplicial boundaries
    key every edge by one (a, b) pair with a < b; the boundaries list them
    in sorted order, which fixes their columns."""
    for factory, _, _ in SURFACES.values():
        t = snc.refine_random(factory(), 6, seed=1)
        keys = t.edges()
        assert all(type(e) is tuple and e[0] < e[1] for e in keys)
        assert set(snc.dual_complex(t).curves) == keys
        assert oracles.simplicial_boundaries(t)[2] == sorted(keys)


def test_simplicial_route_calls_no_sparse_rank(monkeypatch):
    """Both simplicial ranks come from unit-pivot invariant factors."""
    def refuse(vectors):
        raise AssertionError("sparse_rank called")

    monkeypatch.setattr(lattice, "sparse_rank", refuse)
    for factory, expected, _ in SURFACES.values():
        t = factory()
        h, ab = snc.simplicial_homology(t)
        assert h == expected
        assert ab == snc.abelianization(
            snc.fundamental_group(snc.dual_complex(t)))
        assert snc.glue_report(t)["cohomology_crosscheck"]


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(SURFACES)), splits=st.integers(0, 12),
       seed=st.integers(0, 2**16),
       other=st.none() | st.sampled_from(sorted(SURFACES)),
       gaps=st.lists(st.integers(0, 60), max_size=3),
       turn=st.integers(0, 2))
def test_forest_reduction_matches_full_boundaries(name, splits, seed, other,
                                                  gaps, turn):
    """The spanning-forest route gives the full route's (h0, h1, h2) and
    H_1 invariants on refined surfaces, on disjoint unions of two surfaces
    and with unused vertex ids anywhere, whatever order each triangle
    lists its vertices in."""
    t = snc.refine_random(SURFACES[name][0](), splits, seed)
    tris, n = list(t.triangles), t.vertex_count
    if other is not None:
        tris += [tuple(v + n for v in tri)
                 for tri in SURFACES[other][0]().triangles]
        n += SURFACES[other][0]().vertex_count
    for gap in sorted(gaps, reverse=True):  # leave id `gap` unused
        tris = [tuple(v + (v >= gap) for v in tri) for tri in tris]
        n += 1
    t = snc.Triangulation(n, tuple(tri[turn:] + tri[:turn] for tri in tris))
    assert snc.simplicial_homology(t) == oracles.simplicial_homology(t)


def test_forest_reduction_matches_full_boundaries_at_scale():
    t = snc.refine_random(snc.klein_bottle(6), 6400, seed=2)
    assert len(t.triangles) == 12_872
    klein = ((1, 1, 0), snc.AbelianInvariants(free_rank=1, torsion=(2,)))
    assert snc.simplicial_homology(t) == klein
    assert oracles.simplicial_homology(t) == klein


def test_simplicial_homology_calls_invariant_factors_once(monkeypatch):
    calls = []
    real = lattice.invariant_factors

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(lattice, "invariant_factors", counted)
    for factory, expected, _ in SURFACES.values():
        calls.clear()
        assert snc.simplicial_homology(factory())[0] == expected
        assert len(calls) == 1


def test_simplicial_homology_sizes_nothing_by_the_declared_vertex_count():
    """Unused vertices count as components, and none of them is stored."""
    t = snc.Triangulation(10**12, snc.tetrahedron().triangles)
    tracemalloc.start()
    try:
        h, ab = snc.simplicial_homology(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h == (10**12 - 3, 0, 1)
    assert ab == snc.AbelianInvariants(free_rank=0, torsion=())
    assert peak < 2**20


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
    s1, s2, s_edges = oracles.simplicial_boundaries(t)
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
