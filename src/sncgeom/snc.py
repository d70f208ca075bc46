"""Glued normal-crossing Calabi-Yau surfaces from triangulated 2-manifolds.

The dual complex has one polygon per triangulation vertex, one double
curve per triangulation edge and one triple point per triangle; all the
topological invariants of the glued surface are computed from it. The
independent oracle `simplicial_homology` reduces the triangulation's own
chain complex along a spanning forest of its 1-skeleton; the dual route
presents pi_1 over a tree of triangles, so the two share no reduction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from . import lattice, picard


class NonManifold(ValueError):
    pass


class Boundary(ValueError):
    pass


@dataclass(frozen=True)
class Triangulation:
    vertex_count: int
    triangles: tuple

    def validate(self):
        """Check that the triangles form a closed connected surface and
        return the umbrella of every vertex v: [(u_i, t_i), ...] around v,
        where t_i is the triangle v u_i u_(i+1)."""
        edge_tris = {}
        # used vertex -> its triangles, one pass; nothing here is sized by
        # the declared vertex_count
        at = {}
        for t, tri in enumerate(self.triangles):
            if len(tri) != 3 or len(set(tri)) != 3:
                raise NonManifold(f"degenerate triangle {tri}")
            if any(not 0 <= v < self.vertex_count for v in tri):
                raise ValueError(f"vertex index out of range in {tri}")
            x, y, z = tri
            for a, b in ((x, y), (y, z), (x, z)):
                edge_tris.setdefault((a, b) if a < b else (b, a), []).append(t)
            for v in tri:
                at.setdefault(v, []).append(t)
        for e, ts in edge_tris.items():
            if len(ts) != 2:
                raise (NonManifold if len(ts) > 2 else Boundary)(
                    f"edge {list(e)} lies in {len(ts)} triangles, not 2")
        if len(at) != self.vertex_count:
            # the ids in use are all below vertex_count: find the first gap
            gap = next((i for i, v in enumerate(sorted(at)) if i != v),
                       len(at))
            raise NonManifold(f"isolated vertex {gap}")
        umbrellas = []
        for v in range(self.vertex_count):
            # every triangle has two edges at v and every edge two
            # triangles, so crossing edges walks one cycle of triangles
            start = at[v][0]
            u, w = [x for x in self.triangles[start] if x != v]
            umbrella, t = [(u, start)], start
            while True:
                a, b = edge_tris[(v, w) if v < w else (w, v)]
                t = b if a == t else a
                if t == start:
                    break
                umbrella.append((w, t))
                # the third vertex of a triangle of three distinct ids
                w = sum(self.triangles[t]) - v - w
            if len(umbrella) == 2:  # two triangles on the same three edges
                raise NonManifold(
                    f"triangle {sorted(self.triangles[start])} is repeated")
            if len(umbrella) != len(at[v]):
                raise NonManifold(f"link of vertex {v} is disconnected")
            umbrellas.append(umbrella)
        if not umbrellas:
            raise ValueError("no triangles")
        seen, stack = {0}, [0]
        while stack:
            for w, _ in umbrellas[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.vertex_count:
            raise ValueError("the surface is not connected")
        return umbrellas

    def edges(self):
        """The edges as vertex pairs (a, b) with a < b."""
        return {e for a, b, c in map(sorted, self.triangles)
                for e in ((a, b), (a, c), (b, c))}

    def euler_characteristic(self):
        return self.vertex_count - len(self.edges()) + len(self.triangles)

    def to_json(self):
        return json.dumps({"vertices": self.vertex_count,
                           "triangles": [list(t) for t in self.triangles]})

    @classmethod
    def from_json(cls, text):
        """Parse {"vertices": n, "triangles": [[a, b, c], ...]}; ValueError
        unless n is an int >= 0 and each triangle is three distinct ints in
        range(n)."""
        try:
            d = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not isinstance(d, dict) or not {"vertices", "triangles"} <= set(d):
            raise ValueError('expected keys "vertices" and "triangles"')
        n, tris = d["vertices"], d["triangles"]
        if type(n) is not int or n < 0:
            raise ValueError(f"vertices must be an integer >= 0, got {n!r}")
        if not isinstance(tris, list):
            raise ValueError("triangles must be a list")
        for tri in tris:
            if (not isinstance(tri, list) or len(tri) != 3
                    or any(type(v) is not int or not 0 <= v < n for v in tri)
                    or len(set(tri)) != 3):
                raise ValueError(f"triangle {tri!r} needs three distinct "
                                 f"integer vertex ids below {n}")
        return cls(vertex_count=n, triangles=tuple(tuple(t) for t in tris))


@dataclass
class DualComplex:
    # an edge key is the vertex pair (a, b) with a < b of a triangulation
    # edge; polygon per triangulation vertex: {edge_key: +1 or -1} over its
    # sides in boundary-traversal order, +1 where the side runs along its
    # curve; the two polygons glued along a side are its key's two vertices
    polygons: dict
    curves: dict             # edge_key -> its direction (from_tri, to_tri)
    triangle_count: int

    def euler_characteristic(self):
        return len(self.polygons) - len(self.curves) + self.triangle_count


def dual_complex(t):
    """Polygonal subdivision dual to a closed-manifold triangulation. The
    first polygon to cross a double curve (the smaller vertex) sets the
    curve's direction; each side records whether it runs along it."""
    polygons = {}
    curves = {}
    for v, umbrella in enumerate(t.validate()):
        signs = {}
        prev = umbrella[-1][1]
        for u, tri in umbrella:
            # the side dual to edge {v, u_i} runs from t_(i-1) to t_i, the
            # two triangles on it, crossed in umbrella order
            edge, step = (v, u) if v < u else (u, v), (prev, tri)
            signs[edge] = 1 if curves.setdefault(edge, step) == step else -1
            prev = tri
        polygons[v] = signs
    return DualComplex(polygons=polygons, curves=curves,
                       triangle_count=len(t.triangles))


def canonical_order(d):
    """1 when the polygons admit a coherent orientation, else 2."""
    # validate rejects disconnected surfaces: one start reaches every polygon
    start = next(iter(d.polygons))
    signs = {start: 1}
    queue = [start]
    while queue:
        v = queue.pop()
        for edge, s in d.polygons[v].items():
            u, w = edge
            other = w if v == u else u
            # sides running opposite ways are coherent for equal signs
            want = -signs[v] * s * d.polygons[other][edge]
            if other not in signs:
                signs[other] = want
                queue.append(other)
            elif signs[other] != want:
                return 2
    return 1


def structure_cohomology(d):
    """(h0, h1, h2) of the structure sheaf of the glued surface.

    These are the rational homology ranks of the dual cell complex, which
    the component-by-component cohomology sequence reduces to when every
    component is rational and every double curve is a cycle of rational
    curves. Neither boundary needs elimination. d1 is the incidence matrix
    of the dual graph, connected since `validate` rejects disconnected
    surfaces, so its rank is n0 - 1. d2 has two ±1 entries per double
    curve: it is a signed-graph incidence matrix, whose rank over Q is n2
    minus the number of balanced components (Zaslavsky, "Signed graphs",
    Discrete Appl. Math. 4, 1982), and balance is the coherent orientation
    that `canonical_order` looks for."""
    h2 = 1 if canonical_order(d) == 1 else 0
    n0, n1, n2 = d.triangle_count, len(d.curves), len(d.polygons)
    return (1, n1 - (n0 - 1) - (n2 - h2), h2)


@dataclass(frozen=True)
class GroupPresentation:
    generator_count: int
    relations: tuple  # words: tuples of nonzero signed generator indices


def fundamental_group(d):
    """Presentation of pi_1 from the dual complex: generators are the dual
    edges outside a spanning tree, relations the polygon boundary words."""
    adj = {i: [] for i in range(d.triangle_count)}
    for edge, (fr, to) in d.curves.items():
        adj[fr].append((to, edge))
        adj[to].append((fr, edge))
    tree = set()
    seen = {0}
    order = [0]
    for v in order:  # breadth first: `order` grows while it is walked
        for w, edge in adj[v]:
            if w not in seen:
                seen.add(w)
                tree.add(edge)
                order.append(w)
    if len(seen) != d.triangle_count:
        raise ValueError("dual complex is not connected")
    gens = [e for e in sorted(d.curves) if e not in tree]
    gidx = {e: i + 1 for i, e in enumerate(gens)}
    relations = [tuple([s * gidx[edge] for edge, s in d.polygons[v].items()
                        if edge not in tree]) for v in sorted(d.polygons)]
    return GroupPresentation(generator_count=len(gens),
                             relations=tuple(relations))


@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion: tuple  # invariant factors > 1, each dividing the next

    def __str__(self):
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def abelianization(g):
    """H_1 invariants of a presentation, from the Smith invariants of the
    sparse relation matrix."""
    rows = []
    for word in g.relations:
        row = {}
        for letter in word:
            k = abs(letter) - 1
            row[k] = row.get(k, 0) + (1 if letter > 0 else -1)
        rows.append(row)
    nonzero = lattice.invariant_factors(rows)
    return AbelianInvariants(
        free_rank=g.generator_count - len(nonzero),
        torsion=tuple(x for x in nonzero if x > 1))


# -- assembled surfaces ----------------------------------------------------


@dataclass
class SncSurface:
    dual: DualComplex
    components: dict          # vertex -> (CycleSurface, polarization tuple)
    curve_identifications: dict  # edge_key -> ((v, middle pos), (w, middle pos))
    node_markings: set


_FACTORY_CACHE = {}
# cycle curves per polygon side; odd, so the middle one carries the gluing
REFINEMENT = 3


def default_component_factory(cycle_length):
    """(cycle_surface, polarization), cached per cycle length. The
    polarization has degree 1 on every cycle curve: its own exit check
    raises `picard.InvariantError` otherwise, before anything is cached."""
    if cycle_length not in _FACTORY_CACHE:
        s = picard.cycle_surface(cycle_length)
        _FACTORY_CACHE[cycle_length] = (s, picard.degree_one_polarization(
            s, picard.uniform_degree_seed(s)))
    return _FACTORY_CACHE[cycle_length]


def assemble(d, node_markings=None):
    """Glue one anticanonical-cycle surface per polygon.

    Each polygon side is refined into REFINEMENT consecutive cycle curves
    (the middle one carries the identification), so every polygon takes
    the cached component of cycle length REFINEMENT * side_count, with all
    self-intersections <= -2 and a degree-1 polarization.
    """
    components = {v: default_component_factory(REFINEMENT * len(signs))
                  for v, signs in d.polygons.items()}
    # (vertex, edge_key) -> the middle cycle curve of that side
    pos = {(v, edge): REFINEMENT * i + REFINEMENT // 2
           for v, signs in d.polygons.items() for i, edge in enumerate(signs)}
    identifications = {edge: tuple([(v, pos[v, edge]) for v in edge])
                       for edge in d.curves}
    if node_markings is None:
        marks = set(d.curves)
    else:
        marks = set()
        for edge in node_markings:
            if edge not in d.curves:
                raise ValueError(
                    f"node marking {edge!r} is not a double curve")
            marks.add(edge)
    return SncSurface(dual=d, components=components,
                      curve_identifications=identifications,
                      node_markings=marks)


def loop_kernel_classes(z):
    """Number of loop classes around components after merging across every
    node-marked double curve; 1 means the kernel is cyclic."""
    parent = {v: v for v in z.dual.polygons}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in z.node_markings:
        u, w = edge
        parent[find(u)] = find(w)
    return len({find(v) for v in parent})


# -- independent simplicial route (oracle for the dual-complex route) ------


def simplicial_homology(t):
    """((h0, h1, h2) over Q, H_1 invariants over Z) of the triangulation,
    from its simplicial chain complex reduced along a spanning forest of
    the 1-skeleton, with each simplex oriented by its sorted vertices.

    One pass over the triangles, each sorted once, grows the forest by
    union-find over the vertices in use: an edge joining two trees joins
    the forest, so the forest's edge count is r1 = rank d1 and
    h0 = n0 - r1, every unused vertex its own component. The other edges,
    the cotree, are numbered as they are first met, and each triangle's d2
    row is written on them alone. Those rows have the Smith invariants of
    the full d2: ker d1 is a direct summand of C1 (C1 / ker d1 embeds in
    the free C0), so d2 has the same invariants into ker d1 as into C1;
    and projecting onto the cotree coordinates maps ker d1 isomorphically
    onto Z^(E - r1), onto since each cotree edge closes one fundamental
    cycle in the forest, and one to one since no nonzero cycle lies in a
    forest. One `lattice.invariant_factors` call on those rows gives
    r2 = rank d2 and the torsion of H_1 (Kaczynski, Mischaikow and Mrozek,
    "Computational Homology", 2004, ch. 4). Nothing is sized by the
    declared vertex count."""
    parent = {}  # a vertex in use -> its parent; roots are absent
    column = {}  # edge -> its cotree column, or None on the forest
    rows = []

    def root(v):
        while v in parent:
            p = parent[v]
            if p not in parent:
                return p
            parent[v] = v = parent[p]  # path halving
        return v

    for tri in t.triangles:
        a, b, c = sorted(tri)
        row = {}
        for e, s in (((b, c), 1), ((a, c), -1), ((a, b), 1)):
            j = column.get(e, -1)
            if j == -1:  # first met
                u, w = root(e[0]), root(e[1])
                if u != w:
                    parent[u] = w
                    j = None
                else:
                    j = len(column) - len(parent)
                column[e] = j
            if j is not None:
                row[j] = s
        rows.append(row)
    r1 = len(parent)  # one forest edge per vertex hooked below a root
    nonzero = lattice.invariant_factors(rows)
    r2 = len(nonzero)
    h1 = len(column) - r1 - r2
    torsion = tuple(x for x in nonzero if x > 1)
    return ((t.vertex_count - r1, h1, len(t.triangles) - r2),
            AbelianInvariants(free_rank=h1, torsion=torsion))


# -- test surfaces ---------------------------------------------------------


def tetrahedron():
    return Triangulation(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))


def torus_7():
    """The 7-vertex triangulation of the torus."""
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return Triangulation(7, tuple(sorted(set(tris))))


def rp2_6():
    """The 6-vertex projective plane (antipodal icosahedron)."""
    return Triangulation(6, (
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)))


def klein_bottle(n=4):
    """Grid triangulation of the Klein bottle: horizontal wrap is straight,
    the vertical wrap reflects the horizontal coordinate."""
    def vid(i, j):
        if j >= n:
            i, j = -i, j - n
        return (j % n) * n + (i % n)

    tris = []
    for i in range(n):
        for j in range(n):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i, j + 1)
            d = vid(i + 1, j + 1)
            tris.append((a, b, c))
            tris.append((b, d, c))
    return Triangulation(n * n, tuple(tris))


def connected_sum(t1, t2):
    """Glue two triangulations along the boundary of one removed triangle
    from each (identifying the three boundary vertices pairwise)."""
    tri1 = t1.triangles[0]
    tri2 = t2.triangles[0]
    offset = t1.vertex_count
    remap = {}
    for a, b in zip(tri2, tri1):
        remap[a] = b
    fresh = {}
    for v in range(t2.vertex_count):
        if v not in remap:
            fresh[v] = offset + len(fresh)
    remap.update(fresh)
    tris = list(t1.triangles[1:])
    for tri in t2.triangles[1:]:
        tris.append(tuple(remap[v] for v in tri))
    return Triangulation(offset + len(fresh), tuple(tris))


def genus2():
    return connected_sum(torus_7(), torus_7())


def refine_random(t, splits, seed=0):
    """Random 1-to-3 triangle splits; preserves manifoldness, Euler
    characteristic and orientability."""
    rng = random.Random(seed)
    tris = list(t.triangles)
    nv = t.vertex_count
    for _ in range(splits):
        i = rng.randrange(len(tris))
        a, b, c = tris.pop(i)
        tris.extend([(a, b, nv), (b, c, nv), (a, c, nv)])
        nv += 1
    return Triangulation(nv, tuple(tris))


def glue_report(t):
    """Full invariant report for the surface glued from a triangulation."""
    d = dual_complex(t)
    z = assemble(d)
    coh = structure_cohomology(d)
    ab = abelianization(fundamental_group(d))
    (oh, oab) = simplicial_homology(t)
    return {
        "euler_characteristic": d.euler_characteristic(),
        "cohomology": list(coh),
        "cohomology_simplicial_oracle": list(oh),
        "cohomology_crosscheck": list(coh) == list(oh),
        "abelianization": {"free_rank": ab.free_rank,
                           "torsion": list(ab.torsion)},
        "abelianization_crosscheck": (ab.free_rank == oab.free_rank
                                      and ab.torsion == oab.torsion),
        # h2 is 1 exactly when the balance walk finds an orientation
        "canonical_order": 2 - coh[2],
        "loop_kernel_classes": loop_kernel_classes(z),
        "components": len(d.polygons),
        "double_curves": len(d.curves),
        "triple_points": d.triangle_count,
    }
