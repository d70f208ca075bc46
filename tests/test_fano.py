from math import comb, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sncgeom import fano, lattice


def test_sym_split():
    assert oracles.sym_split(1, 2) == {0: 2, 2: 1}
    assert oracles.sym_split(2, 1) == {0: 3, 1: 2, 2: 1}
    assert sum(oracles.sym_split(3, 5).values()) == 4 + 3 + 2 + 1


def test_h0_P_matches_basis_size():
    for r in range(4):
        for a in range(-1, 4):
            for b in range(-2, 4):
                assert fano.h0_P(r, a, b) == len(oracles.pr_basis(r, a, b))
    with pytest.raises(ValueError, match="twist must be nonnegative"):
        fano.h0_P(-1, 2, 2)


def test_packed_columns_unpack_to_the_tuple_enumeration():
    for r in range(6):
        for m in range(1, 5):
            for width in (fano._field_width(fano.ZR(r), m), 16):
                cols = fano._columns(r, m, width)
                assert [oracles.unpack_column(col, width, 5)
                        for col in cols] == [
                    (0, mono) for mono in oracles.pr_basis(r, m, m)]


def test_h1_vanishes_for_nef_twists():
    for r in range(4):
        for a in range(3):
            for b in range(3):
                assert oracles.h1_P(r, a, b) == 0


def test_euler_characteristic_on_p1_factor():
    # h0 - h1 of each line-bundle summand is degree + 1
    for r in range(3):
        for a in range(3):
            for b in range(-6, 4):
                chi = sum(mult * (d + b + 1)
                          for d, mult in oracles.sym_split(a, r).items())
                assert fano.h0_P(r, a, b) - oracles.h1_P(r, a, b) == chi


def test_p3_basis_size():
    for m in range(5):
        assert len(oracles.p3_basis(m)) == (m + 1) * (m + 2) * (m + 3) // 6


def test_restrictions_land_in_s():
    for mono in oracles.pr_basis(2, 2, 2):
        sm = oracles.pr_restrict(mono)
        if sm is not None:
            assert sm in set(oracles.s_basis(2, 2 + 0))
    for mono in oracles.p3_basis(2):
        assert oracles.p3_restrict(mono) in set(oracles.s_basis(2, 2))


def test_glued_h0_series_values():
    assert fano.glued_h0(fano.ZR(0), 1) == 6
    assert fano.glued_h0(fano.ZR(3), 1) == 9
    assert fano.glued_h0(fano.ZRS(1, 2), 1) == 11
    assert fano.glued_h0(fano.ZRS(0, 0), 1) == 8


def test_glued_h0_swap_invariant():
    for r in (0, 2):
        assert (fano.glued_h0(fano.ZR(r, swap=True), 1)
                == fano.glued_h0(fano.ZR(r), 1))


def sections(z, m):
    """The glued basis of degree m, unpacked into (left dict, right dict)
    sections."""
    width = fano._field_width(z, m)
    return oracles.unpack_basis(z, fano.glued_basis(z, m, width), width)


def test_glued_basis_sections_agree_on_s():
    z = fano.ZRS(1, 1)
    for lpoly, rpoly in sections(z, 1):
        left = {}
        for mono, c in lpoly.items():
            sm = oracles.pr_restrict(mono)
            if sm is not None:
                left[sm] = left.get(sm, 0) + c
        right = {}
        for mono, c in rpoly.items():
            sm = oracles.pr_restrict(mono)
            if sm is not None:
                right[sm] = right.get(sm, 0) + c
        assert {k: v for k, v in left.items() if v} == \
            {k: v for k, v in right.items() if v}


def test_quadric_kernel_z0():
    z0 = fano.ZR(0)
    assert fano.glued_h0(z0, 2) == 19
    assert fano.quadric_kernel_dim(z0) == 2


def test_degree_one_generation_small():
    assert fano.degree_one_generation(fano.ZR(0), 3)
    assert fano.degree_one_generation(fano.ZRS(0, 1), 3)


def test_degree_one_generation_builds_each_degree_once(monkeypatch):
    calls = []
    glued_basis = fano.glued_basis

    def counted(z, m, width):
        calls.append(m)
        return glued_basis(z, m, width)

    monkeypatch.setattr(fano, "glued_basis", counted)
    monkeypatch.setattr(fano, "glued_h0", None)  # never called
    # the benchmark's op: the table, then generation through degree 3
    for z in (fano.ZRS(1, 2), fano.ZR(2), fano.ZRS(1, 2, swap=True)):
        calls.clear()
        assert sorted(fano.h0_table(z, 3)) == [1, 2, 3]
        assert fano.degree_one_generation(z, 3)
        assert calls == [1, 2, 3]


def test_h0_table_is_the_size_of_each_built_basis():
    for swap in (False, True):
        configs = [fano.ZR(r, swap=swap) for r in range(21)]
        configs += [fano.ZRS(r, s, swap=swap)
                    for r in range(11) for s in range(11)]
        for z in configs:
            assert fano.h0_table(z, 5) == {m: fano.glued_h0(z, m)
                                           for m in range(1, 6)}


def test_h0_table_builds_no_basis(monkeypatch):
    def raises(*args):
        raise AssertionError("h0_table built a basis")

    monkeypatch.setattr(fano, "glued_basis", raises)
    monkeypatch.setattr(fano, "glued_h0", raises)
    assert fano.h0_table(fano.ZR(0), 3) == {1: 6, 2: 19, 3: 44}
    assert fano.h0_table(fano.ZRS(1, 2), 5)[1] == 11


def restricts_onto_s(r, a, b):
    # glued_basis checks its size against the fiber-product dimension
    # unconditionally: every O(a, b) on P(r) restricts onto O(a, b) on S,
    # and the kernel twist O(a - 1, b + r) leaves the count (a + 1)(b + 1)
    return (fano.h0_P(r, a, b) - fano.h0_P(r, a - 1, b + r)
            == (a + 1) * (b + 1))


def test_restriction_surjective():
    for r in range(4):
        for a, b in ((1, 1), (2, 2)):
            assert restricts_onto_s(r, a, b)
            assert oracles.enumerated_restriction_surjective(r, a, b)


def test_restriction_surjective_matches_enumeration():
    for r in range(11):
        for a in range(5):
            for b in range(5):
                assert restricts_onto_s(r, a, b)
                assert oracles.enumerated_restriction_surjective(r, a, b)


def bench_configs():
    """The 68 configurations of the `fano` benchmark workload."""
    for swap in (False, True):
        for r in range(9):
            yield fano.ZR(r, swap=swap)
        for s in range(5):
            for r in range(7 - s):
                yield fano.ZRS(r, s, swap=swap)


def test_hilbert_function_of_a_del_pezzo_threefold():
    # h0(mL) = d m(m + 1)(m + 2)/6 + m + 1 with d = h0(L) - 2, and the
    # image of the degree-1 map lies on d(d - 3)/2 independent quadrics
    # (Iskovskikh-Prokhorov, Fano Varieties, 1999)
    configs = list(bench_configs())
    assert len(set(configs)) == 68
    for z in configs:
        d = fano.glued_h0(z, 1) - 2
        for m in range(1, 5):
            hilbert = d * m * (m + 1) * (m + 2) // 6 + m + 1
            assert fano.glued_h0(z, m) == hilbert
        assert fano.quadric_kernel_dim(z) == d * (d - 3) // 2


def test_mult_surjective():
    assert oracles.mult_surjective(1, (1, 1), (1, 1))
    assert oracles.mult_surjective(3, (1, 1), (2, 2))


def test_cover_degree_and_classification():
    assert fano.cover_degree(-2, 1) == 3
    with pytest.raises(ValueError):
        fano.cover_degree(1, 1)
    assert fano.classify_singularity(2, True, True) == fano.TERMINAL
    assert fano.classify_singularity(1, True, False) == fano.CANONICAL
    assert fano.classify_singularity(0, False, False) == fano.LC


def test_h0_table_rejects_m_max_below_1():
    assert fano.h0_table(fano.ZR(0), 1) == {1: 6}
    for m_max in (0, -1):
        with pytest.raises(ValueError, match="m_max must be >= 1"):
            fano.h0_table(fano.ZR(0), m_max)


def test_glued_fano_validation():
    with pytest.raises(ValueError):
        fano.GluedFano(kind="bad", r=0)
    with pytest.raises(ValueError):
        fano.ZR(-1)
    with pytest.raises(ValueError):
        fano.ZRS(0, None)
    with pytest.raises(ValueError, match="zr takes no s"):
        fano.GluedFano(kind="zr", r=1, s=3)  # ZR(r) has no second twist


# -- dense oracle: the general linear-algebra route on the joint restriction
# matrix, kept here to check the restriction buckets and the sparse rank

def dense_system(z, m):
    """Rows = S monomials of bidegree (m, m), cols = left basis then right
    basis; the kernel is the space of glued sections."""
    left, right = oracles.left_basis(z, m), oracles.right_basis(z, m)
    srows = {sm: i for i, sm in enumerate(oracles.s_basis(m, m))}
    rows = [[0] * (len(left) + len(right)) for _ in srows]
    for c, mono in enumerate(left):
        sm = oracles.pr_restrict(mono)
        if sm is not None:
            rows[srows[sm]][c] = 1
    for c, mono in enumerate(right):
        sm = oracles.right_restrict(z, mono)
        if sm is None:
            continue
        if z.swap:
            sm = oracles.swap_factors(sm)
        rows[srows[sm]][len(left) + c] -= 1
    return rows, left, right


def column_index(left, right):
    index = {(0, mono): i for i, mono in enumerate(left)}
    index.update({(1, mono): len(left) + i for i, mono in enumerate(right)})
    return index


def dense_vector(section, index):
    vec = [0] * len(index)
    for side, poly in enumerate(section):
        for mono, c in poly.items():
            vec[index[side, mono]] += c
    return vec


def dense_basis(z, m):
    """Glued sections from the Fraction kernel, scaled to integers."""
    rows, left, right = dense_system(z, m)
    out = []
    for vec in oracles.kernel_basis(rows):
        mult = lcm(*[x.denominator for x in vec])
        ints = [int(x * mult) for x in vec]
        out.append(({mono: c for mono, c in zip(left, ints) if c},
                    {mono: c for mono, c in zip(right, ints[len(left):])
                     if c}))
    return out


def dense_product_rank(z, pairs, m):
    index = column_index(oracles.left_basis(z, m), oracles.right_basis(z, m))
    vectors = []
    for (l1, r1), (l2, r2) in pairs:
        lp, rp = {}, {}
        for f, g, out in ((l1, l2, lp), (r1, r2, rp)):
            for e1, c1 in f.items():
                for e2, c2 in g.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        vectors.append(dense_vector((lp, rp), index))
    return oracles.rank(vectors)


def oracle_configs(bound):
    for swap in (False, True):
        for r in range(bound + 1):
            yield fano.ZR(r, swap=swap)
            for s in range(bound + 1):
                yield fano.ZRS(r, s, swap=swap)


def test_glued_h0_and_basis_match_dense_route():
    for z in oracle_configs(10):
        for m in (1, 2, 3):
            rows, left, right = dense_system(z, m)
            h0 = fano.glued_h0(z, m)
            assert h0 == len(left) + len(right) - oracles.rank(rows)
            basis = sections(z, m)
            assert len(basis) == h0
            index = column_index(left, right)
            columns = list(zip(*rows))
            vectors = []
            for lpoly, rpoly in basis:
                image = [0] * len(rows)
                for side, poly in enumerate((lpoly, rpoly)):
                    for mono, c in poly.items():
                        assert type(c) is int
                        col = columns[index[side, mono]]
                        image = [y + c * x for y, x in zip(image, col)]
                assert not any(image)
                vectors.append(dense_vector((lpoly, rpoly), index))
            # independent, hence a basis of the dense kernel
            sparse = [{i: x for i, x in enumerate(vec) if x}
                      for vec in vectors]
            assert lattice.sparse_rank(sparse) == h0


def test_glued_basis_matches_bucketing_route():
    # the structural basis is the bucketed one, list for list and in order
    for z in oracle_configs(10):
        for m in range(1, 6):
            assert sections(z, m) == oracles.bucketed_glued_basis(z, m)


def test_glued_basis_spans_dense_kernel():
    for z in oracle_configs(3):
        for m in (1, 2):
            _, left, right = dense_system(z, m)
            index = column_index(left, right)
            kernel = [dense_vector(b, index) for b in dense_basis(z, m)]
            ours = [dense_vector(b, index) for b in sections(z, m)]
            assert oracles.rank(kernel + ours) == len(kernel) == len(ours)


def small_configs():
    for r in range(4):
        yield fano.ZR(r)
        for s in range(4 - r):
            yield fano.ZRS(r, s)
    # the P^1 factors exchanged in the gluing
    yield fano.ZR(1, swap=True)
    yield fano.ZRS(1, 1, swap=True)


def test_generation_and_quadrics_match_dense_route():
    for z in small_configs():
        bases = {m: dense_basis(z, m) for m in (1, 2, 3)}
        b1 = bases[1]
        n = len(b1)
        quad = [(b1[i], b1[j]) for i in range(n) for j in range(i, n)]
        assert fano.quadric_kernel_dim(z) == (
            comb(n + 1, 2) - dense_product_rank(z, quad, 2))
        generated = all(
            dense_product_rank(z, [(s1, s2) for s1 in b1 for s2 in bases[m]],
                               m + 1) == len(bases[m + 1])
            for m in (1, 2))
        assert fano.degree_one_generation(z, 3) == generated


def packed_rank(first, second, bound):
    """`fano._product_rank` on (left dict, right dict) sections, packed by
    the rule it applied before the bases came packed."""
    return fano._product_rank(*oracles.pack_sections(first, second), bound)


def triangle_pairs(sections):
    return [(f, g) for i, f in enumerate(sections) for g in sections[i:]]


def test_product_rank_matches_tuple_route_on_glued_bases():
    for z in small_configs():
        width = fano._field_width(z, 4)
        packed = {m: fano.glued_basis(z, m, width) for m in (1, 2, 3)}
        bases = {m: oracles.unpack_basis(z, b, width)
                 for m, b in packed.items()}
        b1 = bases[1]
        n = comb(len(b1) + 1, 2)
        assert (fano._product_rank(packed[1], None, n)
                == oracles.tuple_product_rank(triangle_pairs(b1), n))
        for m in (1, 2, 3):
            pairs = [(f, g) for f in b1 for g in bases[m]]
            assert (fano._product_rank(packed[1], packed[m], len(pairs))
                    == oracles.tuple_product_rank(pairs, len(pairs)))


def wide(mono):
    """An exponent tuple packed into 16-bit fields, where no sum of two
    exponents below carries (each is at most 5 * 21), so that
    wide(ta) + wide(tb) is wide(ta + tb)."""
    col = 0
    for e in mono:
        col = col << 16 | e
    return col


def basis_columns(z, m, width):
    """Per side, {packed column: wide(its exponent tuple)} over every term
    of the glued basis of degree m on `width`-bit fields."""
    fields = 4 if z.kind == "zr" else 5
    left, right, others = fano.glued_basis(z, m, width)
    cols = [{col: 1 for col in left}, {col: 1 for col in right}]
    for section in others:
        for side, part in enumerate(section):
            cols[side].update(part)
    out = ({}, {})
    for side, part in enumerate(cols):
        for col in part:
            got, mono = oracles.unpack_column(col, width, fields)
            assert got == side
            out[side][col] = wide(mono)
    return out


def test_field_width_keeps_every_product_column():
    # a report through m_max packs every basis on _field_width(z, m_max),
    # and its widest products are b1 * b_(m_max - 1): their largest
    # exponent m_max (1 + r) (al at k = m_max; m_max (1 + s) on the right of
    # ZRS) needs every bit. Each product column unpacks to the tuple sum of
    # its factors, on its own side.
    configs = [fano.ZR(r) for r in range(21)]
    configs += [fano.ZRS(r, s) for r in range(11) for s in range(11)]
    for z in configs:
        fields = 4 if z.kind == "zr" else 5
        for m_max in range(2, 6):
            width = fano._field_width(z, m_max)
            b1, bm = (basis_columns(z, m, width) for m in (1, m_max - 1))
            for side in (0, 1):
                got = {}
                for col in {a + b for a in b1[side] for b in bm[side]}:
                    got_side, mono = oracles.unpack_column(col, width, fields)
                    got[col] = got_side, wide(mono)
                for a, ta in b1[side].items():
                    assert all(got[a + b] == (side, ta + tb)
                               for b, tb in bm[side].items())


def test_single_term_sections_meet_only_their_own_side():
    # a single-term section times a section whose part on the other side has
    # two terms meets only the part on its own side: one unit column, or
    # zero when that part is empty
    x, y = (1, 0), (0, 1)
    cases = [(({x: 1}, {}), ({x: 1}, {x: 1, y: 1}), ({}, {x: 1, y: 1})),
             (({}, {x: 1}), ({x: 1, y: 1}, {x: 1}), ({x: 1, y: 1}, {}))]
    for single, other, off_side in cases:
        assert packed_rank([single], [other], 1) == 1
        assert oracles.tuple_product_rank([(single, other)], 1) == 1
        assert packed_rank([single], [off_side], 0) == 0
        assert oracles.tuple_product_rank([(single, off_side)], 0) == 0
    # the unit columns y^2 and xy, single * single and single * f, and
    # f * f = (x^2, x^2) off them
    single, f = ({(0, 1): 1}, {}), ({(1, 0): 1}, {(1, 0): 1})
    pairs = triangle_pairs([single, f])
    assert (packed_rank([single, f], None, 3)
            == oracles.tuple_product_rank(pairs, 3) == 3)


def test_product_rank_counts_a_repeated_product_once():
    # s1 * s1, s1 * s2 and s2 * s2 share their support; s2 * s2 repeats
    # s1 * s1 exactly, s1 * s2 differs from it in one coefficient; a
    # repeated product reduces to zero in the elimination
    s1, s2 = ({(1, 0): 1}, {(0, 1): 1}), ({(1, 0): 1}, {(0, 1): -1})
    assert packed_rank([s1, s2], None, 2) == 2
    assert oracles.tuple_product_rank(triangle_pairs([s1, s2]), 2) == 2
    assert packed_rank([s1], [s1, s2, s1], 2) == 2
    assert oracles.tuple_product_rank([(s1, s1), (s1, s2), (s1, s1)], 2) == 2


# one section with a term a side on the exponent 0: its products with
# right-only sections are those sections, so each is an edge of the
# signed graph that `fano._product_rank` ranks
ONE = ({(0, 0): 1}, {(0, 0): 1})


def cycle(signs):
    """Right-only sections {m_i: 1, m_(i+1): s_i} around a cycle of
    len(signs) monomials: e_u + e_v for s_i = 1, e_u - e_v for -1."""
    n = len(signs)
    monos = [(i, n - i) for i in range(n)]
    return [({}, {monos[i]: 1, monos[(i + 1) % n]: s})
            for i, s in enumerate(signs)]


def signed_rank(second):
    pairs = [(ONE, g) for g in second]
    rank = packed_rank([ONE], second, len(pairs))
    assert rank == oracles.tuple_product_rank(pairs, len(pairs))
    return rank


@pytest.mark.parametrize("signs, rank", [
    # e_u + e_v edges: balanced exactly when the cycle is even
    ((1, 1, 1, 1), 3),
    ((1,) * 6, 5),
    ((1, 1, 1), 3),
    ((1,) * 5, 5),
    # balance counts the e_u + e_v edges, not the length
    ((-1, -1, -1), 2),
    ((1, 1, -1), 2),
    ((1, -1, -1, -1), 4),
])
def test_product_rank_of_a_signed_cycle(signs, rank):
    # a balanced cycle on n columns leaves one direction out, rank n - 1;
    # an unbalanced one spans its columns, rank n
    assert signed_rank(cycle(signs)) == rank


def test_product_rank_counts_a_half_edge_once():
    # f * (Y, m_0) is a half-edge at Y + m_0: its left term X + Y is the
    # unit column X * Y; hung on a balanced path of differences it adds 1,
    # and a second half-edge on the same component adds nothing
    f = ({X: 1}, {Y: 1})
    monos = [(0, 0, i, 0) for i in range(4)]
    path = [({}, {a: -1, b: 1}) for a, b in zip(monos, monos[1:])]
    first, unit = [({X: 1}, {}), f], ({Y: 1}, {})
    for second, rank in (([unit] + path, 1 + 3),
                         ([unit, ({Y: 1}, {monos[0]: 1})] + path, 1 + 4),
                         ([unit, ({Y: 1}, {monos[0]: 1}),
                           ({Y: 1}, {monos[3]: -1})] + path, 1 + 4)):
        pairs = [(s1, s2) for s1 in first for s2 in second]
        assert packed_rank(first, second, len(pairs)) == rank
        assert oracles.tuple_product_rank(pairs, len(pairs)) == rank


def test_product_rank_counts_a_repeated_edge_once():
    # a repeated edge closes an even cycle of length 2: balanced, so it adds
    # nothing, on a balanced and on an unbalanced component
    for signs, rank in (((1, 1, 1, 1), 3), ((1, 1, 1), 3)):
        edges = cycle(signs)
        assert signed_rank(edges + edges[:2]) == rank
        assert signed_rank(edges[:2] + edges[:2]) == 2


def test_product_rank_calls_no_elimination(monkeypatch):
    """The products are ranked as a signed graph, by union-find alone."""
    def refuse(vectors):
        raise AssertionError("elimination called")

    monkeypatch.setattr(lattice, "sparse_rank", refuse)
    monkeypatch.setattr(lattice, "_echelon", refuse)
    for z in (fano.ZR(0), fano.ZR(3, swap=True), fano.ZRS(1, 2)):
        d = fano.glued_h0(z, 1) - 2
        assert fano.degree_one_generation(z, 4)
        assert fano.quadric_kernel_dim(z) == d * (d - 3) // 2


# exponents near 0, across 2^8 and across 2^12, so that sums cross field
# widths a fixed packing would pick
EXPONENT = st.one_of(st.integers(0, 3), st.integers(250, 260),
                     st.integers(4090, 4100))
SIGN = st.sampled_from([-1, 1])


@st.composite
def product_bases(draw):
    """Bases in the contract of `fano._product_rank`: a list of 1-5 glued
    sections with at most one term a side, and either None (the unordered
    pairs of the list) or a list of 1-5 sections of at most two terms, one
    on a side where the first list has a single-term section; every
    coefficient +-1. Each side draws its terms from one small pool of 4- or
    5-tuple exponents, so that products meet."""
    pools = []
    for _ in range(2):
        n = draw(st.sampled_from([4, 5]))
        pools.append(draw(st.lists(st.tuples(*[EXPONENT] * n), min_size=1,
                                   max_size=4)))

    @st.composite
    def section(draw, sizes):
        left = draw(st.dictionaries(st.sampled_from(pools[0]), SIGN,
                                    max_size=sizes[0]))
        right = draw(st.dictionaries(st.sampled_from(pools[1]), SIGN,
                                     max_size=min(sizes[1], 2 - len(left))))
        return left, right

    first = draw(st.lists(section((1, 1)), min_size=1, max_size=5))
    singles = {0 if left else 1 for left, right in first
               if len(left) + len(right) == 1}
    second = st.lists(section([1 if side in singles else 2
                               for side in (0, 1)]), min_size=1, max_size=5)
    return first, draw(st.none() | second)


X, Y = (1, 0, 0, 0), (0, 1, 0, 0)


@settings(max_examples=150, deadline=None)
@given(product_bases())
# single-term sections only, on both sides; a left times a right one is 0
@example(([({X: 1}, {}), ({}, {Y: 1})],
          [({Y: 1}, {}), ({}, {X: 1}), ({}, {Y: 1})]))
@example(([({X: 1}, {}), ({Y: 1}, {}), ({}, {X: 1})], None))
# the unit column XY also lies in (X, Y) * (Y, X)
@example(([({X: 1}, {}), ({X: 1}, {Y: 1})], [({Y: 1}, {}), ({Y: 1}, {X: 1})]))
# single-term sections with coefficients other than 1, which the packing
# drops, and a product with a -1 term
@example(([({X: 2}, {}), ({}, {Y: -3})],
          [({Y: -2}, {}), ({}, {X: 3}), ({X: 1}, {Y: -1})]))
# a one-term section times a part of two terms on the side with no single
@example(([({X: 1}, {}), ({X: 1}, {Y: 1})], [({}, {X: 1, Y: -1})]))
def test_product_rank_matches_tuple_route(bases):
    first, second = bases
    if second is None:
        pairs = triangle_pairs(first)
    else:
        pairs = [(f, g) for f in first for g in second]
    assert (packed_rank(first, second, len(pairs))
            == oracles.tuple_product_rank(pairs, len(pairs)))


MEETS = "a single-term section meets a part of several terms"
FIRST = "the first basis has a part of several terms"
TERMS = "a section of the second basis has more than two terms"
SIGNS = "a coefficient is not [+]-1"
Z, W = (0, 0, 1, 0), (0, 0, 0, 1)


@pytest.mark.parametrize("first, second, message", [
    # the unit column XY also lies in X * (X + Y): a single-term section
    # meets a part of two terms on its side
    ([({X: 1}, {})], [({Y: 1}, {}), ({X: 1, Y: 1}, {})], MEETS),
    ([({X: 2}, {}), ({}, {Y: -3})],
     [({Y: -2}, {}), ({}, {X: 3}), ({X: 3, Y: -2}, {Y: 2})], MEETS),
    # a part of two terms in the first basis, against a right-only section,
    # against itself, against a single-term section, and (x - y)(x + y)
    # with its xy terms cancelling
    ([({X: 1, Y: -1}, {})], [({}, {X: 2, Y: 3})], FIRST),
    ([({X: 1, Y: -1}, {}), ({}, {X: 2, Y: 3})], None, FIRST),
    ([({X: 1}, {X: 1, Y: 1})], [({}, {X: 1})], FIRST),
    ([({}, {X: 1, Y: -1})], [({}, {X: 1, Y: 1})], FIRST),
    # coefficients other than +-1 in a section of several terms, of the
    # second basis and of the first; products then leave the signed graph
    ([({X: 2}, {}), ({}, {Y: -3})],
     [({Y: -2}, {}), ({}, {X: 3}), ({X: 3}, {Y: 2})], SIGNS),
    ([({X: 1}, {}), ({X: 1}, {Y: 1})], [({}, {X: 2, Y: 3})], SIGNS),
    ([({X: -2}, {Y: 1}), ({Y: 1}, {X: 1})], None, SIGNS),
    # sections of the second basis with three and four terms, whose
    # products with (X, Y) have as many
    ([({X: 1}, {Y: 1})], [({X: 1, Y: 1}, {Z: 1})], TERMS),
    ([({X: 1}, {Y: 1})], [({X: 1, Y: -1}, {Z: 1, W: -1})], TERMS),
    ([({X: 1}, {Y: 1})], [({}, {X: 1, Y: 1, Z: -1})], TERMS),
])
def test_product_rank_rejects_input_outside_its_contract(first, second,
                                                         message):
    # the contract every caller meets with b1 first: at most one term a
    # side in the first basis, no single-term section of the first basis
    # on a side where the second has a part of several terms, at most two
    # terms in each section of the second basis that is not single-term,
    # and +-1 coefficients in every such section
    with pytest.raises(ValueError, match=message):
        packed_rank(first, second, 10)


def unit_section(side, mono):
    return ({mono: 1}, {}) if side == 0 else ({}, {mono: 1})


def test_product_exponents_past_8_bits_keep_their_columns():
    # 200 + 100 = 300 would carry out of an 8-bit field: (0, 300) would land
    # on the column of (1, 44), and (300, 0) on that of (44, 1) shifted
    first = [unit_section(side, a) for side in (0, 1)
             for a in ((200, 0), (0, 200), (44, 1), (1, 44))]
    second = [unit_section(side, b) for side in (0, 1)
              for b in ((100, 0), (0, 100), (0, 0))]
    pairs = [(f, g) for f in first for g in second]
    # 12 distinct columns a side; a left times a right section is zero
    assert packed_rank(first, second, 24) == 24
    assert oracles.tuple_product_rank(pairs, 24) == 24


def test_side_tag_keeps_left_and_right_columns_apart():
    # the 4-field right monomial packs to the int of the first 5-field left
    # one untagged, and to that of the second with a tag bit below the top
    # field; either way f * f and f * g would land on one column, as 2 and 0
    for left in ((0, 1, 0, 0, 1), (1, 1, 0, 0, 1)):
        f = ({left: 1}, {(1, 0, 0, 1): 1})
        g = ({left: 1}, {(1, 0, 0, 1): -1})
        assert packed_rank([f, g], None, 3) == 2
        assert oracles.tuple_product_rank(triangle_pairs([f, g]), 3) == 2
        assert packed_rank([f], [g], 1) == 1
    # a left-only section times a right-only one is zero
    assert packed_rank([unit_section(0, (1, 0))],
                       [unit_section(1, (1, 0))], 0) == 0
    # 2 * 127 = 254 sets 8-bit fields; a right x right product fills them up
    # to 254 right below its two tag bits, which add to one bit above them
    monos = ((127, 127), (127, 0), (0, 127), (0, 0))
    sections = [unit_section(side, e) for side in (0, 1) for e in monos]
    columns = {(side, (a1 + a2, b1 + b2)) for side in (0, 1)
               for a1, b1 in monos for a2, b2 in monos}
    n = len(columns)
    assert packed_rank(sections, None, n) == n == 18
    assert oracles.tuple_product_rank(triangle_pairs(sections), n) == n


def test_product_rank_sums_terms_on_a_shared_column():
    # (x - y)(x + y) = x^2 - y^2: the two xy terms cancel, so the product
    # equals the degree-2 section x^2 - y^2 times 1; the library's rank
    # takes no part of several terms in its first basis
    f = ({}, {(1, 0): 1, (0, 1): -1})
    h = ({}, {(1, 0): 1, (0, 1): 1})
    g = ({}, {(2, 0): 1, (0, 2): -1})
    one = ({}, {(0, 0): 1})
    pairs = [(s1, s2) for s1 in (f, g) for s2 in (h, one)]
    assert oracles.tuple_product_rank(pairs, 4) == 3


def test_glued_h0_guard_fires(monkeypatch):
    monkeypatch.setattr(fano, "comb", lambda n, k: comb(n, k) + 1)
    with pytest.raises(AssertionError, match="fiber-product"):
        fano.glued_h0(fano.ZR(0), 1)
    monkeypatch.undo()
    # the last monomial of each P(r) basis lost from the enumeration; it
    # vanishes on S, so only the dimension count can see it
    columns = fano._columns
    monkeypatch.setattr(fano, "_columns",
                        lambda *args: columns(*args)[:-1])
    with pytest.raises(AssertionError, match="fiber-product"):
        fano.glued_h0(fano.ZRS(1, 2), 2)


def test_product_rank_guard_fires(monkeypatch):
    # one section short in every degree past 1 lowers each target rank
    glued_basis = fano.glued_basis

    def short(z, m, width):
        left, right, others = glued_basis(z, m, width)
        return left, right, others[:-1] if m >= 2 else others

    monkeypatch.setattr(fano, "glued_basis", short)
    with pytest.raises(AssertionError, match="leave the glued section"):
        fano.degree_one_generation(fano.ZR(0), 2)
    monkeypatch.undo()
    # the quadric check reads its target rank from the degree-2 count
    count = fano.fiber_product_h0
    monkeypatch.setattr(fano, "fiber_product_h0",
                        lambda z, m: count(z, m) - (m == 2))
    with pytest.raises(AssertionError, match="leave the glued section"):
        fano.quadric_kernel_dim(fano.ZRS(0, 1))


def test_quadric_kernel_dim_builds_one_basis(monkeypatch):
    calls = []
    glued_basis = fano.glued_basis

    def counted(z, m, width):
        calls.append(m)
        return glued_basis(z, m, width)

    monkeypatch.setattr(fano, "glued_basis", counted)
    for z in (fano.ZR(3), fano.ZRS(1, 2, swap=True)):
        d = fano.glued_h0(z, 1) - 2
        calls.clear()
        assert fano.quadric_kernel_dim(z) == d * (d - 3) // 2
        assert calls == [1]
