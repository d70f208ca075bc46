from math import comb, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sncgeom import fano, lattice


def test_sym_split():
    assert fano.sym_split(1, 2) == {0: 2, 2: 1}
    assert fano.sym_split(2, 1) == {0: 3, 1: 2, 2: 1}
    assert sum(fano.sym_split(3, 5).values()) == 4 + 3 + 2 + 1


def test_h0_P_matches_basis_size():
    for r in range(4):
        for a in range(-1, 4):
            for b in range(-2, 4):
                assert fano.h0_P(r, a, b) == len(fano.pr_basis(r, a, b))


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
                          for d, mult in fano.sym_split(a, r).items())
                assert fano.h0_P(r, a, b) - oracles.h1_P(r, a, b) == chi


def test_p3_basis_size():
    for m in range(5):
        assert len(fano.p3_basis(m)) == (m + 1) * (m + 2) * (m + 3) // 6


def test_restrictions_land_in_s():
    for mono in fano.pr_basis(2, 2, 2):
        sm = fano.pr_restrict(mono)
        if sm is not None:
            assert sm in set(oracles.s_basis(2, 2 + 0))
    for mono in fano.p3_basis(2):
        assert fano.p3_restrict(mono) in set(oracles.s_basis(2, 2))


def test_glued_h0_series_values():
    assert fano.glued_h0(fano.ZR(0), 1) == 6
    assert fano.glued_h0(fano.ZR(3), 1) == 9
    assert fano.glued_h0(fano.ZRS(1, 2), 1) == 11
    assert fano.glued_h0(fano.ZRS(0, 0), 1) == 8


def test_glued_h0_swap_invariant():
    for r in (0, 2):
        assert (fano.glued_h0(fano.ZR(r, swap=True), 1)
                == fano.glued_h0(fano.ZR(r), 1))


def test_glued_basis_sections_agree_on_s():
    z = fano.ZRS(1, 1)
    for lpoly, rpoly in fano.glued_basis(z, 1):
        left = {}
        for mono, c in lpoly.items():
            sm = fano.pr_restrict(mono)
            if sm is not None:
                left[sm] = left.get(sm, 0) + c
        right = {}
        for mono, c in rpoly.items():
            sm = fano.pr_restrict(mono)
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

    def counted(z, m):
        calls.append(m)
        return glued_basis(z, m)

    monkeypatch.setattr(fano, "glued_basis", counted)
    monkeypatch.setattr(fano, "glued_h0", None)  # never called
    assert fano.degree_one_generation(fano.ZRS(1, 2), 3)
    assert calls == [1, 2, 3]


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
    left, right = z.left_basis(m), z.right_basis(m)
    srows = {sm: i for i, sm in enumerate(oracles.s_basis(m, m))}
    rows = [[0] * (len(left) + len(right)) for _ in srows]
    for c, mono in enumerate(left):
        sm = fano.pr_restrict(mono)
        if sm is not None:
            rows[srows[sm]][c] = 1
    for c, mono in enumerate(right):
        sm = z.right_restrict(mono)
        if sm is None:
            continue
        if z.swap:
            sm = fano.swap_factors(sm)
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
    index = column_index(z.left_basis(m), z.right_basis(m))
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
            basis = fano.glued_basis(z, m)
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


def test_glued_basis_spans_dense_kernel():
    for z in oracle_configs(3):
        for m in (1, 2):
            _, left, right = dense_system(z, m)
            index = column_index(left, right)
            kernel = [dense_vector(b, index) for b in dense_basis(z, m)]
            ours = [dense_vector(b, index) for b in fano.glued_basis(z, m)]
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


def triangle_pairs(sections):
    return [(f, g) for i, f in enumerate(sections) for g in sections[i:]]


def test_product_rank_drops_only_exact_duplicates():
    # s1 * s1, s1 * s2 and s2 * s2 share their support; s2 * s2 repeats
    # s1 * s1 exactly, s1 * s2 differs from it in one coefficient
    s1, s2 = ({(1, 0): 1}, {(0, 1): 1}), ({(1, 0): 1}, {(0, 1): -1})
    assert fano._product_rank([s1, s2], None, 2) == 2
    assert oracles.tuple_product_rank(triangle_pairs([s1, s2]), 2) == 2
    assert fano._product_rank([s1], [s1, s2, s1], 2) == 2
    assert oracles.tuple_product_rank([(s1, s1), (s1, s2), (s1, s1)], 2) == 2


# exponents near 0, across 2^8 and across 2^12, so that sums cross field
# widths a fixed packing would pick
EXPONENT = st.one_of(st.integers(0, 3), st.integers(250, 260),
                     st.integers(4090, 4100))
COEFFICIENT = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def product_bases(draw):
    """A list of 1-5 glued sections, and either None (the unordered pairs
    of the list) or a second such list. Each side draws its at most two
    terms from one small pool of 4- or 5-tuple exponents, so that products
    meet."""
    sides = []
    for _ in range(2):
        n = draw(st.sampled_from([4, 5]))
        pool = draw(st.lists(st.tuples(*[EXPONENT] * n), min_size=1,
                             max_size=4))
        sides.append(st.dictionaries(st.sampled_from(pool), COEFFICIENT,
                                     max_size=2))
    sections = st.lists(st.tuples(*sides), min_size=1, max_size=5)
    return draw(sections), draw(st.none() | sections)


X, Y = (1, 0, 0, 0), (0, 1, 0, 0)


@settings(max_examples=150, deadline=None)
@given(product_bases())
# single-term sections only, on both sides; a left times a right one is 0
@example(([({X: 1}, {}), ({}, {Y: 1})],
          [({Y: 1}, {}), ({}, {X: 1}), ({}, {Y: 1})]))
@example(([({X: 1}, {}), ({Y: 1}, {}), ({}, {X: 1})], None))
# the unit column XY also lies in X * (X + Y) and in (X, Y) * (Y, X)
@example(([({X: 1}, {})], [({Y: 1}, {}), ({X: 1, Y: 1}, {})]))
@example(([({X: 1}, {}), ({X: 1}, {Y: 1})], [({Y: 1}, {}), ({Y: 1}, {X: 1})]))
# single-term sections with coefficients other than 1
@example(([({X: 2}, {}), ({}, {Y: -3})],
          [({Y: -2}, {}), ({}, {X: 3}), ({X: 3, Y: -2}, {Y: 2})]))
# two-term sections, left-only against right-only: their products are 0
@example(([({X: 1, Y: -1}, {})], [({}, {X: 2, Y: 3})]))
@example(([({X: 1, Y: -1}, {}), ({}, {X: 2, Y: 3})], None))
def test_product_rank_matches_tuple_route(bases):
    first, second = bases
    if second is None:
        pairs = triangle_pairs(first)
    else:
        pairs = [(f, g) for f in first for g in second]
    assert (fano._product_rank(first, second, len(pairs))
            == oracles.tuple_product_rank(pairs, len(pairs)))


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
    assert fano._product_rank(first, second, 24) == 24
    assert oracles.tuple_product_rank(pairs, 24) == 24


def test_side_tag_keeps_left_and_right_columns_apart():
    # the 4-field right monomial packs to the int of the first 5-field left
    # one untagged, and to that of the second with a tag bit below the top
    # field; either way f * f and f * g would land on one column, as 2 and 0
    for left in ((0, 1, 0, 0, 1), (1, 1, 0, 0, 1)):
        f = ({left: 1}, {(1, 0, 0, 1): 1})
        g = ({left: 1}, {(1, 0, 0, 1): -1})
        assert fano._product_rank([f, g], None, 3) == 2
        assert oracles.tuple_product_rank(triangle_pairs([f, g]), 3) == 2
        assert fano._product_rank([f], [g], 1) == 1
    # a left-only section times a right-only one is zero
    assert fano._product_rank([unit_section(0, (1, 0))],
                              [unit_section(1, (1, 0))], 0) == 0
    # 2 * 127 = 254 sets 8-bit fields; a right x right product fills them up
    # to 254 right below its two tag bits, which add to one bit above them
    monos = ((127, 127), (127, 0), (0, 127), (0, 0))
    sections = [unit_section(side, e) for side in (0, 1) for e in monos]
    columns = {(side, (a1 + a2, b1 + b2)) for side in (0, 1)
               for a1, b1 in monos for a2, b2 in monos}
    n = len(columns)
    assert fano._product_rank(sections, None, n) == n == 18
    assert oracles.tuple_product_rank(triangle_pairs(sections), n) == n


def test_product_rank_sums_terms_on_a_shared_column():
    # (x - y)(x + y) = x^2 - y^2: the two xy terms cancel, so the product
    # equals the degree-2 section x^2 - y^2 times 1
    f = ({}, {(1, 0): 1, (0, 1): -1})
    h = ({}, {(1, 0): 1, (0, 1): 1})
    g = ({}, {(2, 0): 1, (0, 2): -1})
    one = ({}, {(0, 0): 1})
    pairs = [(s1, s2) for s1 in (f, g) for s2 in (h, one)]
    assert fano._product_rank([f, g], [h, one], 4) == 3
    assert oracles.tuple_product_rank(pairs, 4) == 3


def test_glued_h0_guard_fires(monkeypatch):
    monkeypatch.setattr(fano, "comb", lambda n, k: comb(n, k) + 1)
    with pytest.raises(AssertionError, match="fiber-product"):
        fano.glued_h0(fano.ZR(0), 1)
    monkeypatch.undo()
    # the last monomial of each P(r) basis lost from the enumeration; it
    # vanishes on S, so only the dimension count can see it
    pr_basis = fano.pr_basis
    monkeypatch.setattr(fano, "pr_basis",
                        lambda r, a, b: pr_basis(r, a, b)[:-1])
    with pytest.raises(AssertionError, match="fiber-product"):
        fano.glued_h0(fano.ZRS(1, 2), 2)


def test_product_rank_guard_fires(monkeypatch):
    # one section short in every degree past 1 lowers each target rank
    glued_basis = fano.glued_basis
    monkeypatch.setattr(fano, "glued_basis", lambda z, m: (
        glued_basis(z, m)[:-1] if m >= 2 else glued_basis(z, m)))
    with pytest.raises(AssertionError, match="leave the glued section"):
        fano.degree_one_generation(fano.ZR(0), 2)
    with pytest.raises(AssertionError, match="leave the glued section"):
        fano.quadric_kernel_dim(fano.ZRS(0, 1))
