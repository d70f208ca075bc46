import copy
import decimal
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import evaluate, parse_poly, subs
from sncgeom import lattice, poly
from sncgeom.poly import MultiPoly, PolyMatrix

VARS = ("x1", "x2", "x3")


def P(text, variables=VARS):
    return parse_poly(text, variables)


def test_parse_roundtrip():
    f = P("3*x1^2*x3 - x2 + 7")
    assert f.terms == {(2, 0, 1): 3, (0, 1, 0): -1, (0, 0, 0): 7}
    assert P(str(f)) == f


def test_parse_parentheses():
    assert P("(x1 + x2)*(x1 - x2)") == P("x1^2 - x2^2")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        P("x1 +")
    with pytest.raises(ValueError):
        P("y1")


def test_pow_rejects_negative_exponent():
    f = P("x1 + 1")
    assert f ** 0 == 1 and f ** 2 == f * f
    with pytest.raises(ValueError):
        f ** -2


def test_eq_with_foreign_objects_is_false():
    f, one = P("x1 + 1"), P("1")
    assert (f == "foo") is False and (f != "foo") is True
    assert f != None  # noqa: E711
    assert one != Fraction(1, 2)  # not a constant over Z
    assert one == 1 and one == Fraction(2, 2)
    assert P("x1", ("x1", "x2")) != P("x1")  # another ring


def test_ring_axioms_spot():
    f, g, h = P("x1 + 1"), P("x2^2 - x3"), P("2*x1*x3")
    assert f * (g + h) == f * g + f * h
    assert (f - f).is_zero()
    assert f * g == g * f


def test_evaluate():
    f = P("x1^2*x2 + x3")
    assert evaluate(f, (2, 3, 5)) == 17


def test_subs_polynomial():
    f = P("x1^2 + x2")
    g = subs(f, {"x1": P("x2 + 1")})
    assert g == P("x2^2 + 3*x2 + 1")


def test_divide_exact():
    f = P("x1^2 - x2^2")
    g = P("x1 - x2")
    assert poly.divide_exact(f, g) == P("x1 + x2")
    assert poly.divide_exact(P("x1^2 + 1"), g) is None


def test_divide_exact_integer_content():
    assert poly.divide_exact(P("2*x1"), P("2")) == P("x1")
    assert poly.divide_exact(P("x1"), P("2")) is None
    assert poly.divide_exact(P("4*x1^2 - 6*x1"), P("-2*x1")) == P("3 - 2*x1")


def monomial(variables, **exps):
    """The exponent tuple of a monomial of Z[variables], given by name."""
    return tuple(exps.get(v, 0) for v in variables)


# y in the lowest field, in a middle field, and below two fields; x always
# precedes y, so x leads x + y^20000 in each.
@pytest.mark.parametrize("domain", [
    poly.Ring(("x", "y")), poly.Ring(("x", "y", "z")),
    poly.Ring(("z", "x", "y"))])
def test_divide_exact_raises_when_a_shifted_term_leaves_the_field(domain):
    """x*y^20000 / (x + y^20000) in the ring `domain`: the first quotient
    term y^20000 shifts the non-leading term y^20000 of g to y^40000, past
    its field."""
    vs = domain.variables
    f = MultiPoly(vs, {monomial(vs, x=1, y=20000): 1})
    g = MultiPoly(vs, {monomial(vs, x=1): 1, monomial(vs, y=20000): 1})
    with pytest.raises(OverflowError):
        poly.divide_exact(f, g)


# Exact divisibility does not depend on the monomial order, so each pair
# fails in every ring: both variable orders, and with an idle variable in
# the highest or the lowest field.
@pytest.mark.parametrize("domain", [
    poly.Ring(("x", "y")), poly.Ring(("y", "x")),
    poly.Ring(("x", "y", "z")), poly.Ring(("z", "y", "x"))])
@pytest.mark.parametrize("f, g", [
    ("x^2 + 1", "x + y"),          # stops at the remainder y^2 + 1
    ("x*y + 1", "y + 1"),          # stops at the remainder 1 - x
    ("y^2 + x", "y"),              # the leading monomial x is not y times
    ("x^3*y + x*y^2 + y", "x*y + 1"),
    ("x^2 + x", "2*x"),            # x divides x^2, but 2 does not divide 1
])
def test_failing_division_matches_tuple_oracle(domain, f, g):
    f, g = P(f, domain.variables), P(g, domain.variables)
    assert poly.divide_exact(f, g) is None
    tf, tg = oracles.TuplePoly.of(f), oracles.TuplePoly.of(g)
    assert oracles.tuple_divide_exact(tf, tg) is None


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_divide_exact_of_product(seed):
    rng = random.Random(seed)
    f = poly._random_poly(rng, VARS, degree=2, nterms=3)
    g = poly._random_poly(rng, VARS, degree=2, nterms=3)
    if g.is_zero():
        return
    q = poly.divide_exact(f * g, g)
    assert q == f


# -- the trusted constructor behind +, -, * and ** ---------------------------

XY = ("x", "y")
COEFFS = st.integers(-12, 12)


@st.composite
def same_ring_polys(draw, count=3):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return [MultiPoly(XY, draw(st.dictionaries(exps, COEFFS, max_size=4)))
            for _ in range(count)]


def assert_normalised(f):
    """f is what the validating public constructor makes of its terms."""
    g = MultiPoly(f.variables, f.terms)
    assert f.terms == g.terms and hash(f) == hash(g) and f == g
    for c in f.terms.values():
        assert c != 0 and type(c) is int


@pytest.mark.parametrize("c", (0, 3, -3))
def test_constant_hashes_like_its_int(c):
    """A constant equals its int, so it hashes like it: the two are one
    member of a set. A non-constant polynomial is neither."""
    x1 = P("x1")
    f = x1 + c
    for k in (MultiPoly.const(VARS, c), x1 - x1 + c,
              MultiPoly(VARS, {(0, 0, 0): c})):
        assert k == c and hash(k) == hash(c)
        assert len({k, c}) == 1 and c in {k} and k in {c}
        assert f != k and f != c and f not in {k, c}
        assert len({f, k, c}) == 2


@settings(max_examples=200, deadline=None)
@given(same_ring_polys(), st.integers(0, 3),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_trusted_arithmetic_is_normalised(polys, k, point):
    f, g, h = polys
    results = [f + g, f - g, -f, f * g, f ** k, f * (g + h), f + 2, 3 * g]
    for r in results:
        assert_normalised(r)
    assert (f - f).is_zero() and (f + (-f)).terms == {}
    assert (f + g) - g == f
    assert f * (g + h) == f * g + f * h
    at_f, at_g = evaluate(f, point), evaluate(g, point)
    assert evaluate(f * g, point) == at_f * at_g
    assert evaluate(f + g, point) == at_f + at_g


# -- packed monomials in one interned ring ----------------------------------

LIMIT = poly.MAX_EXPONENT + 1  # 2**15, the first exponent a field refuses
# small exponents, sums around 2**15 from two halves, and the top of a field
EXPONENTS = st.one_of(st.integers(0, 3),
                      st.integers(LIMIT // 2 - 2, LIMIT // 2 + 1),
                      st.integers(LIMIT - 4, LIMIT - 1))


def packed_ring(draw):
    """1-6 variables and a strategy for monomials with EXPONENTS."""
    vs = tuple(f"x{i}" for i in range(draw(st.integers(1, 6))))
    return vs, st.tuples(*[EXPONENTS] * len(vs))


@st.composite
def packed_pairs(draw):
    """(f, g) in one ring of 1-6 variables; g repeats some monomials of f
    with the coefficient that cancels them, or doubles them."""
    vs, monomials = packed_ring(draw)
    f_terms = draw(st.dictionaries(monomials, COEFFS, max_size=5))
    g_terms = draw(st.dictionaries(monomials, COEFFS, max_size=4))
    f = MultiPoly(vs, f_terms)
    for e, c in f.terms.items():
        if draw(st.booleans()):
            g_terms[e] = draw(st.sampled_from((-c, c)))
    return f, MultiPoly(vs, g_terms)


def _overflows(f, g):
    """Whether some monomial of f times some monomial of g has an exponent
    above the field: the largest exponents of one variable add up."""
    if f.is_zero() or g.is_zero():
        return False
    return any(max(e[i] for e in f.terms) + max(e[i] for e in g.terms)
               > poly.MAX_EXPONENT for i in range(len(f.variables)))


@settings(max_examples=300, deadline=None)
@given(packed_pairs(), st.integers(-3, 3))
def test_packed_arithmetic_matches_tuple_oracle(pair, k):
    f, g = pair
    tf, tg = oracles.TuplePoly.of(f), oracles.TuplePoly.of(g)
    pairs = [(f + g, tf + tg), (f - g, tf - tg), (g - f, tg - tf),
             (-f, -tf), (f + k, tf + k), (k - f, tf * -1 + k),
             (f * k, tf * k)]
    if _overflows(f, g):
        with pytest.raises(OverflowError):
            f * g
    else:
        pairs.append((f * g, tf * tg))
        if not g.is_zero():
            q = poly.divide_exact(f * g, g)
            assert q == f
            assert q.terms == oracles.tuple_divide_exact(tf * tg, tg).terms
    small = all(x <= 3 for h in (f, g) for e in h.terms for x in e)
    if small:  # a failing division may run through many remainders
        q, tq = poly.divide_exact(f, g), oracles.tuple_divide_exact(tf, tg)
        assert (q is None) == (tq is None)
        if q is not None:
            pairs.append((q, tq))
    for packed, tup in pairs:
        assert packed.terms == tup.terms
        assert_normalised(packed)


@st.composite
def product_triples(draw):
    """(ring, triples, cancels): up to four (sign, a, b) triples of one ring
    drawn like `packed_pairs`; when cancels, each triple is followed by its
    negative with the factors swapped, so the products cancel completely."""
    vs, monomials = packed_ring(draw)
    polys = st.dictionaries(monomials, COEFFS, max_size=4).map(
        lambda terms: MultiPoly(vs, terms))
    triples = draw(st.lists(st.tuples(st.sampled_from((1, -1)), polys, polys),
                            max_size=4))
    cancels = draw(st.booleans())
    if cancels:
        triples += [(-sign, b, a) for sign, a, b in triples]
    return poly.Ring(vs), triples, cancels


@settings(max_examples=150, deadline=None)
@given(product_triples())
def test_sum_of_products_matches_tuple_oracle(case):
    ring, triples, cancels = case
    if any(_overflows(a, b) for _, a, b in triples):
        with pytest.raises(OverflowError):
            poly._sum_of_products(ring, triples)
        return
    got = poly._sum_of_products(ring, triples)
    want = oracles.TuplePoly._trusted(ring.variables, {})
    for sign, a, b in triples:
        want = want + oracles.TuplePoly.of(a) * oracles.TuplePoly.of(b) * sign
    assert got.ring is ring and got.terms == want.terms
    assert_normalised(got)
    if cancels or not triples:
        assert got.is_zero()


def test_sum_of_products_edge_cases():
    ring = poly.Ring(XY)
    assert poly._sum_of_products(ring, []).ring is ring
    assert poly._sum_of_products(ring, []).is_zero()
    x = MultiPoly.var(XY, "x")
    # 2x * 3x - 6x * x cancels across products of different factors
    assert poly._sum_of_products(ring, [(1, x * 2, x * 3),
                                        (-1, x * 6, x)]) == 0
    # the overflowing products cancel, but their monomial is still refused
    top = MultiPoly(XY, {(0, LIMIT // 2): 1})
    with pytest.raises(OverflowError):
        poly._sum_of_products(ring, [(1, top, top), (-1, top, top)])
    with pytest.raises(poly.DomainMismatch):
        poly._sum_of_products(poly.Ring(("x", "y", "z")), [(1, x, x)])


def test_constructor_rejects_exponents_outside_the_field():
    for bad in (-1, LIMIT, 2 ** 40):
        with pytest.raises(ValueError):
            MultiPoly(XY, {(0, bad): 1})
    top = MultiPoly(XY, {(poly.MAX_EXPONENT, 0): 1})
    assert top.terms == {(LIMIT - 1, 0): 1}
    with pytest.raises(ValueError):
        MultiPoly(XY, {(1,): 1})


def test_product_across_the_field_raises_overflow():
    half = MultiPoly(("x", "y", "z"), {(0, LIMIT // 2, 0): 1})
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        half ** 2
    below = MultiPoly(("x", "y", "z"), {(3, LIMIT // 2 - 1, 2): 1})
    assert (half * below).terms == {(3, LIMIT - 1, 2): 1}


def test_rings_are_interned():
    assert MultiPoly(["x", "y"]).ring is MultiPoly(("x", "y")).ring
    assert MultiPoly.var(XY, "x").ring is MultiPoly(XY).ring is poly.Ring(XY)
    assert poly.Ring(("y", "x")) is not poly.Ring(XY)
    x = MultiPoly.var(XY, "x")
    assert x.variables == XY and x.ring.__reduce__() == (poly.Ring, (XY,))
    assert copy.copy(x.ring) is x.ring
    assert copy.deepcopy(x).ring is x.ring and copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x.ring)) is x.ring
    assert pickle.loads(pickle.dumps(x)).ring is x.ring
    assert pickle.loads(pickle.dumps(x)) == x
    with pytest.raises(AttributeError):
        x.variables = ("y", "x")
    with pytest.raises(TypeError):
        x.terms[(1, 0)] = 2


@pytest.mark.parametrize("a, b", [
    (MultiPoly.var(XY, "x"), MultiPoly.var(("x", "y", "z"), "x")),
    (MultiPoly.var(("x", "y"), "x"), MultiPoly.var(("y", "x"), "x")),
])
def test_domain_mismatch(a, b):
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(poly.DomainMismatch):
            op(a, b)
    with pytest.raises(poly.DomainMismatch):
        poly.divide_exact(a, b)
    with pytest.raises(poly.DomainMismatch):
        PolyMatrix.from_rows([[a, b]])
    assert a != b


# -- coefficients are exact ------------------------------------------------


@pytest.mark.parametrize("domain", [
    poly.Ring(("x",)), poly.Ring(("x", "y")), poly.Ring(("y", "z", "x"))])
def test_coerce_refuses_floats(domain):
    vs = domain.variables
    with pytest.raises(TypeError):
        MultiPoly(vs, {monomial(vs, x=1): 0.1})
    with pytest.raises(TypeError):
        MultiPoly(vs, {monomial(vs): 1, monomial(vs, x=1): 0.1})
    with pytest.raises(TypeError):
        MultiPoly.const(vs, 2.0)
    x = MultiPoly.var(vs, "x")
    with pytest.raises(TypeError):
        x * 0.5
    with pytest.raises(TypeError):
        x + 1.0
    assert x != 0.5


def test_coerce_takes_ints_without_fractions(monkeypatch):
    big = 10 ** 30 + 7
    assert MultiPoly.const(XY, big).terms[(0, 0)] is big
    assert type(MultiPoly.const(XY, True).terms[(0, 0)]) is int
    monkeypatch.setattr(poly, "Fraction", None)  # any use would raise
    assert MultiPoly.const(XY, -4).terms == {(0, 0): -4}
    assert MultiPoly(("x",), {(1,): 3}).terms == {(1,): 3}
    x = MultiPoly.var(XY, "x")
    assert (2 - x * 3 + big).terms == {(1, 0): -3, (0, 0): big + 2}


def test_coerce_rationals():
    assert MultiPoly.const(XY, Fraction(6, 3)) == 2
    assert type(MultiPoly(XY, {(1, 0): Fraction(-4, 2)}).terms[(1, 0)]) is int
    with pytest.raises(ValueError):
        MultiPoly(XY, {(1, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        MultiPoly.const(XY, Fraction(1, 2))
    with pytest.raises(ValueError):
        MultiPoly.var(XY, "x") * Fraction(1, 3)


# -- the mod-p echelon of the codimension estimator ------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_echelon_mod_p_rank_and_solution_count(seed):
    rng = random.Random(seed)
    p = rng.choice((2, 3, 5))
    nvars = rng.randint(1, 3)
    rows = [[rng.randrange(p) for _ in range(nvars + 1)]
            for _ in range(rng.randint(1, 4))]
    r, reduced = lattice.echelon_mod_p(rows, p, nvars)
    assert r == oracles.rank_mod_p([row[:nvars] for row in rows], p)
    consistent = not any(row[nvars] for row in reduced[r:])
    brute = sum(all(sum(a * x for a, x in zip(row, pt)) % p == row[nvars]
                    for row in rows)
                for pt in itertools.product(range(p), repeat=nvars))
    assert brute == (p ** (nvars - r) if consistent else 0)


def _matrix(texts):
    return PolyMatrix.from_rows([[P(t) for t in row] for row in texts])


def test_determinant_2x2():
    m = _matrix([["x1", "x2"], ["x3", "1"]])
    assert poly.determinant(m) == P("x1 - x2*x3")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5),
       st.sampled_from(("random", "zero row", "repeated row")))
def test_minor_table_matches_oracles(seed, n, shape):
    """`determinant` equals Bareiss and Leibniz, `adjugate` the Leibniz
    cofactors, and `_det_adj` both, with zero entries, a zero row or a
    repeated row, from 1x1 to 5x5."""
    rng = random.Random(seed)
    vs = VARS[:rng.randint(1, 3)]

    def entry():
        if rng.random() < 0.25:
            return MultiPoly(vs)
        return poly._random_poly(rng, vs, degree=1, nterms=2)

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if shape == "zero row":
        rows[rng.randrange(n)] = [MultiPoly(vs)] * n
    elif shape == "repeated row" and n > 1:
        i, k = rng.sample(range(n), 2)
        rows[k] = list(rows[i])
    m = PolyMatrix.from_rows(rows)
    one = MultiPoly.const(vs, 1)
    det, adj = poly.determinant(m), poly.adjugate(m)
    assert det == oracles.det_bareiss(m) == oracles.leibniz_det(rows, one)
    assert adj == oracles.cofactor_adjugate(m)
    assert poly._det_adj(m) == (det, adj)
    if shape != "random" and n > 1:
        assert det.is_zero()


def test_products_reject_mismatched_shapes():
    row = _matrix([["x1", "x2"]])
    with pytest.raises(ValueError):
        row.matmul(row)
    for vec in ([P("x1")], [P("x1")] * 3):
        with pytest.raises(ValueError):
            row.mul_vec(vec)


def test_adjugate_identity_small():
    m = _matrix([["x1", "x2"], ["x3", "x1 + 1"]])
    adj = poly.adjugate(m)
    det = poly.determinant(m)
    prod = adj.matmul(m)
    for i in range(2):
        for j in range(2):
            want = det if i == j else det * 0
            assert (prod.entries[i][j] - want).is_zero()


def test_fuzz_suites_clean():
    assert poly.fuzz_adjugate(cases=40, seed=3) == 0
    assert poly.fuzz_adjoint_relation(cases=40, seed=3) == 0
    assert poly.fuzz_blowup_charts(cases=25, seed=3) == 0


def test_adjoint_relation_is_zero():
    h = _matrix([["x1", "x2", "1"], ["x3", "1", "x1"]])
    f = [P("x1^2"), P("x2*x3"), P("x3 - 1")]
    res = poly.derive_adjoint_relation(h, f)
    assert all(r.is_zero() for r in res)


def _two_variable_chart(f, h, j, chart):
    """Chart equations by the route `blowup_chart` replaced: built in the
    ring extended by both s and t from the oracle adjugate, then s or t set
    to 1."""
    vs = f[0].variables + ("s", "t")
    fx = [fi.extend_vars(vs) for fi in f]
    hx = PolyMatrix.from_rows([[e.extend_vars(vs) for e in row]
                               for row in h.entries])
    hj = hx.drop_col(j - 1)
    one = MultiPoly.const(vs, 1)
    det = oracles.leibniz_det(hj.entries, one)
    adj_h = oracles.cofactor_adjugate(hj).mul_vec(hx.column(j - 1))
    s, t = MultiPoly.var(vs, "s"), MultiPoly.var(vs, "t")
    fprime = fx[:j - 1] + fx[j:]
    eqs = [s * fi + t * c for fi, c in zip(fprime, adj_h)]
    exc = s * fx[j - 1] - t * det
    return [subs(e, {chart: 1}) for e in eqs + [exc]]


def test_blowup_chart_verify_both_charts():
    h = _matrix([["x1", "x2", "1"], ["x3", "1", "x1"]])
    f = [P("x1^2"), P("x2*x3"), P("x3 - 1")]
    cases = [(f, h)]
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(2, 4)
        cases.append((
            [poly._random_poly(rng, VARS, degree=2, nterms=2)
             for _ in range(n)],
            PolyMatrix.from_rows(
                [[poly._random_poly(rng, VARS, degree=1, nterms=2)
                  for _ in range(n)] for _ in range(n - 1)])))
    for f, h in cases:
        for j in range(1, h.cols + 1):
            for chart in ("s", "t"):
                ch = poly.blowup_chart(f, h, j, chart)
                assert ch.verify()
                assert len(ch.equations) == h.rows
                other = "t" if chart == "s" else "s"
                ring = f[0].variables + (other,)
                built = ch.equations + [ch.exceptional_equation]
                assert all(e.variables == ring for e in built + ch._f)
                assert all(e.variables == ring
                           for row in ch._h.entries for e in row)
                both = f[0].variables + ("s", "t")
                # in chart s the ring (..., t) is not a prefix of both
                assert [oracles.extend_vars(e, both) for e in built] \
                    == _two_variable_chart(f, h, j, chart)


def test_extend_vars_matches_per_field_route():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        f = poly._random_poly(rng, VARS[:n], degree=rng.randint(0, 4),
                              nterms=rng.randint(0, 5))
        for added in ((), ("s",), ("s", "t"), ("x4", "s", "t")):
            vs = VARS[:n] + added
            assert f.extend_vars(vs) == oracles.extend_vars(f, vs)
            assert f.extend_vars(vs).variables == vs
    f = P("x1^2*x2 - 3*x3")
    for vs in (("x1", "x2"), ("x2", "x1", "x3"), ("s",) + VARS,
               ("x1", "x3", "x2", "s")):
        with pytest.raises(ValueError, match="start with the old ones"):
            f.extend_vars(vs)
    # the per-field route itself, on a ring that is not an extension
    assert (oracles.extend_vars(f, ("s",) + VARS)
            == P("x1^2*x2 - 3*x3", ("s",) + VARS))


def test_one_cofactor_expansion_per_caller(monkeypatch):
    """Callers that need det(M) and adj(M) run one `_det_adj`."""
    sizes = []
    real = poly._det_adj

    def counting(m):
        sizes.append(m.rows)
        return real(m)

    monkeypatch.setattr(poly, "_det_adj", counting)
    h = _matrix([["x1", "x2", "1"], ["x3", "1", "x1"]])
    f = [P("x1^2"), P("x2*x3"), P("x3 - 1")]
    poly.derive_adjoint_relation(h, f)
    assert sizes == [2]
    sizes.clear()
    ch = poly.blowup_chart(f, h, 2, "t")
    assert sizes == [2]
    sizes.clear()
    assert ch.verify()
    assert sizes == []  # verify reads the chart's det and adj
    assert poly.fuzz_adjugate(cases=9, seed=4) == 0
    assert len(sizes) == 9
    sizes.clear()
    # one expansion per chart, none per verify
    assert poly.fuzz_blowup_charts(cases=40, seed=3) == 0
    assert len(sizes) == 40


@pytest.mark.parametrize("n, sums", ((1, 0), (2, 1), (3, 10), (4, 65)))
def test_cofactor_expansion_starts_from_the_entries(monkeypatch, n, sums):
    """The 1x1 minors are the entries, so `_det_adj` sums products only
    for the larger minors: none at 1x1 (the adjugate is the empty minor),
    the determinant at 2x2, the nine 2x2 cofactors and the determinant at
    3x3, and at 4x4 the sixteen 3x3 cofactors, each with its three 2x2
    minors, and the determinant: nothing is shared between cofactors."""
    calls = []
    real = poly._sum_of_products

    def counting(ring, triples):
        calls.append(ring)
        return real(ring, triples)

    rng = random.Random(n)
    m = PolyMatrix.from_rows([[poly._random_poly(rng, VARS) for _ in range(n)]
                              for _ in range(n)])
    monkeypatch.setattr(poly, "_sum_of_products", counting)
    poly._det_adj(m)
    assert len(calls) == sums


def test_internal_matrix_results_are_well_formed():
    """`drop_col`, `matmul` and `_det_adj` build their results without
    the constructor's checks; each has the right shape and equals its
    checked `from_rows` rebuild. `from_rows` still rejects ragged rows (and
    mixed rings, in `test_domain_mismatch`)."""
    rng = random.Random(7)

    def draw(rows, cols):
        return PolyMatrix.from_rows([[poly._random_poly(rng, VARS)
                                      for _ in range(cols)]
                                     for _ in range(rows)])

    for n in (1, 2, 3):
        m, wide = draw(n, n), draw(n, n + 1)
        adj = poly._det_adj(m)[1]
        results = [(adj, (n, n)), (adj.matmul(wide), (n, n + 1)),
                   (wide.matmul(draw(n + 1, 2)), (n, 2)),
                   (draw(n, 1).drop_col(0), (n, 0))]
        results += [(wide.drop_col(j), (n, n)) for j in range(n + 1)]
        for got, shape in results:
            assert (got.rows, got.cols) == shape
            assert got == PolyMatrix.from_rows(got.entries)
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        PolyMatrix.from_rows([[P("x1"), P("x2")], [P("x3")]])


def test_internal_results_with_no_rows_keep_their_columns():
    """A matrix with no rows has no first row to read its width from."""
    rng = random.Random(3)
    empty = PolyMatrix(0, 2, [])
    b = PolyMatrix.from_rows([[poly._random_poly(rng, VARS) for _ in range(3)]
                              for _ in range(2)])
    for got, shape in ((empty.matmul(b), (0, 3)), (empty.drop_col(0), (0, 1)),
                       (poly._random_system(rng, VARS, 1)[1], (0, 1))):
        assert (got.rows, got.cols) == shape
        assert got == PolyMatrix(*shape, [])


def test_blowup_chart_bad_dimensions():
    h = _matrix([["x1", "x2"]])
    with pytest.raises(ValueError):
        poly.blowup_chart([P("x1")], h, 1)


def test_ring_rejects_repeated_variable_names():
    """A ring with a repeated name would let `blowup_chart` on a ring that
    has t already take t as the new chart coordinate: f = [x1, t] and
    h = [[x1, t]] in chart s gave the exceptional equation x1 - t^2 in
    the ring (x1, t, t), and a chart that verified."""
    with pytest.raises(ValueError, match="repeated variable name"):
        poly.Ring(("x", "y", "x"))
    xt = ("x1", "t")
    x1, t = MultiPoly.var(xt, "x1"), MultiPoly.var(xt, "t")
    with pytest.raises(ValueError, match="repeated variable name"):
        poly.blowup_chart([x1, t], PolyMatrix.from_rows([[x1, t]]), 1, "s")


@pytest.mark.parametrize("degree", (1, 2))
def test_packed_draws_match_constructor_draws(degree):
    """`_random_poly` draws what the constructor route in `oracles` draws
    through `randrange` and `randint`, and leaves the rng where it leaves
    it, so seeded fuzz batches keep their inputs. The coefficient widths
    2c + 1 = 3 .. 17 lie on both sides of 4, 8 and 16, and nvars = 1 makes
    the rejection loop draw and discard 1-bit values."""
    names = ("x1", "x2", "x3", "x4", "x5")
    for seed, nv, coeff in itertools.product(range(120), range(1, 6),
                                             (1, 3, 4, 5, 7, 8)):
        packed, route = random.Random(seed), random.Random(seed)
        for nterms in (1, 2, 3):
            f = poly._random_poly(packed, names[:nv], degree, nterms, coeff)
            assert f == oracles.random_poly(route, names[:nv], degree,
                                            nterms, coeff)
            assert_normalised(f)
        assert packed.getstate() == route.getstate()


def _nearest_log_oracle(total, p):
    """The integer nearest log_p(total) in decimal arithmetic with more
    digits than total**2 * p has, enough to separate log_p(total) from
    the half-integer between two powers."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * len(str(total * p)) + 20
        x = decimal.Decimal(total).ln() / decimal.Decimal(p).ln()
        return int(x.to_integral_value(rounding=decimal.ROUND_HALF_EVEN))


@pytest.mark.parametrize("p", (2, 3, 101))
def test_nearest_log_at_powers_and_half_powers(p):
    totals = set()
    for k in range(1, 16):
        totals |= {p ** k - 1, p ** k, p ** k + 1}
        # p^(k + 1/2) lies strictly between s and s + 1
        s = math.isqrt(p ** (2 * k + 1))
        totals |= {s, s + 1}
        assert poly._nearest_log(s, p) == k
        assert poly._nearest_log(s + 1, p) == k + 1
    for total in totals:
        assert poly._nearest_log(total, p) == _nearest_log_oracle(total, p)


def test_codim_estimates():
    assert poly.rank_locus_codim_estimate(
        2, poly.SQUARE, ambient_dim=4, p=101, trials=4000, seed=0) == 4
    assert poly.rank_locus_codim_estimate(
        2, poly.N_BY_N_MINUS_1, ambient_dim=4, p=101,
        trials=2000, seed=0) == 2
    assert poly.rank_locus_codim_estimate(
        3, poly.N_BY_N_MINUS_1, ambient_dim=6, p=101,
        trials=2000, seed=0) == 2


def test_codim_estimate_rejects_bad_input():
    with pytest.raises(ValueError):
        poly.rank_locus_codim_estimate(2, poly.SQUARE, ambient_dim=4,
                                       p=100, trials=10)
    with pytest.raises(ValueError):
        poly.rank_locus_codim_estimate(2, "diag", ambient_dim=4,
                                       p=101, trials=10)
    # P^1 over F_101 has 102 points: trials bounds the directions counted
    with pytest.raises(ValueError):
        poly.rank_locus_codim_estimate(3, poly.N_BY_N_MINUS_1,
                                       ambient_dim=4, p=101, trials=101)
    assert poly.rank_locus_codim_estimate(
        3, poly.N_BY_N_MINUS_1, ambient_dim=4, p=101, trials=102) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(k, 4))),
       st.sampled_from((2, 3, 5)))
def test_subspaces_enumerate_each_subspace_once(kn, p):
    k, n = kn
    bases = list(poly._subspaces(k, n, p))
    assert len(bases) == oracles.gaussian_binomial(n, k, p)
    spans = set()
    for basis in bases:
        assert lattice.echelon_mod_p(basis, p, n)[0] == k
        # reduced row echelon: leading ones in increasing columns, zero
        # elsewhere in their column
        pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
        assert pivots == sorted(set(pivots))
        for i, c in enumerate(pivots):
            assert [row[c] for row in basis] == [int(j == i)
                                                  for j in range(k)]
        spans.add(frozenset(
            tuple(sum(a * x for a, x in zip(coeffs, col)) % p
                  for col in zip(*basis))
            for coeffs in itertools.product(range(p), repeat=k)))
    assert len(spans) == len(bases)


CODIM_SHAPES = ((2, poly.SQUARE), (3, poly.SQUARE),
                (2, poly.N_BY_N_MINUS_1), (3, poly.N_BY_N_MINUS_1))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_codim_estimate_matches_point_count(p):
    for (n, shape), seed in itertools.product(CODIM_SHAPES, range(8)):
        count = oracles.locus_incidence_count(n, shape, 4, p, seed)
        args = (n, shape, 4, p, 10 ** 4, seed)
        if count == 0:
            with pytest.raises(poly.Indeterminate):
                poly.rank_locus_codim_estimate(*args)
        else:
            assert poly.rank_locus_codim_estimate(*args) == round(
                4 - math.log(count) / math.log(p))
