import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sncgeom import poly
from sncgeom.poly import GF, QQ, ZZ, MultiPoly, PolyMatrix, parse_poly

VARS = ("x1", "x2", "x3")


def P(text, variables=VARS, domain=ZZ):
    return parse_poly(text, variables, domain)


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
    assert P("x1", domain=QQ) != P("x1")  # another ring


def test_ring_axioms_spot():
    f, g, h = P("x1 + 1"), P("x2^2 - x3"), P("2*x1*x3")
    assert f * (g + h) == f * g + f * h
    assert (f - f).is_zero()
    assert f * g == g * f


def test_prime_field_arithmetic():
    f = parse_poly("3*x1 + 4", ("x1",), GF(5))
    assert (f + parse_poly("2*x1 + 1", ("x1",), GF(5))).terms == {}


def test_evaluate_and_partial():
    f = P("x1^2*x2 + x3")
    assert f.evaluate((2, 3, 5)) == 17
    assert f.partial("x1") == P("2*x1*x2")
    assert f.partial("x3") == P("1")


def test_subs_polynomial():
    f = P("x1^2 + x2")
    g = f.subs({"x1": P("x2 + 1")})
    assert g == P("x2^2 + 3*x2 + 1")


def test_divide_exact():
    f = P("x1^2 - x2^2")
    g = P("x1 - x2")
    assert poly.divide_exact(f, g) == P("x1 + x2")
    assert poly.divide_exact(P("x1^2 + 1"), g) is None


def test_divide_exact_integer_content():
    assert poly.divide_exact(P("2*x1"), P("2")) == P("x1")
    assert poly.divide_exact(P("x1"), P("2")) is None
    f = parse_poly("x1", ("x1",), QQ)
    assert poly.divide_exact(f, parse_poly("2", ("x1",), QQ)) is not None


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_divide_exact_of_product(seed):
    rng = random.Random(seed)
    f = poly._random_poly(rng, ZZ, VARS, degree=2, nterms=3)
    g = poly._random_poly(rng, ZZ, VARS, degree=2, nterms=3)
    if g.is_zero():
        return
    q = poly.divide_exact(f * g, g)
    assert q == f


def _matrix(texts):
    return PolyMatrix.from_rows([[P(t) for t in row] for row in texts])


def test_determinant_2x2():
    m = _matrix([["x1", "x2"], ["x3", "1"]])
    assert poly.determinant(m) == P("x1 - x2*x3")


def test_determinant_methods_agree():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(2, 3)
        m = PolyMatrix.from_rows(
            [[poly._random_poly(rng, ZZ, VARS, degree=1, nterms=2)
              for _ in range(n)] for _ in range(n)])
        assert (poly.determinant(m, method="bareiss")
                - poly.determinant(m, method="cofactor")).is_zero()


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


def test_blowup_chart_verify_both_charts():
    h = _matrix([["x1", "x2", "1"], ["x3", "1", "x1"]])
    f = [P("x1^2"), P("x2*x3"), P("x3 - 1")]
    for j in (1, 2, 3):
        for chart in ("s", "t"):
            ch = poly.blowup_chart(f, h, j, chart)
            assert ch.verify()
            assert len(ch.equations) == 2


def test_blowup_chart_bad_dimensions():
    h = _matrix([["x1", "x2"]])
    with pytest.raises(ValueError):
        poly.blowup_chart([P("x1")], h, 1)


def test_singular_locus_cone():
    f = P("x1^2 + x2^2 + x3^2")
    rep = poly.singular_locus_check(f, ["x1", "x2", "x3"],
                                    trials=2000, seed=1)
    assert rep.ok and rep.on_locus_hits > 0


def test_singular_locus_smooth():
    f = parse_poly("x1*x2 - 1", ("x1", "x2"))
    rep = poly.singular_locus_check(f, None, trials=2000, seed=1)
    assert rep.ok


def test_singular_locus_detects_wrong_claim():
    f = P("x1^2 + x2^2 + x3^2")
    rep = poly.singular_locus_check(f, None, trials=2000, seed=1)
    assert not rep.ok  # the origin is singular but was claimed smooth


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
