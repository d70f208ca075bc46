import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sncgeom import lattice


def test_rank_simple():
    assert lattice.rank([[1, 0], [0, 1]]) == 2
    assert lattice.rank([[1, 2], [2, 4]]) == 1
    assert lattice.rank([[0, 0], [0, 0]]) == 0
    assert lattice.rank([]) == 0


def test_rank_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]
    assert lattice.rank(rows) == 2


def test_det_int():
    assert lattice.det_int([[2, 0], [0, 3]]) == 6
    assert lattice.det_int([[1, 2], [3, 4]]) == -2
    assert lattice.det_int([[1, 2], [2, 4]]) == 0
    assert lattice.det_int([]) == 1


def test_det_vs_permutation_expansion():
    rng = random.Random(5)
    from itertools import permutations

    def perm_det(m):
        n = len(m)
        total = 0
        for perm in permutations(range(n)):
            sign = 1
            seen = [False] * n
            # sign via cycle decomposition
            p = list(perm)
            for i in range(n):
                if seen[i]:
                    continue
                j = i
                clen = 0
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
                    clen += 1
                if clen % 2 == 0:
                    sign = -sign
            prod = 1
            for i in range(n):
                prod *= m[i][perm[i]]
            total += sign * prod
        return total

    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert lattice.det_int(m) == perm_det(m)


def test_solve_exact():
    x = lattice.solve([[2, 0], [0, 4]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 4)]


def test_solve_inconsistent():
    assert lattice.solve([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_underdetermined():
    x = lattice.solve([[1, 1, 1]], [3])
    assert x is not None
    assert sum(x) == 3


def test_kernel_basis():
    ker = lattice.kernel_basis([[1, 1, 1]])
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0


def test_kernel_of_full_rank_is_empty():
    assert lattice.kernel_basis([[1, 0], [0, 1]]) == []


def test_smith_normal_form_known():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    snf = oracles.smith_normal_form(m)
    assert snf.diagonal == lattice.smith_normal_form(m) == [2, 2, 156]
    assert snf.check(m)


def test_smith_normal_form_rectangular():
    m = [[1, 2, 3], [4, 5, 6]]
    snf = oracles.smith_normal_form(m)
    assert snf.check(m)
    assert snf.diagonal == lattice.smith_normal_form(m) == [1, 3]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_smith_normal_form_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)
    mat = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
    snf = oracles.smith_normal_form(mat)
    assert snf.check(mat)
    assert lattice.smith_normal_form(mat) == snf.diagonal
    nonzero = [d for d in snf.diagonal if d]
    assert len(nonzero) == oracles.rank(mat)


def test_smith_normal_form_terminates_without_entry_growth():
    # an in-place Euclid on row/column t with swaps let these entries grow
    # past 10**300 without returning
    m = [[-12, -12, 10, -12, -16], [6, 12, -3, 6, 6],
         [-24, -22, 8, -25, -21], [-8, -7, -2, -6, -3],
         [-14, -6, 7, -9, -14], [18, 18, -3, 11, 15]]
    assert lattice.smith_normal_form(m) == [1, 1, 1, 1, 12]
    assert oracles.smith_normal_form(m).check(m)


def _sympy_invariants(rows):
    try:
        import sympy
        from sympy.matrices.normalforms import invariant_factors
    except ImportError:
        return None
    return [abs(int(x)) for x in
            invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if x]


# clearing the unit pivot at row 0, column 5 leaves the 6x5 matrix above
CORE_IS_THE_ENTRY_GROWTH_CASE = [
    [6, 6, -2, 6, 6, -1], [0, 0, 6, 0, -4, -2], [0, 6, -1, 0, 0, 1],
    [0, 2, 0, -1, 3, -4], [-2, -1, -4, 0, 3, -1], [-2, 6, 3, 3, -2, -2],
    [6, 6, 1, -1, 3, 2]]
SMITH_ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 6, -12])
SMITH_MATRICES = st.integers(1, 7).flatmap(lambda m: st.lists(
    st.lists(SMITH_ENTRIES, min_size=m, max_size=m), min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(SMITH_MATRICES)
@example(CORE_IS_THE_ENTRY_GROWTH_CASE)
def test_invariant_factors_match_dense_smith_form(rows):
    snf = oracles.smith_normal_form(rows)
    assert snf.check(rows)
    dense = [d for d in snf.diagonal if d]
    sparse = lattice.invariant_factors(
        [{c: x for c, x in enumerate(row) if x} for row in rows])
    assert sparse == dense
    theirs = _sympy_invariants(rows)
    assert theirs is None or sparse == theirs
    if rows == CORE_IS_THE_ENTRY_GROWTH_CASE:
        assert sparse == [1, 1, 1, 1, 1, 12]


UNIT_FREE_ENTRIES = st.sampled_from(
    [0, 0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 12, -12])


@st.composite
def unit_free_matrices(draw):
    """Matrices with no ±1 entry, tall or wide, with some rows and columns
    set to zero, so that the finish after the unit rounds does all the
    work."""
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(UNIT_FREE_ENTRIES, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=m // 2))
    return [[0 if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(rows)]


@settings(max_examples=150, deadline=None)
@given(unit_free_matrices())
@example([[2, 3], [3, 2]])
@example([[0, 0], [0, 0], [0, 0]])
def test_invariant_factors_without_units_match_the_oracles(rows):
    snf = oracles.smith_normal_form(rows)
    assert snf.check(rows)
    dense = snf.diagonal
    assert lattice.smith_normal_form(rows) == dense
    sparse = lattice.invariant_factors(
        [{c: x for c, x in enumerate(row) if x} for row in rows])
    assert sparse == [d for d in dense if d]
    theirs = _sympy_invariants(rows)
    assert theirs is None or sparse == theirs


def test_invariant_factors_simple():
    assert lattice.invariant_factors([]) == []
    assert lattice.invariant_factors([{}, {4: 0}]) == []
    assert lattice.invariant_factors([{0: 2, 1: 4}, {1: 6}]) == [2, 6]
    # any hashable column keys
    assert lattice.invariant_factors([{"a": 1, "b": 1}, {"a": 1, "b": -1}]) \
        == [1, 2]


def test_invariant_factors_leaves_its_input_unchanged():
    rows = [{0: 1, 1: 2, 3: 0}, {0: -1, 2: 1}, {1: 2, 2: 4, 0: 1}, {}]
    before = [list(row.items()) for row in rows]
    assert lattice.invariant_factors(rows) == [1, 1, 8]
    assert [list(row.items()) for row in rows] == before


def test_a_row_that_gains_a_unit_later_is_pivoted(monkeypatch):
    """{0: 2, 1: 3} has no unit at its turn; the pivot of the other row on
    column 0 leaves it {1: 1, 2: -2}, which the next round pivots, so no
    core is left to the least-|x| finish."""
    cores = []
    real = lattice._core_invariants

    def recording(rows):
        cores.append(list(rows))
        return real(rows)

    monkeypatch.setattr(lattice, "_core_invariants", recording)
    rows = [{0: 2, 1: 3}, {0: 1, 1: 1, 2: 1}]
    assert lattice.invariant_factors(rows) == [1, 1]
    assert cores == [[]]


@st.composite
def incidence_rows(draw):
    """Sparse rows of the matrices the glue report eliminates: every column
    has two entries ±1 in two rows. "unsigned" is a graph incidence matrix
    with both entries 1; "signed" draws each sign, like the simplicial d1
    and d2 and the relation matrix of the loop group; "loop" adds a column
    whose two entries fall in one row, a letter that occurs twice in one
    relation."""
    shape = draw(st.sampled_from(["unsigned", "signed", "loop"]))
    n = draw(st.integers(2, 40))
    sign = st.just(1) if shape == "unsigned" else st.sampled_from([1, -1])
    columns = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                      st.integers(1, n - 1), sign, sign),
                            max_size=2 * n))
    rows = [{} for _ in range(n)]
    for c, (i, step, s, t) in enumerate(columns):
        rows[i][c] = s
        rows[(i + step) % n][c] = t
    if shape == "loop":
        i, s, t = draw(st.integers(0, n - 1)), draw(sign), draw(sign)
        rows[i][len(columns)] = s + t
    return rows, len(columns) + (shape == "loop")


@settings(max_examples=120, deadline=None)
@given(incidence_rows())
def test_unit_phase_on_incidence_shapes(drawn):
    """Unit pivots on incidence matrices up to 40 rows, where clearing one
    column fills others over several steps, give the nonzero diagonal of
    the dense Smith form, and their count is the rank."""
    rows, width = drawn
    dense = [[row.get(c, 0) for c in range(width)] for row in rows]
    snf = oracles.smith_normal_form(dense)
    sparse = lattice.invariant_factors(rows)
    assert sparse == [d for d in snf.diagonal if d]
    assert len(sparse) == oracles.rank(dense)


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    SMITH_MATRICES.map(lambda rows: [{c: x for c, x in enumerate(row) if x}
                                     for row in rows]),
    incidence_rows().map(lambda drawn: drawn[0])), st.randoms())
def test_invariant_factors_ignore_row_order_and_column_labels(rows, rng):
    """The pivot order follows the row order and each row's column order;
    the Smith invariants follow neither."""
    labels = sorted({c for row in rows for c in row})
    relabel = dict(zip(labels, rng.sample(range(10 * len(labels) + 1),
                                          len(labels))))
    moved = []
    for row in rng.sample(rows, len(rows)):
        items = list(row.items())
        rng.shuffle(items)
        moved.append({relabel[c]: x for c, x in items})
    assert lattice.invariant_factors(moved) == lattice.invariant_factors(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_rank_mod_p_certificate(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = rng.randint(1, 6)
    mat = [[rng.randint(-20, 20) for _ in range(m)] for _ in range(n)]
    exact = oracles.rank(mat)
    modular = lattice.rank_mod_p(mat)
    assert modular <= exact  # modular rank never exceeds the rational rank


def test_rank_mod_p_detects_char_drop():
    p = 46337
    assert lattice.rank_mod_p([[p]]) == 0
    assert lattice.rank([[p]]) == 1


def test_sparse_rank_simple():
    # the rank over Q of sparse vectors is the echelon's pivot count
    assert len(lattice._echelon([])) == 0
    assert len(lattice._echelon([{}, {3: 0}])) == 0
    assert len(lattice._echelon([{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 5}])) == 2
    # any comparable column keys; the order of the vectors does not matter
    vecs = [{(1, "b"): 2, (0, "a"): -1}, {(0, "a"): 3, (2, "c"): 1},
            {(1, "b"): 6, (2, "c"): 1}]
    assert (len(lattice._echelon(vecs)) == len(lattice._echelon(vecs[::-1]))
            == 2)


SPARSE_ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 7, 46337])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: st.lists(
           st.lists(SPARSE_ENTRIES, min_size=m, max_size=m), max_size=9)),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.integers(-3, 3)), max_size=4))
def test_sparse_rank_matches_dense_rank(rows, combos):
    rows = list(rows)
    for i, j, k in combos:  # dependent rows: combinations of drawn ones
        if rows:
            a, b = rows[i % len(rows)], rows[j % len(rows)]
            rows.append([x + k * y for x, y in zip(a, b)])
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    assert len(lattice._echelon(sparse)) == oracles.rank(rows)
    # the product oracle's own elimination, on the same vectors
    assert oracles.sparse_fraction_rank(sparse) == oracles.rank(rows)


def test_mat_mul_identity():
    m = [[1, 2], [3, 4]]
    assert oracles.mat_mul(m, oracles.identity(2)) == m
    assert oracles.transpose(m) == [[1, 3], [2, 4]]


# -- the readers of the sparse echelon against the dense oracles ------------

READER_ENTRIES = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]),
    st.fractions(-3, 3, max_denominator=4))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda m: st.lists(
           st.lists(READER_ENTRIES, min_size=m, max_size=m), max_size=6)),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.fractions(-2, 2, max_denominator=3)),
                max_size=3),
       st.lists(READER_ENTRIES, min_size=9, max_size=9),
       st.booleans())
@example([], [], [0] * 9, False)
@example([[]], [], [1] * 9, False)
@example([[]], [], [0] * 9, False)
@example([[0, 0, 0], [0, 0, 0]], [], [0, 1] + [0] * 7, False)
@example([[1, 1], [1, 1]], [], [0, 1] + [0] * 7, False)
@example([[2, 4, Fraction(1, 2)], [1, 2, Fraction(1, 4)]], [], [1] * 9, True)
def test_readers_match_oracles(rows, combos, draws, consistent):
    rows = [list(row) for row in rows]
    for i, j, k in combos:  # dependent rows: combinations of drawn ones
        if rows:
            a, b = rows[i % len(rows)], rows[j % len(rows)]
            rows.append([x + k * y for x, y in zip(a, b)])
    if consistent:  # b = M x for a drawn x
        b = [sum(r * x for r, x in zip(row, draws)) for row in rows]
    else:  # usually outside the column span of a deficient M
        b = draws[:len(rows)]
    assert lattice.rank(rows) == oracles.rank(rows)
    assert lattice.solve(rows, b) == oracles.solve(rows, b)
    if consistent:
        assert lattice.solve(rows, b) is not None
    assert lattice.kernel_basis(rows) == oracles.kernel_basis(rows)
    # one augmented echelon gives both, whether or not b is in the span
    assert _sparse_solve_and_kernel(rows, b) == (
        lattice.solve(rows, b), lattice.kernel_basis(rows))
    ints = oracles._integerize_rows(rows)
    assert lattice.smith_normal_form(ints) == \
        oracles.smith_normal_form(ints).diagonal


def _sparse_solve_and_kernel(rows, b):
    """`lattice.sparse_solve_and_kernel` on dense rows augmented by b, its
    vectors as Fractions after checking that each is in lowest terms."""
    m = len(rows[0]) if rows else 0
    sol, kernel = lattice.sparse_solve_and_kernel(
        [lattice._sparse([*row, x]) for row, x in zip(rows, b)], m)
    vectors = kernel if sol is None else [sol, *kernel]
    for num, den in vectors:
        assert len(num) == m and den > 0 and gcd(den, *num) == 1
    return (None if sol is None else [Fraction(x, sol[1]) for x in sol[0]],
            [[Fraction(x, den) for x in num] for num, den in kernel])


def test_clear_denominators():
    cls, mult = lattice.clear_denominators((Fraction(1, 2), Fraction(2, 3)))
    assert cls == (3, 4) and mult == 6


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9),
                          st.fractions(-9, 9, max_denominator=12)),
                max_size=6),
       st.integers(-12, 12).filter(bool))
@example([Fraction(2, 3), Fraction(4, 3)], 1)
@example([0, 0, 0], -5)
@example([], -1)
def test_rational_vector_form_matches_fractions(row, scale):
    """clear_denominators against Fraction arithmetic: the same vector over
    the lcm of the denominators, so (2/3, 4/3) gives ((2, 4), 3) and a zero
    vector (0, ..., 0) over 1. That pair is in lowest terms, and
    lowest_terms gives it back from any nonzero multiple of it, negative
    denominators included."""
    num, den = lattice.clear_denominators(row)
    assert [Fraction(x, den) for x in num] == [Fraction(x) for x in row]
    assert den == lcm(*[Fraction(x).denominator for x in row])
    assert lattice.lowest_terms([x * scale for x in num], den * scale) == (
        list(num), den)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        lattice.solve([[1, 2]], [1, 2])
    with pytest.raises(ValueError):
        lattice.solve([], [1])


def test_solve_and_kernel_when_b_is_a_pivot():
    rows = [[1, 2, 0], [2, 4, 0]]
    assert _sparse_solve_and_kernel(rows, [1, 3]) == (
        None, lattice.kernel_basis(rows))
    assert lattice.sparse_solve_and_kernel(
        [{0: 1, 1: 2, 3: 1}, {0: 2, 1: 4, 3: 3}], 3) == (
        None, [([-2, 1, 0], 1), ([0, 0, 1], 1)])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.integers(0, 5).flatmap(lambda m: st.lists(
           st.lists(st.integers(-6, 6), min_size=m, max_size=m),
           max_size=4)))
@example(2, [])
@example(3, [[]])
@example(5, [[5, 10], [0, 0]])
def test_rank_mod_p_matches_row_space_count(p, rows):
    assert lattice.rank_mod_p(rows, p) == oracles.rank_mod_p(rows, p)


def test_rank_mod_p_matches_numpy_oracle():
    """Optional oracle: the vectorized elimination the library used to
    run, on matrices too large to count."""
    pytest.importorskip("numpy")
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice((3, 7, 46337))
        n, m = rng.randint(0, 9), rng.randint(1, 9)
        rows = [[rng.randint(-50, 50) * rng.randint(0, 1) for _ in range(m)]
                for _ in range(n)]
        rows += [[x + p * y for x, y in zip(rows[0], rows[-1])]] if rows else []
        assert lattice.rank_mod_p(rows, p) == \
            oracles.numpy_rank_mod_p(rows, p)
