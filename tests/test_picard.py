import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from sncgeom import lattice, picard


def test_triangle_surface():
    s = picard.triangle_surface()
    s.validate()
    assert s.length == 3
    assert s.self_intersections() == (1, 1, 1)
    assert picard.dot(s.canonical, s.canonical) == 9


def test_corner_blowup_updates_cycle():
    s = picard.blowup_corner(picard.triangle_surface(), 0)
    s.validate()
    assert s.length == 4
    assert s.self_intersections() == (0, -1, 0, 1)


def test_interior_blowup_preserves_cycle_length():
    s = picard.blowup_on_curve(picard.triangle_surface(), 1)
    s.validate()
    assert s.length == 3
    assert s.self_intersections() == (1, 0, 1)


def test_standard_schedule():
    s = picard.standard_schedule()
    s.validate()
    assert s.length == 9
    assert all(c2 == -2 for c2 in s.self_intersections())


def test_cycle_surface_lengths():
    for m in (3, 5, 9, 12, 15):
        s = picard.cycle_surface(m)
        s.validate()
        assert s.length == m
        assert all(c2 <= -2 for c2 in s.self_intersections())


def test_validate_checks_every_class_index_first():
    """An index outside 0..k is found before the -K sum, where -1 would
    read the last entry and dim would read past the end; the surface is
    refused when it is made."""
    s = picard.standard_schedule()
    for t in (-1, s.dim):
        with pytest.raises(picard.InvariantError,
                           match="class index out of range"):
            picard.CycleSurface(
                s.blowup_count, ({**s.supports[0], t: 1},) + s.supports[1:])


def _validate_callers(module):
    """The names of the functions in src/sncgeom/<module>.py that call
    some `.validate()`."""
    path = Path(__file__).resolve().parents[1] / "src" / "sncgeom" / module
    return sorted(fn.name for fn in ast.walk(ast.parse(path.read_text()))
                  if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "validate")


def test_surfaces_are_validated_only_when_made():
    """Every CycleSurface is checked by its constructor, so nothing in
    picard or the CLI checks one again; the CLI validates no triangulation
    either, since glue_report does that first."""
    assert _validate_callers("picard.py") == ["__post_init__"]
    assert _validate_callers("cli.py") == []


def test_validate_pairs_o_of_m_classes(monkeypatch):
    """Each basis index meets at most 3 cycle curves, so validation pairs
    O(m) classes: m self-pairings and the pairs that share an index or are
    neighbours, not all m(m - 1) / 2 pairs."""
    s = picard.cycle_surface(480)
    calls = []
    real = picard._pair

    def counting(u, v):
        calls.append(1)
        return real(u, v)

    monkeypatch.setattr(picard, "_pair", counting)
    assert s.validate()
    assert len(calls) <= 4 * s.length


def test_cycle_surface_rejects_short():
    with pytest.raises(ValueError):
        picard.cycle_surface(2)


def test_corner_surface_equals_per_step_blowups():
    # the closed form against the blow-up route, dict insertion order too
    for n in range(61):
        ours, theirs = picard.corner_surface(n), oracles.corner_surface(n)
        assert ours == theirs
        assert ([list(c.items()) for c in ours.supports]
                == [list(c.items()) for c in theirs.supports])
    with pytest.raises(ValueError):
        picard.corner_surface(-1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_fuzzed_blowups_preserve_anticanonical_sum(seed):
    rng = random.Random(seed)
    s = picard.triangle_surface()
    for _ in range(rng.randint(0, 20)):
        j = rng.randrange(s.length)
        if rng.random() < 0.7:
            s = picard.blowup_corner(s, j)
        else:
            s = picard.blowup_on_curve(s, j)
    s.validate()  # includes sum C_j = -K and the adjacency pattern


def test_is_negative_definite():
    s = picard.standard_schedule()
    for j in range(s.length):
        assert picard.is_negative_definite(s, j)
    assert not picard.is_negative_definite(picard.triangle_surface(), 0)


def test_uniform_degree_seed():
    s = picard.standard_schedule()
    seed = picard.uniform_degree_seed(s)
    assert picard.dot(seed, seed) > 0
    mult = {picard.dot(seed, c) for c in s.cycle}
    assert len(mult) == 1 and next(iter(mult)) > 0


def test_uniform_degree_seed_on_isotropic_kernel():
    """On cycle_surface(4) the solver's class has square 0 and the
    degree-0 classes carry no positive square; -K is isotropic there and
    meets it positively, so it corrects the seed."""
    s = picard.cycle_surface(4)
    seed = picard.uniform_degree_seed(s)
    assert all(picard.dot(seed, c) == 1 for c in s.cycle)
    assert picard.dot(seed, seed) > 0
    h = picard.degree_one_polarization(s, seed)
    assert all(picard.dot(h, c) == 1 for c in s.cycle)
    assert picard.dot(h, h) > 0


def test_degree_one_polarization_standard():
    s = picard.standard_schedule()
    h = picard.degree_one_polarization(s, picard.uniform_degree_seed(s))
    assert all(picard.dot(h, c) == 1 for c in s.cycle)
    assert picard.dot(h, h) > 0


def test_degree_one_polarization_larger_cycles():
    for m in (12, 15, 18):
        s = picard.cycle_surface(m)
        h = picard.degree_one_polarization(s, picard.uniform_degree_seed(s))
        assert all(picard.dot(h, c) == 1 for c in s.cycle)
        assert picard.dot(h, h) > 0


def test_polarization_requires_minus_two_curves():
    with pytest.raises(picard.NegativeDefiniteViolation):
        picard.degree_one_polarization(picard.triangle_surface(),
                                       (1, ))


# -- the general route, kept as the oracle for the path sweep --------------


def _oracle_gram(s, exclude):
    """Gram matrix of {C_i : i != exclude} in ascending index order, which
    is not tridiagonal when 0 < exclude < m - 1."""
    idx = [i for i in range(s.length) if i != exclude]
    return [[picard.dot(s.cycle[i], s.cycle[j]) for j in idx]
            for i in idx], idx


def _oracle_is_negative_definite(s, exclude):
    """Sylvester's criterion with det_int on every leading minor."""
    gram, _ = _oracle_gram(s, exclude)
    return all(lattice.det_int([[-gram[i][j] for j in range(t)]
                                for i in range(t)]) > 0
               for t in range(1, len(gram) + 1))


def _oracle_polarization(s, seed):
    """One dense oracle solve per excluded curve, then the average of the
    corrected seeds with weights 1/(H'_j.C_j)."""
    h = [Fraction(0)] * s.dim
    for j in range(s.length):
        assert _oracle_is_negative_definite(s, j)
        gram, idx = _oracle_gram(s, j)
        coeffs = oracles.solve(
            gram, [-Fraction(picard.dot(seed, s.cycle[i])) for i in idx])
        hj = [Fraction(x) for x in seed]
        for a, i in zip(coeffs, idx):
            hj = [x + a * y for x, y in zip(hj, s.cycle[i])]
        dj = picard.dot(hj, s.cycle[j])
        h = [x + y / dj for x, y in zip(h, hj)]
    return tuple(h)


def _assert_matches_oracle(s, seed):
    assert picard.degree_one_polarization(s, seed) == \
        _oracle_polarization(s, seed)
    assert all(picard.is_negative_definite(s, j) for j in range(s.length))


@pytest.mark.parametrize("m", [3, *range(6, 25)])
def test_polarization_matches_dense_oracle(m):
    s = picard.cycle_surface(m)
    _assert_matches_oracle(s, picard.uniform_degree_seed(s))


# C_0 = H - E_1..E_4 and C_1 = 2H - E_5..E_10 meet twice
TWO_CYCLE = picard.CycleSurface(
    10, ({0: 1, **dict.fromkeys(range(1, 5), -1)},
         {0: 2, **dict.fromkeys(range(5, 11), -1)}))


def test_polarization_matches_dense_oracle_on_a_two_cycle():
    # removing one curve leaves a single curve that meets the other at
    # both path ends
    assert TWO_CYCLE.validate()
    _assert_matches_oracle(TWO_CYCLE, picard.uniform_degree_seed(TWO_CYCLE))


@pytest.mark.parametrize("build", [
    *[lambda m=m: picard.cycle_surface(m) for m in range(8, 41)],
    lambda: TWO_CYCLE],
    ids=[*[f"cycle_surface_{m}" for m in range(8, 41)], "two_cycle"])
def test_cyclic_adjugate_matches_dense_routes(build):
    """det G against the dense Bareiss determinant, and adj(G) 1 against
    det G times the dense Fraction solve of G x = 1."""
    s = build()
    gram = [[picard.dot(a, b) for b in s.cycle] for a in s.cycle]
    det, adj_1 = picard._cyclic_adjugate(s.self_intersections())
    assert det == lattice.det_int(gram) != 0
    assert adj_1 == [det * x for x in oracles.solve(gram, [1] * s.length)]


@pytest.mark.parametrize("build", [
    lambda: picard.cycle_surface(8), picard.standard_schedule,
    lambda: TWO_CYCLE], ids=["cycle_surface_8", "standard", "two_cycle"])
def test_polarization_refuses_a_seed_of_unequal_degrees(build):
    """A seed of positive square and positive, unequal degrees is refused
    before the seed gate, on a nonsingular and a singular Gram matrix."""
    s = build()
    seed = picard.uniform_degree_seed(s)
    n = 1 - min(s.self_intersections())  # n delta + (C_0.C_j) > 0
    uneven = tuple([n * x + y for x, y in zip(seed, s.cycle[0])])
    degrees = {picard.dot(uneven, c) for c in s.cycle}
    assert len(degrees) > 1 and min(degrees) > 0
    assert picard.dot(uneven, uneven) > 0
    with pytest.raises(ValueError, match="one degree on every C_j") as info:
        picard.degree_one_polarization(s, uneven)
    assert type(info.value) is ValueError


def _random_surface(rng, steps):
    s = picard.triangle_surface()
    for _ in range(steps):
        j = rng.randrange(s.length)
        if rng.random() < 0.7:
            s = picard.blowup_corner(s, j)
        else:
            s = picard.blowup_on_curve(s, j)
    return s


def _scheduled(build):
    """What build() returns, and the (position, corner) of each blow-up
    it made, in order: `_blowup` and `cycle_surface` share the list-level
    step."""
    steps, real = [], picard._blow_up

    def recording(sup, k, j, corner):
        steps.append((j, corner))
        return real(sup, k, j, corner)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(picard, "_blow_up", recording)
        return build(), steps


def _assert_matches_dense_blowups(s, steps):
    """The same steps on dense classes and a stored K from the triangle of
    lines give s's dense cycle, K and self-intersections."""
    cycle, canonical = ((1,),) * 3, (-3,)
    for j, corner in steps:
        cycle, canonical = oracles.dense_blowup(cycle, canonical, j, corner)
    assert s.cycle == cycle and s.canonical == canonical
    assert s.self_intersections() == tuple([oracles.dot(c, c)
                                            for c in cycle])


def test_standard_schedule_matches_blowup_route():
    """One list of supports against one surface per blow-up."""
    s, expected = picard.standard_schedule(), oracles.standard_schedule()
    assert s.blowup_count == expected.blowup_count
    assert s.supports == expected.supports


def test_cycle_surface_matches_blowup_route():
    """One list of supports against one surface per blow-up."""
    for m in range(3, 200):
        s, expected = picard.cycle_surface(m), oracles.blowup_cycle_surface(m)
        assert (s.blowup_count, s.supports) == \
            (expected.blowup_count, expected.supports)


def test_blowups_match_dense_oracle_on_reference_schedules():
    for m in range(3, 61):
        _assert_matches_dense_blowups(
            *_scheduled(lambda: picard.cycle_surface(m)))
    _assert_matches_dense_blowups(*_scheduled(picard.standard_schedule))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 20))
def test_blowups_match_dense_oracle_on_random_schedules(seed, steps):
    _assert_matches_dense_blowups(*_scheduled(
        lambda: _random_surface(random.Random(seed), steps)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 14), st.data())
def test_blowups_share_the_supports_they_leave_alone(seed, steps, data):
    """A blow-up builds new dicts only for the curves it changes and the
    exceptional curve; the rest are the parent's, which stay as they
    were."""
    s = _random_surface(random.Random(seed), steps)
    m, j = s.length, data.draw(st.integers(0, s.length - 1))
    before = [dict(c) for c in s.supports]
    corner = list(picard.blowup_corner(s, j).supports)
    assert corner.pop(j + 1) == {s.dim: 1}
    interior = picard.blowup_on_curve(s, j).supports
    for i in range(m):
        assert (corner[i] is s.supports[i]) == (i not in (j, (j + 1) % m))
        assert (interior[i] is s.supports[i]) == (i != j)
    assert list(s.supports) == before


CORRUPTIONS = ("none", "swap", "entry", "compensated", "index")


def _corrupt(s, kind, data):
    """(blowup_count, supports) of s with one corruption of the given
    kind, its places drawn."""
    sup = [dict(c) for c in s.supports]
    i, j = (data.draw(st.integers(0, s.length - 1)) for _ in range(2))
    t = data.draw(st.integers(0, s.dim - 1))
    e = data.draw(st.sampled_from([1, -1]))
    if kind == "swap":
        sup[i], sup[j] = sup[j], sup[i]
    elif kind == "entry":
        sup[i][t] = sup[i].get(t, 0) + e
    elif kind == "compensated":  # keeps sum C_i = -K
        sup[i][t] = sup[i].get(t, 0) + e
        sup[j][t] = sup[j].get(t, 0) - e
    elif kind == "index":
        sup[i][data.draw(st.sampled_from([-1, s.dim]))] = e
    return s.blowup_count, tuple(
        [{t: c[t] for t in sorted(c) if c[t]} for c in sup])


def _verdict(route, *args):
    """True if the route returns, or the type and message of what it
    raised."""
    try:
        route(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return True


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_matches_dense_oracle_on_corruptions(data):
    """Sparse validation, run by the constructor, against every pair
    densely paired on the same raw (blowup_count, supports), on random
    schedules and the 2-cycle, each left intact or corrupted once: both
    accept, or raise the same exception with the same message."""
    if data.draw(st.booleans()):
        s = TWO_CYCLE
    else:
        s = _random_surface(random.Random(data.draw(st.integers(0, 10**6))),
                            data.draw(st.integers(0, 14)))
    raw = _corrupt(s, data.draw(st.sampled_from(CORRUPTIONS)), data)
    assert _verdict(picard.CycleSurface, *raw) == \
        _verdict(oracles.validate_cycle_surface, *raw)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 14))
def test_definiteness_matches_dense_oracle(seed, steps):
    s = _random_surface(random.Random(seed), steps)
    for j in range(s.length):
        assert picard.is_negative_definite(s, j) == \
            _oracle_is_negative_definite(s, j)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10))
def test_polarization_matches_dense_oracle_on_random_schedules(seed, steps):
    s = _lowered(_random_surface(random.Random(seed), steps))
    assert all(c2 <= -2 for c2 in s.self_intersections())
    try:
        seed = picard.uniform_degree_seed(s)
    except picard.NoAmpleSeed:
        assume(False)
    _assert_matches_oracle(s, seed)


def _seed_or_error(s, route=picard.uniform_degree_seed):
    try:
        return route(s)
    except picard.NoAmpleSeed:
        return picard.NoAmpleSeed


def _oracle_seed(s):
    """The Fraction route: dense solve and kernel_basis, the old congruence
    diagonalization and the vector-rebuilding t search."""
    return _seed_or_error(s, oracles.uniform_degree_seed)


@pytest.mark.parametrize("m", range(3, 41))
def test_uniform_degree_seed_matches_dense_oracle(m):
    s = picard.cycle_surface(m)
    assert _seed_or_error(s) == _oracle_seed(s)


def test_uniform_degree_seed_runs_one_echelon(monkeypatch):
    """The solution and the kernel of the degree conditions come from one
    elimination, also when the seed needs the kernel correction."""
    calls = []
    real = lattice._echelon

    def counting(vectors):
        calls.append(list(vectors))
        return real(calls[-1])

    monkeypatch.setattr(lattice, "_echelon", counting)
    corrected = 0
    for m in range(6, 19):
        s = picard.cycle_surface(m)
        calls.clear()
        seed = _seed_or_error(s)
        (rows,) = calls  # (x.C) = 1 per curve, sparse, 1 in column dim
        assert rows == [{**{i: (1 if i == 0 else -1) * x
                            for i, x in enumerate(c) if x}, s.dim: 1}
                        for c in s.cycle]
        sol, kernel = lattice.sparse_solve_and_kernel(rows, s.dim)
        dense = [[row.get(i, 0) for i in range(s.dim)] for row in rows]
        assert [[Fraction(x, d) for x in v] for v, d in kernel] == \
            lattice.kernel_basis(dense)
        corrected += picard.dot(sol[0], sol[0]) <= 0
        assert seed == _oracle_seed(s)
    assert corrected > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 14))
def test_uniform_degree_seed_matches_dense_oracle_on_random_schedules(
        seed, steps):
    s = _random_surface(random.Random(seed), steps)
    assert _seed_or_error(s) == _oracle_seed(s)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 14), st.booleans())
def test_uniform_degree_seed_has_one_positive_degree(seed, steps, lower):
    """Whenever a seed exists, it has one positive degree on every cycle
    curve, the only seed the polarization solve takes."""
    s = _random_surface(random.Random(seed), steps)
    if lower:
        s = _lowered(s)
    ample = _seed_or_error(s)
    assume(ample is not picard.NoAmpleSeed)
    (delta,) = {picard.dot(ample, c) for c in s.cycle}
    assert delta > 0


def _outcome(route, *args):
    """The returned value, or the class and message of the exception
    raised."""
    try:
        return route(*args)
    except (picard.NoAmpleSeed, picard.NegativeDefiniteViolation,
            picard.InvariantError) as exc:
        return type(exc), str(exc)


def _assert_matches_sweep_routes(s, ample):
    """The cyclic solve against the integer path sweeps and the Fraction
    Thomas route, errors included."""
    found = _outcome(picard.degree_one_polarization, s, ample)
    assert found == _outcome(oracles.sweep_polarization, s, ample)
    assert found == _outcome(oracles.thomas_polarization, s, ample)
    return found


def _lowered(s):
    """s with interior blow-ups until every C^2 <= -2."""
    for j, c2 in enumerate(s.self_intersections()):
        for _ in range(c2 + 2):
            s = picard.blowup_on_curve(s, j)
    return s


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 14), st.booleans())
def test_polarization_matches_thomas_route_on_random_schedules(
        seed, steps, lower):
    """The cyclic solve against the integer sweeps and the Fraction Thomas
    route, errors included: without the interior blow-ups to -2 many
    schedules raise."""
    s = _random_surface(random.Random(seed), steps)
    if lower:
        s = _lowered(s)
    ample = _seed_or_error(s)
    assume(ample is not picard.NoAmpleSeed)
    _assert_matches_sweep_routes(s, ample)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 14), st.data())
def test_sweep_guards_never_fire_once_every_curve_is_at_most_minus_two(
        seed, steps, data):
    """Once every C^2 <= -2, each path's negated Gram matrix is a
    nonsingular M-matrix: each path is negative definite, and a seed of
    positive degrees corrects to positive degree. So neither sweep route's
    per-position guards raise, for the uniform seed or a perturbed one; a
    perturbed seed may still fail the seed gate."""
    s = _lowered(_random_surface(random.Random(seed), steps))
    ample = _seed_or_error(s)
    assume(ample is not picard.NoAmpleSeed)
    shift = data.draw(st.lists(st.integers(-1, 1), min_size=s.dim,
                               max_size=s.dim))
    for trial in (ample, tuple([3 * x + y for x, y in zip(ample, shift)])):
        for route in (oracles.thomas_polarization, oracles.sweep_polarization):
            found = _outcome(route, s, trial)
            if not isinstance(found[0], Fraction):
                assert found[0] is not picard.NegativeDefiniteViolation
                assert not found[1].startswith("corrected class has degree")


# every C^2 = -2 on a 2-cycle: C_0 = H - E_1..E_3, C_1 = 2H - E_4..E_9
AFFINE_TWO_CYCLE = picard.CycleSurface(
    9, ({0: 1, **dict.fromkeys(range(1, 4), -1)},
        {0: 2, **dict.fromkeys(range(4, 10), -1)}))


@pytest.mark.parametrize("build", [
    lambda: picard.cycle_surface(6), lambda: picard.cycle_surface(7),
    picard.standard_schedule, lambda: AFFINE_TWO_CYCLE],
    ids=["cycle_surface_6", "cycle_surface_7", "standard", "two_cycle"])
def test_closed_form_matches_sweep_routes_when_every_curve_is_minus_two(
        build):
    """G is singular here, and the closed form replaces the solve: every
    multiple k seed of the uniform seed gives the sweeps' class, the same
    H for every k."""
    s = build()
    assert s.validate() and set(s.self_intersections()) == {-2}
    ample = picard.uniform_degree_seed(s)
    found = {_assert_matches_sweep_routes(s, tuple([k * x for x in ample]))
             for k in range(1, 9)}
    (h,) = found
    assert isinstance(h[0], Fraction)


@pytest.mark.parametrize("m", [60, 120, 240])
def test_polarization_matches_sweep_oracle_on_long_cycles(m):
    s = picard.cycle_surface(m)
    ample = picard.uniform_degree_seed(s)
    assert picard.degree_one_polarization(s, ample) == \
        oracles.sweep_polarization(s, ample)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_path_sweep_matches_thomas_sweep(data):
    """The integer path sweep, the oracle of the cyclic solve, against the
    Fraction Thomas sweep. Random diagonals in [-6, 1], not all definite,
    paths of 1..25 curves and random right-hand sides: None exactly when
    the Fraction sweep says so, and otherwise the same solution
    a = A / theta_n."""
    n = data.draw(st.integers(1, 25))
    sq = data.draw(st.lists(st.integers(-6, 1), min_size=n + 1,
                            max_size=n + 1))
    deg = data.draw(st.lists(st.integers(-50, 50), min_size=n + 1,
                             max_size=n + 1))
    j = data.draw(st.integers(0, n))
    swept = oracles.path_sweep(sq, j, deg)
    expected = oracles.thomas_path_sweep(sq, j, deg)
    if expected is None:
        assert swept is None
    else:
        path, a, theta = swept
        assert (path, [Fraction(x, theta) for x in a]) == expected


def _class(n):
    return st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n,
                    max_size=n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(_class(n), max_size=5), _class(n))))
@example(([[1, 1, 0], [Fraction(1, 2), 0, Fraction(1, 2)]], [1, 0, 0]))
@example(([[1, 1, 0], [0, 0, 1]], [-1, 0, 0]))
@example(([[1, 1, 0], [0, 0, 1]], [0, 0, 1]))
def test_positive_direction_matches_fraction_route(case):
    """Integer numerators over one denominator against the Fraction
    congruence diagonalization. The first example takes the pairing
    branch, where both vectors are isotropic; in the others the isotropic
    class is left over and meets the target negatively, or not at all."""
    vectors, target = case
    found = picard._positive_direction(
        [lattice.clear_denominators(v) for v in vectors], target)
    expected = oracles.positive_direction(vectors, target)
    if expected is None:
        assert found is None
    else:
        num, den = found
        assert [Fraction(x, den) for x in num] == expected


def test_definiteness_negative_cases_match_oracle():
    tri = picard.triangle_surface()
    minus_one = picard.blowup_corner(tri, 0)  # E_1 is a -1 curve
    for s in (tri, minus_one):
        for j in range(s.length):
            assert picard.is_negative_definite(s, j) == \
                _oracle_is_negative_definite(s, j)
    assert not picard.is_negative_definite(tri, 0)
    s = picard.cycle_surface(6)
    s = picard.blowup_corner(s, 0)  # the new curve has C^2 = -1
    assert -1 in s.self_intersections()
    with pytest.raises(picard.NegativeDefiniteViolation):
        picard.degree_one_polarization(s, picard.uniform_degree_seed(s))


def test_definiteness_rejects_a_broken_cycle():
    """Swapping two curves breaks the cycle pattern that the continuant
    loop and the cyclic solve read; the surface is refused when it is
    made, so neither ever sees it."""
    s = picard.standard_schedule()
    with pytest.raises(picard.InvariantError):
        picard.CycleSurface(
            s.blowup_count, (s.supports[1], s.supports[0]) + s.supports[2:])
