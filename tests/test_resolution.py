import dataclasses
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from sncgeom import lattice
from sncgeom import resolution as R


def test_local_model_validation():
    with pytest.raises(ValueError):
        R.resolve_local(0)


def test_resolve_local_rules():
    steps = R.resolve_local(5)
    assert steps[-1] == (R.SMOOTH,)
    assert steps[:-1] == [(5, "blowup_intersection_surface", 2),
                          (3, "blowup_intersection_surface", 2),
                          (1, "blowup_component_meeting_z1", 0)]
    assert R.resolve_local(2)[:-1] == [
        (2, "blowup_intersection_surface", 1)]
    assert R.resolve_local(1)[:-1] == [
        (1, "blowup_component_meeting_z1", 0)]


@pytest.mark.parametrize("m", range(1, 51))
def test_exceptional_count(m):
    assert sum(step[2] for step in R.resolve_local(m)[:-1]) == m - 1


def test_chain_members_structure():
    members = R.chain_members(5, 1, 2, 1, 2)
    kinds = [e.kind for e in members]
    assert kinds == [R.END_COMPONENT, R.P1_BUNDLE_BLOWN_ALONG_C,
                     R.P1_BUNDLE_OVER_S, R.P1_BUNDLE_OVER_S,
                     R.P1_BUNDLE_OVER_S, R.END_COMPONENT]
    assert [e.h2 for e in members] == [1, 4, 3, 3, 3, 2]


def test_chain_members_small_m():
    assert [e.kind for e in R.chain_members(1, 1, 2, 1, 2)] == [
        R.END_COMPONENT, R.Z2_BLOWN_ALONG_C]
    assert [e.kind for e in R.chain_members(2, 1, 2, 1, 2)] == [
        R.END_COMPONENT, R.CONIC_BUNDLE_BLOWN, R.END_COMPONENT]


def test_build_chain_formula_and_crosscheck():
    rep = R.build_chain(5, 1, 2, 1, 2)
    assert rep.h2_total == 1 + 2 - 2 + 1 + 4 == rep.h2_crosscheck
    assert rep.class_rank_bound == 0 and not rep.bound_clamped


def test_build_chain_series_values():
    for m in range(1, 13):
        assert R.build_chain(m, 1, 2, 1, 2).class_rank_bound == 0
        assert R.build_chain(m, 2, 2, 1, 2).class_rank_bound == 1


def test_build_chain_rejects_impossible_surjectivity():
    with pytest.raises(R.AssumptionViolated):
        R.build_chain(3, 5, 4, 1, 2)  # h2_z2 < h2_s


def test_bound_clamped():
    rep = R.build_chain(1, 2, 2, 1, 2)
    # h2_total = 3, components = 2 -> bound 1; pick inputs that go negative
    rep = R.build_chain(4, 2, 2, 1, 2)
    assert rep.h2_total == 6 and rep.class_rank_bound == 1
    bound, clamped = R.class_rank_bound(3, 5)
    assert bound == 0 and clamped


def test_class_rank_bound_trivial():
    assert R.class_rank_bound(7, 7) == (0, False)
    assert R.class_rank_bound(9, 7) == (2, False)


# -- the old seeded restriction matrix, kept as the oracle of route A -------

H2_GRID = [h2 for h2 in itertools.product(range(1, 6), repeat=4)
           if h2[3] >= h2[1]]  # h2_z2 >= h2_s: the surjective cases


def dense_restriction_matrix(members, m, h2_s, seed):
    """The joint restriction map (sum of H^2 of the chain members) -> (sum
    of H^2 of the m copies of S): member i + 1 pulls back onto the copy to
    its left by an identity block, member i restricts to the copy on its
    right by bounded random integers drawn from `seed`."""
    rng = random.Random(seed)
    col_dims = [e.h2 for e in members]
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    mat = [[0] * col_off[-1] for _ in range(m * h2_s)]
    for i in range(m):
        r0 = i * h2_s
        for k in range(h2_s):
            for j in range(col_dims[i]):
                mat[r0 + k][col_off[i] + j] = rng.randrange(-3, 4)
        for k in range(h2_s):
            mat[r0 + k][col_off[i + 1] + k] = 1
    return mat


def dense_rank(mat):
    """Modular full row rank certifies the exact rank; else the Bareiss
    oracle. Neither runs the sparse echelon that build_chain ranks with."""
    r = lattice.rank_mod_p(mat)
    return r if r == len(mat) else oracles.rank(mat)


@pytest.mark.parametrize("m", range(1, 13))
def test_restriction_rows_match_dense_oracle(m):
    """Route A subtracts m h2_s as the restriction rank without sampling;
    the seeded matrix has exactly that rank, the seed rotating over the
    grid."""
    for index, (h2_z1, h2_s, h2_c, h2_z2) in enumerate(H2_GRID):
        members = R.chain_members(m, h2_z1, h2_s, h2_c, h2_z2)
        rep = R.build_chain(m, h2_z1, h2_s, h2_c, h2_z2)
        rank = dense_rank(dense_restriction_matrix(members, m, h2_s,
                                                   index % 3))
        assert rank == m * h2_s
        assert sum(e.h2 for e in members) - rank == rep.h2_crosscheck


def test_shared_members_match_per_member_construction(monkeypatch):
    """`chain_members` shares one frozen interior member; the reports are
    the ones of one member constructed per position. Each call returns
    its own list, so replacing a member of one report reaches no other."""
    for m in range(1, 26):
        reports = [R.build_chain(m, *h2) for h2 in H2_GRID]
        again = R.build_chain(m, *H2_GRID[0])
        again.members[1] = R.ChainMember(R.END_COMPONENT, -1)
        assert reports[0] != again
        with monkeypatch.context() as patch:
            patch.setattr(R, "chain_members", oracles.chain_members)
            assert reports == [R.build_chain(m, *h2) for h2 in H2_GRID]
        if m >= 3:
            with pytest.raises(dataclasses.FrozenInstanceError):
                reports[0].members[2].h2 = 0


def test_crosscheck_independent_of_seed():
    """`seed=` is still accepted and changes nothing."""
    for m in (1, 2, 5, 12):
        for h2 in ((1, 2, 1, 2), (5, 5, 5, 5), (2, 1, 4, 3)):
            reports = [R.build_chain(m, *h2, seed=k) for k in range(5)]
            assert len({r.h2_crosscheck for r in reports}) == 1
            assert reports[0].h2_crosscheck == reports[0].h2_total


# -- mutations the two routes must catch -------------------------------------

MUTATION_CASES = [(m, h2) for m in (1, 2, 3, 5, 12)
                  for h2 in ((1, 2, 1, 2), (5, 5, 5, 5), (2, 1, 4, 3))]


def _chain_mutant(monkeypatch, mutate):
    original = R.chain_members
    monkeypatch.setattr(R, "chain_members",
                        lambda *args: mutate(original(*args)))


@pytest.mark.parametrize("drop", [0, 1, -1])
def test_dropped_member_raises(monkeypatch, drop):
    _chain_mutant(monkeypatch,
                  lambda members: members[:drop] + members[drop:][1:])
    for m, h2 in MUTATION_CASES:
        with pytest.raises(R.AssumptionViolated):
            R.build_chain(m, *h2)


@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_first_member_h2_raises(monkeypatch, delta):
    def mutate(members):
        first = members[1]
        members[1] = R.ChainMember(first.kind, first.h2 + delta)
        return members

    _chain_mutant(monkeypatch, mutate)
    for m, h2 in MUTATION_CASES:
        with pytest.raises(R.AssumptionViolated):
            R.build_chain(m, *h2)


@pytest.mark.parametrize("at", [2, 3])
@pytest.mark.parametrize("delta", [-1, 1])
def test_off_by_one_blowup_rule_raises(monkeypatch, at, delta):
    """One exceptional divisor too few or too many at the final m = 2
    step, or at every m >= 3 step."""
    original = R.resolve_local

    def mutant(m):
        return [step[:2] + (step[2] + delta,)
                if len(step) == 3 and (step[0] == 2 if at == 2
                                       else step[0] >= 3) else step
                for step in original(m)]

    monkeypatch.setattr(R, "resolve_local", mutant)
    for m, h2 in MUTATION_CASES:
        if (m >= 3 if at == 3 else m % 2 == 0):
            with pytest.raises(R.AssumptionViolated):
                R.build_chain(m, *h2)
        else:  # the mutated rule is never played
            rep = R.build_chain(m, *h2)
            assert rep.h2_total == rep.h2_crosscheck


def test_verify_paths_do_not_import_numpy(tmp_path):
    """The package and every CLI command compute exactly in pure Python:
    with numpy blocked, `import sncgeom`, build_chain, the poly fuzz
    suites, the codimension estimator and surface, glue, fano, resolve and
    verify through cli.main all run."""
    src = str(Path(R.__file__).resolve().parents[1])
    tri = tmp_path / "torus.json"
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "import sncgeom\n"
        "from sncgeom import cli, poly, resolution, snc\n"
        f"open({str(tri)!r}, 'w').write(snc.torus_7().to_json())\n"
        "out = [resolution.build_chain(12, 5, 5, 5, 5).h2_crosscheck,\n"
        "       poly.fuzz_adjugate(cases=20, seed=0),\n"
        "       poly.fuzz_adjoint_relation(cases=20, seed=0),\n"
        "       poly.fuzz_blowup_charts(cases=10, seed=0),\n"
        "       poly.rank_locus_codim_estimate(\n"
        "           2, poly.SQUARE, ambient_dim=4, p=101, trials=200)]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['surface', '--schedule', 'standard'],\n"
        f"                 ['glue', '--triangulation', {str(tri)!r}],\n"
        "                 ['fano', '--kind', 'zrs', '--r', '1', '--s', '1'],\n"
        "                 ['resolve', '--m', '4', '--h2', '1,2,1,2'],\n"
        "                 ['verify', '--suite', 'charts']):\n"
        "        out.append(cli.main(argv))\n"
        "print(out)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # h2 = 5 + 5 - 5 + 5 + 11, no fuzz failures, codimension 4, then the
    # exit status of each command
    assert proc.stdout.strip() == "[21, 0, 0, 0, 4, 0, 0, 0, 0, 0]"
