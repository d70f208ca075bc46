import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sncgeom import lattice
from sncgeom import resolution as R


def test_local_model_validation():
    with pytest.raises(ValueError):
        R.LocalModel(0)
    with pytest.raises(ValueError):
        R.LocalModel(2, "spiral")


def test_local_model_trace():
    trace = R.local_model_trace(7)
    assert [m.multiplicity for m in trace] == [7, 5, 3, 1]
    trace = R.local_model_trace(2, R.TWISTED)
    assert [m.multiplicity for m in trace] == [2]
    assert all(m.variant == R.TWISTED for m in trace)


def test_resolve_local_rules():
    steps = R.resolve_local(R.LocalModel(5))
    assert steps[-1] == (R.SMOOTH,)
    assert steps[:-1] == [(5, "blowup_intersection_surface", 2),
                          (3, "blowup_intersection_surface", 2),
                          (1, "blowup_component_meeting_z1", 0)]
    assert R.resolve_local(R.LocalModel(2))[:-1] == [
        (2, "blowup_intersection_surface", 1)]
    assert R.resolve_local(R.LocalModel(1))[:-1] == [
        (1, "blowup_component_meeting_z1", 0)]


@pytest.mark.parametrize("m", range(1, 51))
def test_exceptional_count(m):
    assert R.exceptional_count(m) == m - 1


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
    assert rep.intersection_count == 5
    assert rep.class_rank_bound == 0 and not rep.bound_clamped


def test_build_chain_series_values():
    for m in range(1, 13):
        assert R.build_chain(m, 1, 2, 1, 2).class_rank_bound == 0
        assert R.build_chain(m, 2, 2, 1, 2).class_rank_bound == 1


def test_build_chain_requires_assumptions():
    with pytest.raises(R.AssumptionViolated):
        R.build_chain(3, 1, 2, 1, 2, assume_h1_s_zero=False)
    with pytest.raises(R.AssumptionViolated):
        R.build_chain(3, 1, 2, 1, 2, assume_z2_surjective=False)


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


def test_report_json():
    import json

    rep = R.build_chain(3, 1, 2, 1, 2)
    data = json.loads(rep.to_json())
    assert data["h2_total"] == data["h2_crosscheck"]
    assert data["multiplicity"] == 3


# -- the dense restriction matrix, kept as the oracle of the sparse rows ----

H2_GRID = [h2 for h2 in itertools.product(range(1, 6), repeat=4)
           if h2[3] >= h2[1]]  # h2_z2 >= h2_s: the surjective cases


def dense_restriction_matrix(members, m, h2_s, seed):
    """The restriction matrix as the seeded dense fill that the sparse
    rows replaced: same draws, same order."""
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
    """Modular full row rank certifies the exact rank; else Bareiss."""
    r = lattice.rank_mod_p(mat)
    return r if r == len(mat) else lattice.rank(mat)


@pytest.mark.parametrize("m", range(1, 13))
def test_restriction_rows_match_dense_oracle(m):
    for index, (h2_z1, h2_s, h2_c, h2_z2) in enumerate(H2_GRID):
        members = R.chain_members(m, h2_z1, h2_s, h2_c, h2_z2)
        for seed in range(3):
            rows = R._restriction_rows(members, m, h2_s, seed)
            mat = dense_restriction_matrix(members, m, h2_s, seed)
            assert len(rows) == len(mat)
            for row, dense in zip(rows, mat):
                assert row == {c: x for c, x in enumerate(dense) if x}
            # the dense rank costs most: rank each input once, the seed
            # rotating over the grid
            if seed == index % 3:
                assert lattice.sparse_rank(rows) == dense_rank(mat)


def test_crosscheck_independent_of_seed():
    for m in (1, 2, 5, 12):
        for h2 in ((1, 2, 1, 2), (5, 5, 5, 5), (2, 1, 4, 3)):
            reports = [R.build_chain(m, *h2, seed=k) for k in range(5)]
            assert len({r.h2_crosscheck for r in reports}) == 1
            assert reports[0].h2_crosscheck == reports[0].h2_total


def test_verify_paths_do_not_import_numpy():
    """build_chain, the poly fuzz suites and the codimension estimator
    compute exactly in pure Python; numpy only serves lattice.rank_mod_p."""
    src = str(Path(R.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from sncgeom import poly, resolution\n"
        "out = [resolution.build_chain(12, 5, 5, 5, 5).h2_crosscheck,\n"
        "       poly.fuzz_adjugate(cases=20, seed=0),\n"
        "       poly.fuzz_adjoint_relation(cases=20, seed=0),\n"
        "       poly.fuzz_blowup_charts(cases=10, seed=0),\n"
        "       poly.rank_locus_codim_estimate(\n"
        "           2, poly.SQUARE, ambient_dim=4, p=101, trials=200),\n"
        "       'numpy' in sys.modules]\n"
        "print(out)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # h2 = 5 + 5 - 5 + 5 + 11, no fuzz failures, codimension 4, no numpy
    assert proc.stdout.strip() == "[21, 0, 0, 0, 4, False]"
