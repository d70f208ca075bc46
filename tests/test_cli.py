import argparse
import ast
import json
import os
import resource
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sncgeom
from sncgeom import cli, fano, picard, snc


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_surface_schedule(capsys):
    code, out = run(capsys, "surface", "--schedule", "standard")
    assert code == 0
    assert "cycle_length: 9" in out
    assert "invariants: ok" in out


def test_surface_corners(capsys):
    code, out = run(capsys, "surface", "--corners", "3")
    assert code == 0
    assert "cycle_length: 6" in out


def test_surface_corners_validates_once(capsys, monkeypatch):
    """`--corners N` builds one surface, not one per blow-up."""
    calls = []
    real = picard.CycleSurface.validate

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(picard.CycleSurface, "validate", counting)
    code, out = run(capsys, "surface", "--corners", "50")
    assert code == 0 and "cycle_length: 53" in out
    assert len(calls) == 1


def test_glue_reports(tmp_path, capsys):
    path = tmp_path / "rp2.json"
    path.write_text(snc.rp2_6().to_json())
    code, out = run(capsys, "glue", "--triangulation", str(path))
    assert code == 0
    assert "canonical_order: 2" in out


def test_glue_validates_once(tmp_path, capsys, monkeypatch):
    """`glue` leaves validation to `glue_report`, which validates first."""
    calls = []
    real = snc.Triangulation.validate

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(snc.Triangulation, "validate", counting)
    path = tmp_path / "rp2.json"
    path.write_text(snc.rp2_6().to_json())
    code, out = run(capsys, "glue", "--triangulation", str(path))
    assert code == 0 and "canonical_order: 2" in out
    assert len(calls) == 1


def test_glue_rejects_nonmanifold(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"vertices": 3, "triangles": [[0, 1, 2]]}))
    code = cli.main(["glue", "--triangulation", str(path)])
    assert code == 1


@pytest.mark.parametrize("blob", [
    {"vertices": 4},
    {"triangles": [[0, 1, 2]]},
    [[0, 1, 2]],
    {"vertices": -1, "triangles": []},
    {"vertices": "4", "triangles": [[0, 1, 2]]},
    {"vertices": True, "triangles": []},
    {"vertices": 4, "triangles": {"0": [0, 1, 2]}},
    {"vertices": 4, "triangles": [[0, 1]]},
    {"vertices": 4, "triangles": [[0, 1, 1]]},
    {"vertices": 4, "triangles": [[0, 1, 4]]},
    {"vertices": 4, "triangles": [[0, 1, -1]]},
    {"vertices": 4, "triangles": [[0, 1, "2"]]},
    {"vertices": 4, "triangles": [[0, 1, 2.0]]},
    {"vertices": 4, "triangles": [7]},
])
def test_glue_rejects_malformed_json(tmp_path, capsys, blob):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        snc.Triangulation.from_json(path.read_text())
    assert cli.main(["glue", "--triangulation", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bad triangulation: ") and len(err.splitlines()) == 1


def test_glue_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert cli.main(["glue", "--triangulation", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bad triangulation: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("path", ["missing.json", "."])
def test_glue_rejects_unreadable_path(tmp_path, capsys, path):
    code = cli.main(["glue", "--triangulation", str(tmp_path / path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("bad triangulation: ") and len(err.splitlines()) == 1


def _suspension(*ns):
    """The suspensions of an n-gon for each n, disjoint: each has two
    apexes of degree n, n vertices of degree 4 and 2n triangles."""
    triangles, base = [], 0
    for n in ns:
        triangles += [(base + i, base + (i + 1) % n, base + apex)
                      for apex in (n, n + 1) for i in range(n)]
        base += n + 2
    return snc.Triangulation(base, tuple(triangles))


@pytest.mark.parametrize("t, message", [
    # from_json accepts any three distinct ids; the count comes first
    (snc.Triangulation(3, ((0, 1, 2),) * (cli.GLUE_MAX_TRIANGLES + 1)),
     f"at most {cli.GLUE_MAX_TRIANGLES} triangles, got "
     f"{cli.GLUE_MAX_TRIANGLES + 1}"),
    # a closed sphere whose two apexes would each build a component of
    # cycle length 3 (GLUE_MAX_DEGREE + 1)
    (_suspension(cli.GLUE_MAX_DEGREE + 1),
     f"at most {cli.GLUE_MAX_DEGREE} triangles, got "
     f"{cli.GLUE_MAX_DEGREE + 1}"),
    # distinct degrees 4, 382, 384, 386 and 397, whose squares sum to
    # 600,001: four components of cycle length near 1,200
    (_suspension(397, 386, 384, 382),
     f"at most {cli.GLUE_MAX_DEGREE_SQUARES}, got "
     f"{cli.GLUE_MAX_DEGREE_SQUARES + 1}"),
], ids=["triangles", "degree", "squares"])
def test_glue_file_one_above_each_limit_fails_in_one_line(
        tmp_path, capsys, monkeypatch, t, message):
    def refuse(t):
        raise AssertionError("glue_report reached")

    monkeypatch.setattr(snc, "glue_report", refuse)
    path = tmp_path / "big.json"
    path.write_text(t.to_json())
    assert cli.main(["glue", "--triangulation", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("t", [
    # disjoint tetrahedra, each vertex in three triangles
    snc.Triangulation(cli.GLUE_MAX_TRIANGLES, tuple(
        tuple(v + 4 * k for v in tri)
        for k in range(cli.GLUE_MAX_TRIANGLES // 4)
        for tri in snc.tetrahedron().triangles)),
    _suspension(cli.GLUE_MAX_DEGREE),
    # distinct degrees 3, 4, 381, 383, 390 and 395, whose squares sum to
    # 600,000
    _suspension(3, 395, 390, 383, 381),
], ids=["triangles", "degree", "squares"])
def test_glue_file_at_each_limit_reaches_the_report(
        tmp_path, capsys, monkeypatch, t):
    def stop(t):
        raise ValueError("reached")

    monkeypatch.setattr(snc, "glue_report", stop)
    path = tmp_path / "edge.json"
    path.write_text(t.to_json())
    assert cli.main(["glue", "--triangulation", str(path)]) == 1
    assert capsys.readouterr().err == "bad triangulation: reached\n"


def test_glue_help_states_its_limits(capsys):
    assert cli.main(["glue", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"at most {cli.GLUE_MAX_TRIANGLES} triangles" in help_text
    assert f"at most {cli.GLUE_MAX_DEGREE} at any vertex" in help_text
    assert (f"at most {cli.GLUE_MAX_DEGREE_SQUARES} summed over the squares "
            f"of the distinct vertex degrees") in help_text


@pytest.mark.parametrize("argv", [
    ["resolve", "--m", "0", "--h2", "1,2,1,2"],
    ["resolve", "--m", "3", "--h2", "-1,2,1,2"],
    ["resolve", "--m", "3", "--h2=-1,2,1,2"],
    ["resolve", "--m", "3"],
    ["resolve", "--seed", "1", "--m", "3", "--h2", "1,2,1,2"],
    ["fano", "--kind", "zr", "--r", "-1"],
    ["fano", "--kind", "zrs", "--r", "1", "--s", "-2"],
    ["fano", "--kind", "zr", "--r", "0", "--mmax", "0"],
    ["surface", "--corners", "-3"],
    ["resolve", "--m", "1000000000000", "--h2", "1,2,1,2"],
    # one above each limit, rejected before anything is built
    ["surface", "--corners", str(cli.SURFACE_MAX_CORNERS + 1)],
    ["fano", "--kind", "zr", "--r", "0", "--mmax",
     str(cli.FANO_MAX_MMAX + 1)],
    ["fano", "--kind", "zr", "--r", "4996", "--mmax", "2"],
    ["fano", "--kind", "zr", "--r", "4996", "--mmax", "1"],
    ["fano", "--kind", "zrs", "--r", "4994", "--s", "0", "--mmax", "2"],
    ["fano", "--kind", "zr", "--r", "1996", "--mmax", "3"],
])
def test_out_of_range_arguments_fail_in_one_line(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_fano_limits_are_the_counts_at_their_edges():
    # ZR(r) at --mmax 2, ZR(1995) and ZRS(0, 1993) at 3 and ZR(0) at
    # FANO_MAX_MMAX are the largest reports within FANO_MAX_H0; ZR(0) has
    # the fewest sections of the series in every degree, so no --mmax above
    # the cap could pass
    limit, cap = cli.FANO_MAX_H0, cli.FANO_MAX_MMAX
    h0 = fano.fiber_product_h0
    assert h0(fano.ZR(4995), 2) <= limit < h0(fano.ZR(4996), 2)
    assert h0(fano.ZR(1995), 3) <= limit < h0(fano.ZR(1996), 3)
    assert h0(fano.ZRS(0, 1993), 3) <= limit < h0(fano.ZRS(0, 1994), 3)
    assert h0(fano.ZR(0), cap) <= limit < h0(fano.ZR(0), cap + 1)
    for m in range(1, cap + 2):
        assert h0(fano.ZR(0), m) <= min(h0(fano.ZR(1), m),
                                        h0(fano.ZRS(0, 0), m))


# every int option of the parser: its stated limit with an argv one above
# it, rejected before anything is built, or None when its value does not
# size any work
INT_OPTIONS = {
    ("surface", "--corners"): (cli.SURFACE_MAX_CORNERS, [
        "surface", "--corners", str(cli.SURFACE_MAX_CORNERS + 1)]),
    # one above FANO_MAX_H0 sections at the default --mmax 3, by
    # test_fano_limits_are_the_counts_at_their_edges
    ("fano", "--r"): (cli.FANO_MAX_H0, ["fano", "--kind", "zr", "--r", "1996"]),
    ("fano", "--s"): (cli.FANO_MAX_H0, [
        "fano", "--kind", "zrs", "--r", "0", "--s", "1994"]),
    ("fano", "--mmax"): (cli.FANO_MAX_MMAX, [
        "fano", "--kind", "zr", "--r", "0", "--mmax",
        str(cli.FANO_MAX_MMAX + 1)]),
    ("resolve", "--m"): (cli.RESOLVE_MAX_M, [
        "resolve", "--m", str(cli.RESOLVE_MAX_M + 1), "--h2", "1,2,1,2"]),
    ("verify", "--seed"): None,
}


def _int_options():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {(name, a.option_strings[0]): a
            for name, parser in sub.choices.items()
            for a in parser._actions if a.type is int}


def test_every_int_option_has_a_stated_limit_or_is_constant_size(capsys):
    options = _int_options()
    assert set(options) == set(INT_OPTIONS)
    assert options["fano", "--mmax"].default == 3
    for key, entry in INT_OPTIONS.items():
        if entry is None:
            continue
        limit, argv = entry
        assert str(limit) in options[key].help, key
        assert cli.main(argv) == 1, key
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1, key


def _module_env():
    src = str(Path(sncgeom.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ["surface", "--corners", "1000000000000"],
    ["fano", "--kind", "zr", "--r", "1000000000", "--mmax", "1"],
    ["fano", "--kind", "zr", "--r", "0", "--mmax", "1000000"],
])
def test_huge_arguments_fail_in_one_line_in_a_capped_child(argv):
    # without their limits the first two end in a MemoryError traceback and
    # the third prints nothing for minutes; so they run only in a child
    # capped at 1 GB of address space, never in this process
    proc = subprocess.run(
        [sys.executable, "-m", "sncgeom.cli", *argv], capture_output=True,
        text=True, env=_module_env(), timeout=30,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def json_reports(*argv):
    """The --json report of `argv`, run as a module with and without -O,
    with the wall-clock `seconds` field removed."""
    reports = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "sncgeom.cli", "--json", *argv],
            capture_output=True, text=True, env=_module_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        report.pop("seconds")
        reports.append(report)
    return reports


def test_surface_report_survives_python_O():
    reports = json_reports("surface", "--schedule", "standard")
    assert "polarization" in reports[0]
    assert reports[0] == reports[1]


def test_verify_and_glue_reports_survive_python_O(tmp_path):
    reports = json_reports("verify", "--suite", "adjugate")
    assert reports[0]["verdict"] == "pass"
    assert reports[0] == reports[1]
    path = tmp_path / "rp2.json"
    path.write_text(snc.rp2_6().to_json())
    reports = json_reports("glue", "--triangulation", str(path))
    assert reports[0]["crosschecks"] == "ok"
    assert reports[0] == reports[1]


def test_fano_report_survives_python_O():
    reports = json_reports("fano", "--kind", "zrs", "--r", "6", "--s", "0")
    assert reports[0]["degree_one_generation"] is True
    assert reports[0] == reports[1]


def test_fano_zr(capsys):
    code, out = run(capsys, "--json", "fano", "--kind", "zr", "--r", "0",
                    "--mmax", "2")
    assert code == 0
    data = json.loads(out)
    assert data["embedding_dimension"] == 6
    assert data["class_rank_bound"] == 0
    assert data["singularity"] == "terminal"


def test_fano_zrs(capsys):
    code, out = run(capsys, "--json", "fano", "--kind", "zrs", "--r", "1",
                    "--s", "2", "--mmax", "2")
    assert code == 0
    data = json.loads(out)
    assert data["embedding_dimension"] == 11
    assert data["class_rank_bound"] == 1


def test_fano_report_fires_the_fiber_product_guard(monkeypatch):
    """The table reads the fiber-product count and builds no basis; the
    report's generation pass still checks every degree's basis against
    it, from --mmax 1 on."""
    columns = fano._columns
    monkeypatch.setattr(fano, "_columns", lambda *args: columns(*args)[:-1])
    for mmax in ("1", "3"):
        with pytest.raises(AssertionError, match="fiber-product"):
            cli.main(["--json", "fano", "--kind", "zrs", "--r", "1",
                      "--s", "2", "--mmax", mmax])
    monkeypatch.undo()
    monkeypatch.setattr(fano, "comb", lambda n, k: comb(n, k) + 1)
    for mmax in ("1", "3"):
        with pytest.raises(AssertionError, match="fiber-product"):
            cli.main(["--json", "fano", "--kind", "zr", "--r", "0",
                      "--mmax", mmax])


def test_fano_zrs_needs_s(capsys):
    assert cli.main(["fano", "--kind", "zrs", "--r", "1"]) == 1


def test_fano_zr_rejects_s(capsys):
    """ZR(r) has no second twist: --s is refused, not dropped."""
    code = cli.main(["fano", "--kind", "zr", "--r", "1", "--s", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "zr takes no --s\n"


def test_resolve(capsys):
    code, out = run(capsys, "--json", "resolve", "--m", "5",
                    "--h2", "1,2,1,2")
    assert code == 0
    data = json.loads(out)
    assert data["h2_formula"] == data["h2_members"] == 6


def test_resolve_local_multiplicities(capsys):
    """m, m - 2, ... down to 2 or 1, the multiplicities the steps start
    from, for every m beyond the golden reports' m <= 7."""
    for m in range(1, 26):
        code, out = run(capsys, "--json", "resolve", "--m", str(m),
                        "--h2", "1,2,1,2")
        assert code == 0
        data = json.loads(out)
        assert data["local_multiplicities"] == list(range(m, 0, -2))
        steps = [ast.literal_eval(step) for step in data["steps"]]
        assert steps[-1] == ("smooth",)
        assert [step[0] for step in steps[:-1]] \
            == data["local_multiplicities"]


@pytest.mark.parametrize("variant", ["plain", "twisted"])
def test_resolve_rejects_variant(capsys, variant):
    """resolve models the node x1 x2 = s^m only; --variant is no option."""
    code = cli.main(["resolve", "--m", "3", "--variant", variant,
                     "--h2", "1,2,1,2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "--variant" in err


def test_resolve_bad_h2(capsys):
    assert cli.main(["resolve", "--m", "3", "--h2", "1,2"]) == 1


def test_resolve_assumption_violated(capsys):
    assert cli.main(["resolve", "--m", "3", "--h2", "1,5,1,2"]) == 1


def test_verify_deterministic(capsys):
    code1, out1 = run(capsys, "--json", "verify", "--suite", "adjugate",
                      "--seed", "7")
    code2, out2 = run(capsys, "--json", "verify", "--suite", "adjugate",
                      "--seed", "7")
    assert code1 == code2 == 0
    strip = lambda s: "\n".join(l for l in s.splitlines()
                                if "seconds" not in l)
    assert strip(out1) == strip(out2)


@pytest.mark.parametrize("name, suite, value", [
    ("fuzz_adjugate", "adjugate", 1),
    ("fuzz_blowup_charts", "charts", 1),
    # 4 is right for the 2x2 determinant only, 2 for the rank drops only
    ("rank_locus_codim_estimate", "detvar", 4),
    ("rank_locus_codim_estimate", "detvar", 2),
])
def test_verify_fails_when_one_result_is_off_its_expected_value(
        capsys, monkeypatch, name, suite, value):
    monkeypatch.setattr(cli.poly, name, lambda *args, **kwargs: value)
    code, out = run(capsys, "--json", "verify", "--suite", suite)
    assert code == 1 and json.loads(out)["verdict"] == "FAIL"


@pytest.mark.parametrize("suite, seed", [("detvar", "68"), ("detvar", "150"),
                                         ("all", "80")])
def test_verify_seed_without_locus_points_fails_in_one_line(
        capsys, suite, seed):
    """A seed whose random forms leave the rank locus without an F_p point
    ends in one line naming the seed, not in a traceback."""
    assert cli.main(["--json", "verify", "--suite", suite,
                     "--seed", seed]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"verify seed={seed}: no point of the rank locus over F_p\n"


# -- fuzz: every input ends in a report or one line, exit 0 or 1 -------------

REFERENCE = [json.loads(f().to_json()) for f in (
    snc.tetrahedron, snc.torus_7, snc.rp2_6, snc.klein_bottle, snc.genus2)]

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 9),
                 st.floats(-2, 9), st.text(max_size=3))


def _disjoint_union(a, b):
    n = a["vertices"]
    return {"vertices": n + b["vertices"],
            "triangles": a["triangles"] + [[v + n for v in tri]
                                           for tri in b["triangles"]]}


def _drop_triangle(blob, i):
    tris = list(blob["triangles"])
    del tris[i % len(tris)]
    return {**blob, "triangles": tris}


TRIANGULATION_TEXT = st.one_of(
    st.sampled_from(REFERENCE).map(json.dumps),
    st.builds(_disjoint_union, st.sampled_from(REFERENCE),
              st.sampled_from(REFERENCE)).map(json.dumps),
    st.builds(_drop_triangle, st.sampled_from(REFERENCE),
              st.integers(0, 50)).map(json.dumps),
    st.fixed_dictionaries({
        "vertices": st.one_of(st.integers(-1, 8), JUNK),
        "triangles": st.one_of(
            st.lists(st.one_of(st.lists(st.integers(-1, 8), min_size=3,
                                        max_size=3),
                               st.lists(JUNK, max_size=4), JUNK),
                     max_size=12),
            JUNK)}).map(json.dumps),
    st.recursive(JUNK, lambda kids: st.lists(kids, max_size=3)
                 | st.dictionaries(st.text(max_size=9), kids, max_size=3),
                 max_leaves=8).map(json.dumps),
    st.text(max_size=20),
)

NUMBER = st.one_of(st.integers(-3, 14).map(str),
                   st.sampled_from(["", "x", "1.5", "-", "1,2", "--json"]))

# --suite is always drawn for verify: `charts` and `detvar` take
# milliseconds, while `adjugate` and `all` take a quarter of a second or
# more each and run in their own tests.
OPTIONS = {
    "surface": {"--corners": NUMBER,
                "--schedule": st.sampled_from(["standard", "other"])},
    "glue": {"--triangulation": st.sampled_from(["@file", "@missing",
                                                 "@dir"])},
    "fano": {"--kind": st.sampled_from(["zr", "zrs", "zq"]), "--r": NUMBER,
             "--s": NUMBER,
             "--mmax": st.sampled_from(["-1", "0", "1", "2", "4", "y"])},
    "resolve": {"--m": NUMBER,
                "--h2": st.one_of(NUMBER, st.lists(
                    st.integers(-1, 6), max_size=5).map(
                        lambda xs: ",".join(map(str, xs)))),
                "--seed": NUMBER},
    "verify": {"--seed": NUMBER},
}


@st.composite
def argvs(draw):
    argv = ["--json"] if draw(st.booleans()) else []
    command = draw(st.sampled_from([*OPTIONS, "bogus", None]))
    if command is not None:
        argv.append(command)
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(["charts", "detvar",
                                                  "none"]))]
    options = OPTIONS.get(command, {})
    for name in draw(st.lists(st.sampled_from([*options, "--junk",
                                               "--help"]),
                              unique=True, max_size=5)):
        argv.append(name)
        if draw(st.integers(0, 9)):
            argv.append(draw(options.get(name, NUMBER)))
    return argv


def _ends_in_report_or_one_line(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1 and not out:
        assert len(err.splitlines()) == 1


FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(text=TRIANGULATION_TEXT)
@example(text=json.dumps({"vertices": 0, "triangles": []}))
@example(text=json.dumps(_disjoint_union(REFERENCE[0], REFERENCE[0])))
def test_glue_fuzz_ends_in_report_or_one_line(tmp_path, capsys, text):
    path = tmp_path / "t.json"
    path.write_text(text)
    _ends_in_report_or_one_line(capsys, ["glue", "--triangulation",
                                         str(path)])


@FUZZ
@given(argv=argvs())
@example(argv=["resolve", "--m", "3", "--h2", "1,2,1,2", "--seed", "1"])
@example(argv=["verify", "--suite", "detvar", "--seed", "68"])
def test_cli_fuzz_ends_in_report_or_one_line(tmp_path, capsys, argv):
    path = tmp_path / "rp2.json"
    path.write_text(snc.rp2_6().to_json())
    paths = {"@file": str(path), "@missing": str(tmp_path / "missing.json"),
             "@dir": str(tmp_path)}
    _ends_in_report_or_one_line(capsys, [paths.get(a, a) for a in argv])
