"""Golden CLI reports.

Each case below runs the CLI in-process with --json and compares its report
with the one stored in tests/golden/<command>.json, after dropping the
run-dependent `seconds` and `command` fields.  A refactor that changes a
single reported number fails here.  After an intended change of output,
rewrite the stored reports with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from sncgeom import cli, snc

GOLDEN = Path(__file__).with_name("golden")

SURFACES = ("tetrahedron", "torus_7", "rp2_6", "klein_bottle", "genus2")

CASES = {"glue": {name: ["glue", name] for name in SURFACES},
         "resolve": {f"m{m}_plain": ["resolve", "--m", str(m),
                                     "--h2", "1,2,1,2"]
                     for m in range(1, 8)},
         "fano": {"zr_r0": ["fano", "--kind", "zr", "--r", "0"],
                  "zr_r1": ["fano", "--kind", "zr", "--r", "1"],
                  "zrs_r1_s2": ["fano", "--kind", "zrs", "--r", "1",
                                "--s", "2"],
                  # the widest configurations of the benchmark's fano workload
                  "zr_r8": ["fano", "--kind", "zr", "--r", "8"],
                  "zrs_r6_s0": ["fano", "--kind", "zrs", "--r", "6",
                                "--s", "0"],
                  "zrs_r0_s4": ["fano", "--kind", "zrs", "--r", "0",
                                "--s", "4"],
                  # products of b1 with b3 and b4, past the workload's degree 3
                  "zr_r8_mmax5": ["fano", "--kind", "zr", "--r", "8",
                                  "--mmax", "5"],
                  "zrs_r3_s3_mmax5": ["fano", "--kind", "zrs", "--r", "3",
                                      "--s", "3", "--mmax", "5"]},
         "verify": {"all_seed0": ["verify", "--suite", "all", "--seed", "0"]},
         "surface": {"schedule_standard": ["surface", "--schedule",
                                           "standard"],
                     "corners_0": ["surface", "--corners", "0"],
                     "corners_3": ["surface", "--corners", "3"]}}


def report(argv, workdir):
    """(exit status, --json report without `seconds` and `command`) of
    `argv`; a glue case names a reference surface of `snc`, written as a
    triangulation file under `workdir`."""
    if argv[0] == "glue":
        path = Path(workdir) / f"{argv[1]}.json"
        path.write_text(getattr(snc, argv[1])().to_json())
        argv = ["glue", "--triangulation", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json", *argv])
    data = json.loads(out.getvalue())
    del data["seconds"], data["command"]
    return {"exit": code, "report": data}


@pytest.mark.parametrize("command,name", [
    (command, name) for command, cases in CASES.items() for name in cases])
def test_report_matches_golden(command, name, tmp_path, monkeypatch):
    monkeypatch.delenv("SNC_SEED", raising=False)
    golden = json.loads((GOLDEN / f"{command}.json").read_text())
    assert report(CASES[command][name], tmp_path) == golden[name]


def write_golden():
    os.environ.pop("SNC_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for command, cases in CASES.items():
            reports = {name: report(argv, workdir)
                       for name, argv in cases.items()}
            (GOLDEN / f"{command}.json").write_text(
                json.dumps(reports, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
