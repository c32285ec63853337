"""The ``harmbounds`` console script as a whole process, against the golden files.

Runs the installed ``[project.scripts]`` entry point when it is on ``PATH``,
and ``python -m harmbounds.cli`` otherwise.
"""

import ast
import hashlib
import os
import shutil
import subprocess
import sys

import pytest

from conftest import DATA_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INSTALLED = shutil.which("harmbounds")
SCRIPT = [INSTALLED] if INSTALLED else [sys.executable, "-m", "harmbounds.cli"]
E1 = os.path.join(DATA_DIR, "e1.law")
PEN3 = os.path.join(DATA_DIR, "surv_pen3.util")
E1_CSV = os.path.join(DATA_DIR, "simulate_golden", "e1_n400_seed7.csv")


def harmbounds(*args, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([*SCRIPT, *args], capture_output=True, env=env)


def golden(*parts) -> bytes:
    with open(os.path.join(DATA_DIR, *parts), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("args, want", [
    (["bounds", "--law", E1, "--fuse"], ("law_golden", "bounds_fuse.txt")),
    (["decide", "--law", E1, "--utility", PEN3, "--criterion", "cf-bayes", "--fuse", "--machine"],
     ("law_golden", "decide_cf_bayes_fuse_machine.txt")),
    # the sweeps, with the regimes they check, on this interpreter's numpy
    (["verify", "--trials", "200", "--seed", "0"], ("verify_trials200_seed0.txt",)),
    (["verify", "--trials", "1000", "--seed", "1"], ("verify_trials1000_seed1.txt",)),
    (["bounds", "--data", E1_CSV, "--fuse", "--tol", "0.02"],
     ("data_golden", "e1_n400_seed7_bounds_fuse_smoothing0.txt")),
], ids=["bounds", "decide-machine", "verify", "verify-1000", "data-bounds"])
def test_output_matches_golden_file(args, want):
    proc = harmbounds(*args)
    assert (proc.returncode, proc.stdout) == (0, golden(*want))


def test_help():
    proc = harmbounds("--help")
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: harmbounds")


def test_option_the_subcommand_does_not_read_is_refused():
    proc = harmbounds("compare", "--law", E1, "--utility", PEN3, "--fuse")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert b"unrecognized arguments" in proc.stderr


def test_simulate_out_matches_golden_file(tmp_path):
    # the PCG64 stream and the --out path on this interpreter's numpy
    out = tmp_path / "s.csv"
    proc = harmbounds("simulate", "--law", E1, "--n", "400", "--seed", "7", "--oracle",
                      "--out", str(out))
    assert (proc.returncode, proc.stdout) == (0, b"")
    assert out.read_bytes() == golden("simulate_golden", "e1_n400_seed7_oracle.csv")


def test_simulate_stream_matches_digest():
    # PCG64.advance and choice's use of the stream, across three chunks of rows
    case = ["e1.law", "131073", "5", "plain"]
    lines = golden("simulate_golden", "streaming.sha256").decode().splitlines()
    want = [line.split()[4] for line in lines if line.split()[:4] == case]
    proc = harmbounds("simulate", "--law", E1, "--n", "131073", "--seed", "5")
    assert proc.returncode == 0
    assert [hashlib.sha256(proc.stdout).hexdigest()] == want


@pytest.mark.parametrize("source", [["--law", E1], ["--data", E1_CSV, "--tol", "0.02"]],
                         ids=["law", "data"])
def test_analysis_does_not_import_numpy(source):
    # only simulate and verify need numpy, and only verify's LP oracle needs fractions
    proc = harmbounds("bounds", *source, "--fuse",
                      env={**os.environ, "PYTHONPROFILEIMPORTTIME": "1"})
    assert proc.returncode == 0
    assert b"harmbounds.bounds" in proc.stderr  # the import trace was written
    for module in (b"numpy", b"fractions", b"decimal"):
        assert module not in proc.stderr


def test_sources_parse_as_python_3_10():
    # the declared requires-python floor, which running the tests on a newer interpreter misses
    paths = [os.path.join(folder, name)
             for top in ("src", "tests", "bench")
             for folder, _, names in os.walk(os.path.join(ROOT, top))
             for name in sorted(names) if name.endswith(".py")]
    assert len(paths) > 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))
