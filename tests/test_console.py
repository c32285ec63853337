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

from conftest import simulate_digests
from golden_cases import CSV, DATA, E1, LAW, PEN3, SIMULATE, VERIFY

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INSTALLED = shutil.which("harmbounds")
SCRIPT = [INSTALLED] if INSTALLED else [sys.executable, "-m", "harmbounds.cli"]


def harmbounds(*args, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([*SCRIPT, *args], capture_output=True, env=env)


CONSOLE = {"bounds": LAW["bounds_fuse-table"],
           "decide-machine": LAW["decide_cf_bayes_fuse-machine"],
           # the sweeps, with the regimes they check, on this interpreter's numpy
           "verify": VERIFY["table"], "verify-1000": VERIFY["1000"],
           "data-bounds": DATA["bounds_fuse-e1_n400_seed7-0-table"]}


@pytest.mark.parametrize("case", CONSOLE.values(), ids=list(CONSOLE))
def test_output_matches_golden_file(case):
    proc = harmbounds(*case.argv)
    assert (proc.returncode, proc.stdout) == (case.exit_code, case.read())


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
    proc = harmbounds(*SIMULATE["oracle"].argv, "--out", str(out))
    assert (proc.returncode, proc.stdout) == (0, b"")
    assert out.read_bytes() == SIMULATE["oracle"].read()


def test_simulate_stream_matches_digest():
    # PCG64.advance and choice's use of the stream, across three chunks of rows
    want = [case.values[4] for case in simulate_digests() if case.id == "e1.law-131073-plain"]
    proc = harmbounds("simulate", "--law", E1, "--n", "131073", "--seed", "5")
    assert proc.returncode == 0
    assert [hashlib.sha256(proc.stdout).hexdigest()] == want


@pytest.mark.parametrize("source", [["--law", E1],
                                    ["--data", CSV["e1_n400_seed7"], "--tol", "0.02"]],
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



# The seed lists that predate the rule below; each re-checks, on fewer laws, a
# property that a verify sweep or a longer loop also checks.
KNOWN_SEED_LISTS = {
    ("test_bounds.py", "test_family_is_a_distribution_at_endpoints"),
    ("test_bounds.py", "test_truth_contained"),
    ("test_bounds.py", "test_unconfounded_collapses_to_experimental"),
    ("test_bounds.py", "test_validity_with_mass_accounting_oracle"),
    ("test_bounds.py", "test_noise_only_product_identity"),
    ("test_bounds.py", "test_iff_against_bound_gain"),
    ("test_decide.py", "test_minimax_reduces_to_sign_when_identified_in_sign"),
    ("test_decide.py", "test_positive_affine_rescaling_never_changes_actions"),
    ("test_decide.py", "test_never_negative_for_survival_preferences"),
    ("test_identify.py", "test_entries_in_unit_interval"),
    ("test_laws.py", "test_blocks_normalize_on_random_laws"),
    ("test_laws.py", "test_difference_identity_on_random_laws"),
    ("test_simulate.py", "test_always_valid"),
    ("test_simulate.py", "test_end_to_end_consistency"),
    ("test_utility.py", "test_matches_full_sum_for_random_balanced_tables"),
}


def test_no_new_seed_lists():
    # a new property over random laws goes into a verify sweep or one loop over its seeds,
    # not into a parametrize over "seed" alone (the golden-digest lists name more than seed)
    found = set()
    for folder, _, names in os.walk(os.path.join(ROOT, "tests")):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if not isinstance(node, ast.FunctionDef):
                    continue
                for deco in node.decorator_list:
                    if (isinstance(deco, ast.Call) and isinstance(deco.func, ast.Attribute)
                            and deco.func.attr == "parametrize" and deco.args
                            and isinstance(deco.args[0], ast.Constant)
                            and deco.args[0].value == "seed"):
                        found.add((name, node.name))
    assert found - KNOWN_SEED_LISTS == set()
    assert KNOWN_SEED_LISTS - found == set(), "a seed list went: drop it from KNOWN_SEED_LISTS"
