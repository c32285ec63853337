import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from harmbounds import cli, verify
from harmbounds.cli import main
from harmbounds.decide import CRITERIA
from harmbounds.simulate import random_law
from harmbounds.verify import PROPS

from conftest import DATA_DIR, simulate_digests


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_no_command(self):
        code, _, _ = run()
        assert code == 1

    def test_unknown_command(self):
        code, _, err = run("frobnicate")
        assert code == 1
        assert "usage error" in err

    def test_unknown_flag(self):
        code, _, err = run("bounds", "--nope")
        assert code == 1

    def test_bad_criterion_value(self, e1_law_path, pen3_util_path):
        code, _, _ = run("decide", "--law", e1_law_path, "--utility", pen3_util_path,
                         "--criterion", "yolo")
        assert code == 1

    def test_compare_needs_counterfactual_criterion(self, e1_law_path, pen3_util_path):
        code, out, err = run("compare", "--law", e1_law_path, "--utility", pen3_util_path,
                             "--criterion", "interventionist")
        assert code == 1 and out == ""
        assert err == ("usage error: compare needs a counterfactual --criterion: "
                       "cf-point, cf-minimax-regret, cf-maximin, cf-bayes\n")

    def test_missing_input(self):
        code, _, err = run("bounds")
        assert code == 1
        assert "--law" in err

    def test_missing_file(self):
        code, _, err = run("bounds", "--law", "no-such-file.law")
        assert code == 2

    def test_malformed_law_file(self, tmp_path):
        path = tmp_path / "bad.law"
        path.write_text("L l0 1.0\nTRIAL l0 0.5 oops\n")
        code, _, err = run("bounds", "--law", str(path))
        assert code == 2
        assert "line 2" in err

    def test_unnormalized_law_file(self, tmp_path, e1_law_path):
        text = open(e1_law_path).read().replace("ASTAR l0 0.3", "ASTAR l0 3.0")
        path = tmp_path / "bad.law"
        path.write_text(text)
        code, _, err = run("bounds", "--law", str(path))
        assert code == 2
        assert "not a probability" in err

    def test_point_decision_on_set_identified_gain(self, e1_law_path, pen3_util_path):
        code, _, err = run("decide", "--law", e1_law_path, "--utility", pen3_util_path,
                           "--criterion", "cf-point")
        assert code == 3
        assert "not identified" in err

    @pytest.mark.parametrize("line, bad, criterion, message", [
        ("MU 0 0 1.0", "MU 0 0 nan", "interventionist", "line 2: MU value 'nan' is not finite"),
        ("GAMMA 1 1 -3.0", "GAMMA 1 1 inf", "cf-minimax-regret",
         "line 7: GAMMA value 'inf' is not finite"),
    ])
    def test_non_finite_utility_is_format_error(self, tmp_path, e1_law_path, pen3_util_path,
                                                line, bad, criterion, message):
        path = tmp_path / "bad.util"
        path.write_text(open(pen3_util_path).read().replace(line, bad))
        code, out, err = run("decide", "--law", e1_law_path, "--utility", str(path),
                             "--criterion", criterion)
        assert code == 2 and out == ""
        assert message in err

    def test_empty_trial_is_identification_failure(self, tmp_path, e1_law_path):
        text = open(e1_law_path).read().replace("TRIAL l0 0.5 0.5", "TRIAL l0 0.0 0.5")
        path = tmp_path / "no-trial.law"
        path.write_text(text)
        code, out, err = run("bounds", "--law", str(path))
        assert code == 3 and out == ""
        assert "empty block (level 'l0', R=1)" in err

    def test_stratum_block_summing_past_one(self, tmp_path, e1_law_path, pen3_util_path):
        # the A*=1 block sums to 1 + 2**-52, inside the validation tolerance
        block = "0.26853172339821946 0 0.7314682766017807 0"
        text = open(e1_law_path).read().replace(
            "S l0 1 0.3333333333333333 0.0 0.6666666666666666 0.0", f"S l0 1 {block}")
        path = tmp_path / "rounded.law"
        path.write_text(text)
        code, _, err = run("decide", "--law", str(path), "--utility", pen3_util_path,
                           "--criterion", "interventionist", "--use-astar")
        assert code == 0, err
        both = text.replace("S l0 0 0.0 0.42857142857142855 0.0 0.5714285714285714",
                            f"S l0 0 {block}")
        path.write_text(both)
        code, out, err = run("identify", "--law", str(path))
        assert code == 0, err
        assert "E[Y^1 | l]              1.000000" in out

    def test_coded_field_outside_int8_is_format_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("R,L,A,Y\n300,l0,0,0\n")
        code, _, err = run("bounds", "--data", str(path))
        assert code == 2
        assert "column R contains values outside (0, 1)" in err

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-0.5"])
    def test_tol_must_be_finite_and_non_negative(self, e1_law_path, tol):
        code, out, err = run("bounds", "--law", e1_law_path, "--fuse", f"--tol={tol}")
        assert code == 1 and out == ""
        assert err.startswith("usage error: --tol must be finite and non-negative")

    @pytest.mark.parametrize("argv, message", [
        *[pytest.param(["bounds", f"--smoothing={s}"],
                       "--smoothing must be finite and non-negative", id=f"smoothing={s}")
          for s in ("-1", "inf", "nan")],
        pytest.param(["simulate", "--n", "0"], "--n must be at least 1", id="n=0"),
        pytest.param(["simulate", "--seed", "-1"], "--seed must be at least 0",
                     id="simulate-seed=-1"),
        pytest.param(["verify", "--seed", "-1"], "--seed must be at least 0",
                     id="verify-seed=-1"),
        pytest.param(["verify", "--props", "excess", "--trials", "0"],
                     "--trials must be at least 1", id="trials=0"),
        pytest.param(["verify", "--trials", "-5"], "--trials must be at least 1",
                     id="trials=-5"),
    ])
    def test_numeric_options_are_range_checked(self, e1_law_path, argv, message):
        if argv[0] != "verify":  # verify takes no --law
            argv = [*argv, "--law", e1_law_path]
        code, out, err = run(*argv)
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: {message}")

    @pytest.mark.parametrize("argv, message", [
        (["compare", "--fuse", "--use-astar", "--tol", "0"], "unrecognized arguments: "),
        (["bounds", "--criterion", "cf-bayes", "--oracle"], "unrecognized arguments: "),
        # the parser takes --smoothing for --data, and law mode never reads it
        (["decide", "--criterion", "cf-maximin", "--smoothing", "0.5"],
         "--smoothing applies only to --data\n"),
    ], ids=["compare", "bounds", "decide-smoothing"])
    def test_ignored_options_are_refused(self, e1_law_path, pen3_util_path, argv, message):
        code, out, err = run(*argv, "--law", e1_law_path, "--utility", pen3_util_path)
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: {message}")

    @pytest.mark.parametrize("missing", ["--utility", "--criterion"])
    def test_decide_requires_utility_and_criterion(self, e1_law_path, pen3_util_path, missing):
        argv = ["--law", e1_law_path, "--utility", pen3_util_path, "--criterion", "cf-maximin"]
        i = argv.index(missing)
        code, out, err = run("decide", *argv[:i], *argv[i + 2:])
        assert code == 1 and out == ""
        assert err == f"usage error: the following arguments are required: {missing}\n"

    def test_non_utf8_law_file_is_format_error(self, tmp_path):
        path = tmp_path / "latin1.law"
        path.write_bytes("L caf\xe9 1.0\n".encode("latin-1"))
        code, out, err = run("bounds", "--law", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: 'utf-8' codec can't decode")

    def test_positivity_is_identification_failure(self, tmp_path, e1_law_path):
        text = open(e1_law_path).read().replace("TRIAL l0 0.5 0.5", "TRIAL l0 0.5 0.0")
        path = tmp_path / "degenerate.law"
        path.write_text(text)
        code, _, err = run("identify", "--law", str(path))
        assert code == 3
        assert "empty arm" in err

    def test_empty_arm_is_worded_alike_in_law_and_data_mode(self, tmp_path, e1_law_path):
        # every trial row is treated, so the A=0 trial arm is empty
        text = open(e1_law_path).read().replace("TRIAL l0 0.5 0.5", "TRIAL l0 0.5 1.0")
        law, data = tmp_path / "all_treated.law", tmp_path / "all_treated.csv"
        law.write_text(text)
        assert run("simulate", "--law", str(law), "--n", "400", "--seed", "1",
                   "--out", str(data)) == (0, "", "")
        for command in ("identify", "bounds"):
            for source in (["--law", str(law)], ["--data", str(data)]):
                assert run(command, *source) == (3, "", "error: empty arm (level 'l0', R=1, A=0)\n")


# The options each subcommand takes (34 pairs); every other option is refused.
_ANALYSIS = ("--law", "--data", "--smoothing", "--fuse", "--tol", "--machine")
ACCEPTED = {
    "simulate": ("--law", "--seed", "--n", "--oracle", "--out"),
    "identify": _ANALYSIS,
    "bounds": _ANALYSIS,
    "decide": (*_ANALYSIS, "--utility", "--criterion", "--use-astar"),
    "compare": ("--law", "--utility", "--criterion", "--machine"),
    "verify": ("--props", "--trials", "--seed", "--machine"),
}


@pytest.mark.parametrize("command", ACCEPTED)
def test_each_subcommand_takes_exactly_its_options(e1_law_path, pen3_util_path, command):
    values = {"--law": e1_law_path, "--data": "d.csv", "--utility": pen3_util_path,
              "--seed": "3", "--n": "5", "--smoothing": "0.5", "--criterion": "cf-maximin",
              "--trials": "2", "--tol": "0.25", "--out": "d.csv", "--props": "s3"}
    flags = ("--fuse", "--use-astar", "--oracle", "--machine", *values)
    base = {"simulate": ["--law", e1_law_path],
            "decide": ["--utility", pen3_util_path, "--criterion", "cf-point"],
            "compare": ["--law", e1_law_path, "--utility", pen3_util_path]}.get(command, [])
    assert sum(map(len, ACCEPTED.values())) == 34 and len(flags) == 15
    for flag in flags:
        given = [flag] + ([values[flag]] if flag in values else [])
        if flag in ACCEPTED[command]:
            args = cli.build_parser().parse_args([command, *base, *given])
            dest = flag[2:].replace("-", "_")
            assert str(getattr(args, dest)) == values.get(flag, "True"), flag
        else:
            code, out, err = run(command, *base, *given)
            assert (code, out) == (1, ""), flag
            assert err == f"usage error: unrecognized arguments: {' '.join(given)}\n"


# Law-mode commands on e1.law (with surv_pen3.util where a utility is needed):
# golden-file stem, arguments and exit code.
LAW_GOLDEN = [
    ("identify", ["identify"], 0),
    ("identify_fuse", ["identify", "--fuse"], 0),
    ("bounds", ["bounds"], 0),
    ("bounds_fuse", ["bounds", "--fuse"], 0),
    ("decide_interventionist", ["decide", "--criterion", "interventionist"], 0),
    ("decide_interventionist_use_astar",
     ["decide", "--criterion", "interventionist", "--use-astar"], 0),
    ("decide_cf_point", ["decide", "--criterion", "cf-point"], 3),
    ("decide_cf_point_fuse", ["decide", "--criterion", "cf-point", "--fuse"], 0),
    ("decide_cf_minimax_regret", ["decide", "--criterion", "cf-minimax-regret"], 0),
    ("decide_cf_minimax_regret_fuse",
     ["decide", "--criterion", "cf-minimax-regret", "--fuse"], 0),
    ("decide_cf_maximin", ["decide", "--criterion", "cf-maximin"], 0),
    ("decide_cf_maximin_fuse", ["decide", "--criterion", "cf-maximin", "--fuse"], 0),
    ("decide_cf_bayes", ["decide", "--criterion", "cf-bayes"], 0),
    ("decide_cf_bayes_fuse", ["decide", "--criterion", "cf-bayes", "--fuse"], 0),
    ("compare", ["compare"], 0),
]


def golden_case(stem, argv, form, law_path, util_path, folder="law_golden"):
    """Full argument list and golden stdout bytes of one ``LAW_GOLDEN`` entry."""
    args = [*argv, "--law", law_path]
    if argv[0] in ("decide", "compare"):
        args += ["--utility", util_path]
    if form == "machine":
        args.append("--machine")
        stem += "_machine"
    with open(os.path.join(DATA_DIR, folder, f"{stem}.txt"), "rb") as fh:
        return args, fh.read()


@pytest.mark.parametrize("form", ["table", "machine"])
@pytest.mark.parametrize("stem, argv, exit_code", LAW_GOLDEN, ids=[c[0] for c in LAW_GOLDEN])
def test_law_mode_output_matches_golden_file(e1_law_path, pen3_util_path,
                                             stem, argv, exit_code, form):
    args, want = golden_case(stem, argv, form, e1_law_path, pen3_util_path)
    code, out, _ = run(*args)
    assert code == exit_code
    assert out.encode("utf-8") == want


def test_reused_parser_keeps_no_state_between_calls(e1_law_path, pen3_util_path):
    # Every golden command twice, the second pass reversed (so `bounds` runs
    # right after `bounds --fuse`), with a usage error, a --help exit and a
    # bare call between each two commands, all in one process.
    cases = [(*golden_case(stem, argv, form, e1_law_path, pen3_util_path), exit_code)
             for form in ("table", "machine") for stem, argv, exit_code in LAW_GOLDEN]
    cli.build_parser.cache_clear()

    def usage_error():
        code, out, err = run("decide", "--law", e1_law_path, "--utility", pen3_util_path,
                             "--criterion", "yolo")
        assert (code, out) == (1, "")
        return err

    def help_exit():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(["bounds", "--help"])
        assert exc.value.code == 0
        return out.getvalue()

    def bare_call():
        code, out, err = run()
        assert (code, out) == (1, "")
        assert err.startswith("usage: harmbounds")
        return err

    between = [usage_error, help_exit, bare_call]
    first = {f: f() for f in between}
    for i, (args, want, exit_code) in enumerate(cases + cases[::-1]):
        code, out, _ = run(*args)
        assert (code, out.encode("utf-8")) == (exit_code, want), args
        f = between[i % 3]
        assert f() == first[f]
    assert cli.build_parser.cache_info().misses == 1


# Four of them on format_label.law, e1.law with its level label x{0}y%s:ñ.
LABEL_GOLDEN = [c for c in LAW_GOLDEN if c[0] in (
    "identify_fuse", "bounds_fuse", "decide_cf_minimax_regret_fuse",
    "decide_interventionist_use_astar")]


@pytest.mark.parametrize("form", ["table", "machine"])
@pytest.mark.parametrize("stem, argv, exit_code", LABEL_GOLDEN, ids=[c[0] for c in LABEL_GOLDEN])
def test_level_label_prints_as_itself(pen3_util_path, stem, argv, exit_code, form):
    args, want = golden_case(stem, argv, form, os.path.join(DATA_DIR, "format_label.law"),
                             pen3_util_path, folder="label_golden")
    assert run(*args) == (exit_code, want.decode("utf-8"), "")


NUMBER = re.compile(r"-?\d+\.\d{6}")


def law_text(law) -> str:
    """The law file of ``law``; ``repr`` writes each probability exactly."""
    lines = []
    for l in law.levels:
        lines += [f"L {l} {law.p_level[l]!r}", f"TRIAL {l} {law.p_r1[l]!r} {law.p_treat[l]!r}",
                  f"ASTAR {l} {law.p_astar[l]!r}"]
        lines += [f"S {l} {astar} {' '.join(map(repr, law.p_strata[(l, astar)]))}"
                  for astar in (1, 0)]
    return "\n".join(lines) + "\n"


def machine_numbers(text: str) -> list:
    """The 6-decimal fields of ``--machine`` records, in the order the table prints them."""
    numbers = []
    for line in text.splitlines():
        record = dict(field.split(":", 1) for field in line.split("\t"))
        # the table prints compare's outcome-level value first
        keys = ("int_value", "cf_value", "excess") if record["kind"] == "compare" else record
        numbers += [record[k] for k in keys if NUMBER.fullmatch(record[k])]
    return numbers


def test_table_and_machine_forms_report_the_same_numbers(tmp_path, pen3_util_path):
    # without the treatment charge, gain equality holds and cf-point decides every law
    survival = tmp_path / "survival.util"
    with open(pen3_util_path, encoding="utf-8") as fh:
        survival.write_text(fh.read().replace("GAMMA 1 1 -3.0", "GAMMA 1 1 0.0"))
    commands = [["identify", "--fuse"], ["bounds", "--fuse"],
                ["compare", "--utility", pen3_util_path]]
    commands += [["decide", "--utility", util, "--criterion", c, "--fuse"]
                 for util in (pen3_util_path, str(survival))
                 for c in CRITERIA if c != "interventionist"]
    compared = 0
    for seed in range(20):
        path = tmp_path / f"law{seed}.law"
        path.write_text(law_text(random_law(seed, n_levels=1 + seed % 3)), encoding="utf-8")
        for argv in commands:
            code, table, err = run(*argv, "--law", str(path))
            machine = run(*argv, "--law", str(path), "--machine")
            assert (machine[0], machine[2]) == (code, err), argv
            numbers = NUMBER.findall(table)
            assert numbers == machine_numbers(machine[1]), argv
            compared += len(numbers)
    assert compared > 1500


# Data-mode commands on the simulate_golden CSVs (with surv_pen3.util where a
# utility is needed): golden-file stem and arguments.  Every one exits 0.
DATA_GOLDEN = [
    ("identify", ["identify"]),
    ("bounds_fuse", ["bounds", "--fuse", "--tol", "0.02"]),
    ("decide_cf_minimax_regret_fuse",
     ["decide", "--criterion", "cf-minimax-regret", "--fuse", "--tol", "0.02"]),
]


def golden_csv_path(stem: str) -> str:
    return os.path.join(DATA_DIR, "simulate_golden", f"{stem}.csv")


def data_golden(name: str) -> str:
    with open(os.path.join(DATA_DIR, "data_golden", f"{name}.txt"), "rb") as fh:
        return fh.read().decode("utf-8")


@pytest.mark.parametrize("form", ["table", "machine"])
@pytest.mark.parametrize("smoothing", ["0", "0.1"])
@pytest.mark.parametrize("csv", ["e1_n400_seed7", "e1_n400_seed7_oracle"])
@pytest.mark.parametrize("stem, argv", DATA_GOLDEN, ids=[c[0] for c in DATA_GOLDEN])
def test_data_mode_output_matches_golden_file(pen3_util_path, stem, argv, csv, smoothing,
                                              form):
    args = [*argv, "--data", golden_csv_path(csv), "--smoothing", smoothing]
    if argv[0] == "decide":
        args += ["--utility", pen3_util_path]
    name = f"{csv}_{stem}_smoothing{smoothing}"
    if form == "machine":
        args.append("--machine")
        name += "_machine"
    assert run(*args) == (0, data_golden(name), "")


class TestDataFileText:
    """How a ``--data`` file's bytes become lines; each case ends in ``identify --machine``."""

    #: The line breaks ``str.splitlines`` honours besides "\n".
    BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @staticmethod
    def identify(tmp_path, data: bytes):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        return run("identify", "--data", str(path), "--machine")

    @staticmethod
    def text() -> str:
        with open(golden_csv_path("e1_n400_seed7"), encoding="utf-8") as fh:
            return fh.read()

    @pytest.mark.parametrize("where", ["row_end", "only"])
    @pytest.mark.parametrize("brk", BREAKS, ids=ascii)
    def test_any_line_break_ends_a_row(self, tmp_path, brk, where):
        # before every "\n" (a blank line after each row), or in place of it
        text = self.text().replace("\n", brk + "\n" if where == "row_end" else brk)
        want = data_golden("e1_n400_seed7_identify_smoothing0_machine")
        assert self.identify(tmp_path, text.encode("utf-8")) == (0, want, "")

    @pytest.mark.parametrize("brk", BREAKS, ids=ascii)
    def test_a_line_break_inside_a_row_splits_it(self, tmp_path, brk):
        lines = self.text().split("\n")
        row = lines[5]  # file line 5 after the comment and the header
        lines[5] = row.replace(",", brk, 1)
        assert self.identify(tmp_path, "\n".join(lines).encode("utf-8")) == (
            2, "", "error: line 5: expected 4 fields, got 1\n")
        lines[5] = row.replace(",", "," + brk, 2)
        assert self.identify(tmp_path, "\n".join(lines).encode("utf-8")) == (
            2, "", "error: line 5: expected 4 fields, got 2\n")

    def test_no_final_newline(self, tmp_path):
        want = data_golden("e1_n400_seed7_identify_smoothing0_machine")
        assert self.identify(tmp_path, self.text().rstrip("\n").encode("utf-8")) == (
            0, want, "")

    def test_byte_order_mark_is_part_of_the_first_line(self, tmp_path):
        want = (2, "", "error: dataset header must start with R,L,A,Y\n")
        bom = "\ufeff".encode("utf-8")
        text = self.text()
        assert self.identify(tmp_path, bom + text.encode("utf-8")) == want
        assert self.identify(tmp_path, bom + text.split("\n", 1)[1].encode("utf-8")) == want

    @pytest.mark.parametrize("data, position", [
        # past the first 8 KB: the position counts from the start of the file
        (b"R,L,A,Y\n" + b"1,l0,1,0\n0,l0,0,1\n1,l0,0,1\n" * 1000 + b"1,l\xff0,1,0\n"
         + b"0,l0,1,1\n" * 10, "byte 0xff in position 27011: invalid start byte"),
        (b"R,L,A,Y\n1,l0,1,0\n0,\xe2\x82,1,1\n",
         "bytes in position 19-20: invalid continuation byte"),
    ], ids=["late", "early"])
    def test_undecodable_byte(self, tmp_path, data, position):
        assert self.identify(tmp_path, data) == (
            2, "", f"error: 'utf-8' codec can't decode {position}\n")


class TestBounds:
    def test_fused_fixture_lines(self, e1_law_path):
        code, out, _ = run("bounds", "--law", e1_law_path, "--fuse")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "P(S=1|l0) ∈ [0.100000, 0.100000] (fused)"
        assert "four-term lower bound P(S=1|l0) >= 0.100000" in lines

    def test_experimental_fixture_lines(self, e1_law_path):
        code, out, _ = run("bounds", "--law", e1_law_path)
        assert code == 0
        assert "P(S=1|l0) ∈ [0.000000, 0.300000] (experimental-only)" in out.splitlines()

    def test_machine_mode(self, e1_law_path):
        code, out, _ = run("bounds", "--law", e1_law_path, "--fuse", "--machine")
        assert code == 0
        first = out.splitlines()[0].split("\t")
        assert first[0] == "kind:stratum_bound"
        record = dict(field.split(":", 1) for field in first)
        assert record["level"] == "l0"
        assert record["lo"] == "0.100000"
        assert record["source"] == "fused"

    def test_byte_identical_reruns(self, e1_law_path):
        first = run("bounds", "--law", e1_law_path, "--fuse")
        second = run("bounds", "--law", e1_law_path, "--fuse")
        assert first == second


class TestIdentify:
    def test_fixture_table(self, e1_law_path):
        code, out, _ = run("identify", "--law", e1_law_path, "--fuse")
        assert code == 0
        assert "  ATE                    -0.200000" in out.splitlines()
        assert "  ATT                     0.333333" in out.splitlines()
        assert "  ATU                    -0.428571" in out.splitlines()

    def test_machine_records(self, e1_law_path):
        code, out, _ = run("identify", "--law", e1_law_path, "--machine")
        records = [dict(f.split(":", 1) for f in line.split("\t"))
                   for line in out.splitlines()]
        assert {"kind": "exp_mean", "level": "l0", "a": "1", "value": "0.300000"} in records
        assert {"kind": "ate", "level": "l0", "value": "-0.200000"} in records


class TestDecide:
    def test_minimax_regret_report(self, e1_law_path, pen3_util_path):
        code, out, _ = run("decide", "--law", e1_law_path, "--utility", pen3_util_path,
                           "--criterion", "cf-minimax-regret")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "criterion cf-minimax-regret"
        assert "  gain interval       [-0.700000, 0.200000]" in lines
        assert any(line.startswith("  action") and line.endswith("0") for line in lines)

    def test_interventionist_with_intention(self, e1_law_path, pen3_util_path):
        code, out, _ = run("decide", "--law", e1_law_path, "--utility", pen3_util_path,
                           "--criterion", "interventionist", "--use-astar", "--machine")
        assert code == 0
        records = [dict(f.split(":", 1) for f in line.split("\t"))
                   for line in out.splitlines()]
        by_astar = {r["astar"]: r["action"] for r in records}
        assert by_astar == {"1": "0", "0": "1"}

    def test_interventionist_fuse_needs_no_fusion_without_use_astar(self, e1_law_path,
                                                                    pen3_util_path):
        # Without --use-astar the report reads only the trial means, so a
        # fusion that fails at tol 0 must not refuse the decision.
        args = ("decide", "--law", e1_law_path, "--utility", pen3_util_path,
                "--criterion", "interventionist", "--tol", "0")
        code, out, _ = run(*args)
        assert code == 0 and "action" in out
        assert run(*args, "--fuse") == (code, out, "")

    def test_use_astar_requires_interventionist(self, e1_law_path, pen3_util_path):
        code, _, err = run("decide", "--law", e1_law_path, "--utility", pen3_util_path,
                           "--criterion", "cf-maximin", "--use-astar")
        assert code == 1
        assert "interventionist" in err

    def test_cf_needs_gamma_table(self, e1_law_path, tmp_path):
        path = tmp_path / "mu.util"
        path.write_text("MU 0 0 1.0\nMU 0 1 1.0\nMU 1 0 0.0\nMU 1 1 0.0\n")
        code, _, err = run("decide", "--law", e1_law_path, "--utility", str(path),
                           "--criterion", "cf-maximin")
        assert code == 2
        assert "no stratum table" in err


class TestCompare:
    def test_fixture(self, e1_law_path, pen3_util_path):
        code, out, _ = run("compare", "--law", e1_law_path, "--utility", pen3_util_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("0.300000")
        assert lines[1].endswith("0.500000")
        assert lines[2].endswith("0.200000")

    def test_requires_full_law(self, pen3_util_path, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("R,L,A,Y\n1,l0,1,0\n")
        code, _, err = run("compare", "--data", str(data), "--utility", pen3_util_path)
        assert code == 1
        assert "--law" in err


class TestSimulatePipeline:
    def test_simulate_writes_csv(self, e1_law_path, tmp_path):
        out_path = tmp_path / "d.csv"
        code, out, _ = run("simulate", "--law", e1_law_path, "--n", "200",
                           "--seed", "42", "--out", str(out_path))
        assert code == 0 and out == ""
        text = out_path.read_text()
        assert text.startswith("# pcg64 seed=42 n=200\nR,L,A,Y\n")
        assert len(text.splitlines()) == 202

    def test_simulate_stdout_deterministic(self, e1_law_path):
        first = run("simulate", "--law", e1_law_path, "--n", "50", "--seed", "7")
        second = run("simulate", "--law", e1_law_path, "--n", "50", "--seed", "7")
        assert first == second

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
    def test_simulate_matches_golden_file(self, e1_law_path, tmp_path, oracle, to_file):
        # Recorded before the sampler read strata from its cut-point table.
        args = ["simulate", "--law", e1_law_path, "--n", "400", "--seed", "7"]
        name = "e1_n400_seed7.csv"
        if oracle:
            args.append("--oracle")
            name = "e1_n400_seed7_oracle.csv"
        out_path = tmp_path / "d.csv"
        if to_file:
            args += ["--out", str(out_path)]
        with open(os.path.join(DATA_DIR, "simulate_golden", name), "rb") as fh:
            want = fh.read()
        code, out, _ = run(*args)
        assert code == 0
        got = out_path.read_bytes() if to_file else out.encode("utf-8")
        assert got == want

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("law_path, n, seed, oracle, digest", simulate_digests())
    def test_simulate_matches_streaming_digests(self, tmp_path, law_path, n, seed, oracle,
                                                digest, to_file):
        args = ["simulate", "--law", law_path, "--n", str(n), "--seed", str(seed)]
        args += ["--oracle"] if oracle else []
        out_path = tmp_path / "d.csv"
        args += ["--out", str(out_path)] if to_file else []
        code, out, _ = run(*args)
        assert code == 0
        got = out_path.read_bytes() if to_file else out.encode("utf-8")
        assert hashlib.sha256(got).hexdigest() == digest

    def test_memory_does_not_grow_with_n(self):
        # numpy reports its buffers to tracemalloc; writing every row at once peaked at 35 MB
        args = ["simulate", "--law", os.path.join(DATA_DIR, "mixed_width.law"), "--seed", "3",
                "--out", os.devnull]
        assert main(args + ["--n", "1"]) == 0  # imports outside the traced call
        tracemalloc.start()
        try:
            assert main(args + ["--n", "1000000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_label_with_comma_refused_before_writing(self, e1_law_path, tmp_path):
        law = tmp_path / "comma.law"
        with open(e1_law_path, encoding="utf-8") as fh:
            law.write_text(fh.read().replace(" l0 ", " a,b "), encoding="utf-8")
        assert run("bounds", "--law", str(law))[0] == 0  # law mode keeps the label
        out_path = tmp_path / "d.csv"
        for to_file in ([], ["--out", str(out_path)]):
            code, out, err = run("simulate", "--law", str(law), "--n", "10", *to_file)
            assert (code, out) == (2, "")
            assert err == ("error: level label 'a,b' contains ',', "
                           "which a dataset CSV field cannot hold\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_level_mass_just_below_zero_samples_as_zero(self, tmp_path, to_file):
        # a law accepts P(L) down to -SUM_TOL; numpy's choice() refuses a negative weight
        text = ("L l0 1.0000000005\nL l1 {}\nTRIAL l0 0.5 0.4\nTRIAL l1 0.6 0.5\n"
                "ASTAR l0 0.3\nASTAR l1 0.7\nS l0 1 0.1 0.2 0.3 0.4\nS l0 0 0.4 0.3 0.2 0.1\n"
                "S l1 1 0.25 0.25 0.25 0.25\nS l1 0 0.5 0.0 0.5 0.0\n")
        outputs = []
        for mass in ("-0.0000000005", "0.0"):
            law = tmp_path / f"l1_{mass}.law"
            law.write_text(text.format(mass))
            assert run("bounds", "--law", str(law))[0] == 0
            out_path = tmp_path / f"l1_{mass}.csv"
            to_file_args = ["--out", str(out_path)] if to_file else []
            code, out, err = run("simulate", "--law", str(law), "--n", "300", "--seed", "4",
                                 "--oracle", *to_file_args)
            assert (code, err) == (0, "")
            outputs.append(out_path.read_bytes() if to_file else out.encode("utf-8"))
        assert outputs[0] == outputs[1]
        assert b",l0," in outputs[0] and b",l1," not in outputs[0]

    def test_oracle_columns(self, e1_law_path):
        code, out, _ = run("simulate", "--law", e1_law_path, "--n", "10",
                           "--seed", "1", "--oracle")
        assert "R,L,A,Y,ASTAR,S" in out.splitlines()[1]

    def test_identify_from_data(self, e1_law_path, tmp_path):
        data_path = tmp_path / "big.csv"
        assert run("simulate", "--law", e1_law_path, "--n", "200000",
                   "--seed", "5", "--out", str(data_path))[0] == 0
        code, out, _ = run("identify", "--data", str(data_path), "--fuse",
                           "--tol", "0.05", "--machine")
        assert code == 0
        records = [dict(f.split(":", 1) for f in line.split("\t"))
                   for line in out.splitlines()]
        ate = next(float(r["value"]) for r in records if r["kind"] == "ate")
        assert ate == pytest.approx(-0.2, abs=0.01)

    def test_bounds_from_data(self, e1_law_path, tmp_path):
        data_path = tmp_path / "big.csv"
        run("simulate", "--law", e1_law_path, "--n", "200000", "--seed", "5",
            "--out", str(data_path))
        code, out, _ = run("bounds", "--data", str(data_path), "--fuse",
                           "--tol", "0.05", "--machine")
        assert code == 0
        records = [dict(f.split(":", 1) for f in line.split("\t"))
                   for line in out.splitlines()]
        s1 = next(r for r in records if r["kind"] == "stratum_bound" and r["s"] == "1")
        assert float(s1["lo"]) == pytest.approx(0.1, abs=0.02)
        assert float(s1["hi"]) == pytest.approx(0.1, abs=0.02)

    def test_law_and_data_together_rejected(self, e1_law_path, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("R,L,A,Y\n1,l0,1,0\n")
        code, _, err = run("identify", "--law", e1_law_path, "--data", str(data))
        assert code == 1


class TestVerify:
    def test_single_prop(self):
        code, out, _ = run("verify", "--props", "s3", "--trials", "100", "--seed", "1")
        assert code == 0
        assert out.splitlines()[0] == "s3: 100/100 pass"

    def test_multiple_props_machine(self):
        code, out, _ = run("verify", "--props", "s4,fusion", "--trials", "50",
                           "--seed", "2", "--machine")
        assert code == 0
        kinds = [line.split("\t")[0] for line in out.splitlines()
                 if not line.startswith("  ")]
        assert kinds == ["kind:verify", "kind:verify"]

    def test_s4_reports_unclipped_counterexample(self):
        code, out, _ = run("verify", "--props", "s4", "--trials", "200", "--seed", "3")
        assert code == 0
        assert "unclipped dominance fails" in out

    @pytest.mark.parametrize("form", ["table", "machine"])
    def test_output_matches_golden_file(self, form):
        # Recorded before the oracle moved from Fraction to int arithmetic.
        args = ["verify", "--trials", "200", "--seed", "0"]
        name = "verify_trials200_seed0.txt"
        if form == "machine":
            args.append("--machine")
            name = "verify_trials200_seed0_machine.txt"
        with open(os.path.join(DATA_DIR, name), "rb") as fh:
            want = fh.read()
        code, out, _ = run(*args)
        assert code == 0
        assert out.encode("utf-8") == want

    def test_unknown_prop(self):
        code, _, err = run("verify", "--props", "s9")
        assert code == 1
        assert "unknown properties" in err

    @pytest.mark.parametrize("props", ["", "s3,", ",s3", "s3,,s4", " , "])
    def test_empty_props_entry(self, props):
        code, out, err = run("verify", "--props", props, "--trials", "2")
        assert code == 1 and out == ""
        assert err == f"usage error: --props has an empty entry: {props!r}\n"

    def test_fault_inside_a_sweep_is_not_a_usage_error(self, monkeypatch):
        def broken(law, cells, probs):
            raise ValueError("internal fault")

        monkeypatch.setattr(verify, "_table_lower_bound", broken)
        with pytest.raises(ValueError, match="internal fault"):
            run("verify", "--props", "s3", "--trials", "5")

    def test_props_help_names_every_sweep(self):
        assert cli._VERIFY_PROPS == tuple(PROPS)

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "harmbounds.cli", "verify", "--props", "fusion",
             "--trials", "20", "--seed", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "fusion: 20/20 pass"


def test_law_mode_commands_do_not_load_numpy(e1_law_path, pen3_util_path):
    commands = [["identify", "--fuse"], ["bounds", "--fuse"],
                ["decide", "--utility", pen3_util_path, "--criterion", "cf-bayes", "--fuse"],
                ["decide", "--utility", pen3_util_path, "--criterion", "interventionist",
                 "--use-astar"],
                ["compare", "--utility", pen3_util_path]]
    script = ("import contextlib, io, sys\n"
              "from harmbounds.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [main(argv + ['--law', {e1_law_path!r}]) for argv in {commands!r}]\n"
              "print(codes, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0] False\n"


def test_data_mode_commands_do_not_load_numpy(pen3_util_path):
    data = golden_csv_path("e1_n400_seed7_oracle")
    commands = [["identify", "--fuse", "--tol", "0.02"], ["bounds", "--smoothing", "0.1"],
                ["decide", "--utility", pen3_util_path, "--criterion", "cf-minimax-regret",
                 "--fuse", "--tol", "0.02"]]
    script = ("import contextlib, io, sys\n"
              "from harmbounds.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [main(argv + ['--data', {data!r}]) for argv in {commands!r}]\n"
              "print(codes, [m for m in ('numpy', 'harmbounds.simulate') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] []\n"
