"""Every CLI golden case, listed once: an argument list, a golden stdout file and an exit code.

``python tests/golden_cases.py [PYTHON ...]`` runs each case that needs no numpy through
``harmbounds.cli.main`` in one child of each interpreter given (by default this one), with
``src/`` first on its path.  It prints one line per mismatch, and exits 1 on any or if a
child imported numpy or ``harmbounds.simulate``.  It needs only the standard library.
"""

import contextlib
import io
import os
import subprocess
import sys
from typing import NamedTuple

TESTS = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(TESTS, "data")
SRC = os.path.join(os.path.dirname(TESTS), "src")
E1, FORMAT_LABEL, PEN3 = (os.path.join(DATA_DIR, name)
                          for name in ("e1.law", "format_label.law", "surv_pen3.util"))
CSV = {name: os.path.join(DATA_DIR, "simulate_golden", f"{name}.csv")
       for name in ("e1_n400_seed7", "e1_n400_seed7_oracle")}
FORMS = {"table": ((), ""), "machine": (("--machine",), "_machine")}  # flag, golden suffix
NUMPY = ("simulate", "verify")  # the commands that need numpy, whose cases the runner skips


class Case(NamedTuple):
    argv: tuple
    golden: str  # the file's path under DATA_DIR
    exit_code: int = 0

    def read(self) -> bytes:
        with open(os.path.join(DATA_DIR, self.golden), "rb") as fh:
            return fh.read()


def _case(argv, *source, golden, exit_code=0, form="table") -> Case:
    """``argv`` on ``source``, with surv_pen3.util where a utility is needed."""
    utility = ("--utility", PEN3) if argv[0] in ("decide", "compare") else ()
    flag, suffix = FORMS[form]
    return Case((*argv, *source, *utility, *flag), f"{golden}{suffix}.txt", exit_code)


# Law-mode commands: golden-file stem, arguments and exit code.
LAW_COMMANDS = [
    ("identify", ["identify"], 0), ("identify_fuse", ["identify", "--fuse"], 0),
    ("bounds", ["bounds"], 0), ("bounds_fuse", ["bounds", "--fuse"], 0),
    ("decide_interventionist", ["decide", "--criterion", "interventionist"], 0),
    ("decide_interventionist_use_astar",
     ["decide", "--criterion", "interventionist", "--use-astar"], 0),
    ("decide_cf_point", ["decide", "--criterion", "cf-point"], 3),
    ("decide_cf_point_fuse", ["decide", "--criterion", "cf-point", "--fuse"], 0),
    ("decide_cf_minimax_regret", ["decide", "--criterion", "cf-minimax-regret"], 0),
    ("decide_cf_minimax_regret_fuse", ["decide", "--criterion", "cf-minimax-regret", "--fuse"], 0),
    ("decide_cf_maximin", ["decide", "--criterion", "cf-maximin"], 0),
    ("decide_cf_maximin_fuse", ["decide", "--criterion", "cf-maximin", "--fuse"], 0),
    ("decide_cf_bayes", ["decide", "--criterion", "cf-bayes"], 0),
    ("decide_cf_bayes_fuse", ["decide", "--criterion", "cf-bayes", "--fuse"], 0),
    ("compare", ["compare"], 0),
]
# All of them on e1.law; four on format_label.law, e1.law with its level label x{0}y%s:ñ.
LAW = {f"{stem}-{form}": _case(argv, "--law", E1, golden=f"law_golden/{stem}", exit_code=code,
                               form=form)
       for form in FORMS for stem, argv, code in LAW_COMMANDS}
LABEL = {f"{stem}-{form}": _case(argv, "--law", FORMAT_LABEL, golden=f"label_golden/{stem}",
                                 form=form)
         for stem, argv, _ in LAW_COMMANDS if stem in ("identify_fuse", "bounds_fuse",
             "decide_cf_minimax_regret_fuse", "decide_interventionist_use_astar")
         for form in FORMS}
# Data-mode commands on the simulate golden CSVs.
DATA = {f"{stem}-{csv}-{s}-{form}": _case(argv, "--data", CSV[csv], "--smoothing", s, form=form,
                                          golden=f"data_golden/{csv}_{stem}_smoothing{s}")
        for stem, argv in (
            ("identify", ["identify"]), ("bounds_fuse", ["bounds", "--fuse", "--tol", "0.02"]),
            ("decide_cf_minimax_regret_fuse",
             ["decide", "--criterion", "cf-minimax-regret", "--fuse", "--tol", "0.02"]))
        for csv in CSV for s in ("0", "0.1") for form in FORMS}
VERIFY = {name: _case(["verify", "--trials", trials, "--seed", seed], form=form,
                      golden=f"verify_trials{trials}_seed{seed}")
          for name, trials, seed, form in (("table", "200", "0", "table"),
                                           ("machine", "200", "0", "machine"),
                                           ("1000", "1000", "1", "table"))}
SIMULATE = {name: Case(("simulate", "--law", E1, "--n", "400", "--seed", "7", *flag),
                       f"simulate_golden/{csv}.csv")
            for name, flag, csv in (("plain", (), "e1_n400_seed7"),
                                    ("oracle", ("--oracle",), "e1_n400_seed7_oracle"))}
CASES = [*LAW.values(), *LABEL.values(), *DATA.values(), *VERIFY.values(), *SIMULATE.values(),
         # two that only the runner reads
         _case(["identify", "--fuse", "--tol", "0.02"], "--data", CSV["e1_n400_seed7_oracle"],
               golden="data_golden/e1_n400_seed7_oracle_identify_fuse_smoothing0"),
         _case(["bounds", "--smoothing", "0.1"], "--data", CSV["e1_n400_seed7_oracle"],
               golden="data_golden/e1_n400_seed7_oracle_bounds_smoothing0.1")]


def check(sources) -> int:
    """Run here each numpy-free case that reads one of ``sources``; 1 on any mismatch."""
    from harmbounds.cli import main

    cases = [c for c in CASES if c.argv[0] not in NUMPY and any(s in c.argv for s in sources)]
    mismatches = 0
    for case in cases:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(case.argv))
        except Exception as exc:  # a crash is one more mismatch
            code = f"{type(exc).__name__}: {exc}"
        same = out.getvalue().encode("utf-8") == case.read()
        if (code, same) != (case.exit_code, True):
            mismatches += 1
            print(f"{case.golden}: exit {code} (want {case.exit_code}), "
                  f"stdout {'matches' if same else 'differs'}")
    loaded = [m for m in ("numpy", "harmbounds.simulate") if m in sys.modules]
    if loaded:
        print(f"imported {' and '.join(loaded)}")
    print(f"Python {sys.version.split()[0]}: {len(cases) - mismatches} of {len(cases)} cases match")
    return int(bool(mismatches or loaded))


def run(python: str, sources=("--law", "--data")) -> subprocess.CompletedProcess:
    """``check(sources)`` in a child of ``python`` with ``src/`` first on its path."""
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {TESTS!r}]; import golden_cases; "
            f"sys.exit(golden_cases.check({sources!r}))")
    return subprocess.run([python, "-c", code], capture_output=True, text=True)


def main(pythons: list) -> int:
    status = 0
    for python in pythons or [sys.executable]:
        proc = run(python)
        for line in (proc.stdout + proc.stderr).splitlines():
            print(f"{python}: {line}")
        status |= proc.returncode != 0
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
