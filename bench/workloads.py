"""The four workloads: their inputs, drawn from the workload seed, and their operations.

An operation is one or more ``harmbounds`` commands plus the check of what
they printed or wrote.  A workload is run in rounds; every round holds the
same mix of operations, so a run that ends on a round boundary has done
the same mix whatever its length.
"""

from __future__ import annotations

import collections
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from model import SURVIVAL_MU, make_law, make_utilities, utility_text

N_ROWS = 1_000_000
CRITERIA_FUSED = ("cf-minimax-regret", "cf-maximin", "cf-bayes")
PROPS = ("s3", "s4", "s5", "sharpness", "fusion", "excess")


@dataclass
class Op:
    """``calls`` run back to back; ``check`` gets their stdout texts and returns problems."""

    calls: list[list[str]]
    check: Callable[[list[str]], list[str]]
    weight: int = 1  # operations this counts for


@dataclass
class Workload:
    name: str
    rounds: Callable[[int], list[Op]]
    facts: dict = field(default_factory=dict)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def law_analyses(rng: np.random.Generator, workdir: str) -> Workload:
    """24 laws a round: 8 each of 1, 2 and 3 levels, a quarter of them with zero stratum cells."""
    ops = []
    for i in range(24):
        law = make_law(rng, 1 + i % 3, zero_cells=i % 4 == 3)
        gain_equal, penalised = make_utilities(rng)
        f = _write(os.path.join(workdir, f"law{i}.law"), law.text())
        g = _write(os.path.join(workdir, f"gain{i}.util"), utility_text(SURVIVAL_MU, gain_equal))
        p = _write(os.path.join(workdir, f"pen{i}.util"), utility_text(SURVIVAL_MU, penalised))
        calls = [["identify", "--law", f, "--fuse"],
                 ["bounds", "--law", f, "--fuse"],
                 ["decide", "--law", f, "--utility", g, "--criterion", "cf-point"],
                 ["decide", "--law", f, "--utility", p, "--criterion", "interventionist",
                  "--use-astar"]]
        calls += [["decide", "--law", f, "--utility", p, "--criterion", c, "--fuse"]
                  for c in CRITERIA_FUSED]
        calls.append(["compare", "--law", f, "--utility", p])

        def check(out, law=law, gain_equal=gain_equal, penalised=penalised):
            problems = checks.check_identify(law, out[0]) + checks.check_bounds(law, out[1])
            problems += checks.check_decide_law(law, gain_equal, "cf-point", False, out[2])
            problems += checks.check_interventionist(law, SURVIVAL_MU, out[3])
            for c, text in zip(CRITERIA_FUSED, out[4:7]):
                problems += checks.check_decide_law(law, penalised, c, True, text)
            return problems + checks.check_compare(law, penalised, out[7])

        ops.append(Op([call + ["--machine"] for call in calls], check))
    return Workload("law-analyses", lambda j: ops, {"laws": 24})


def data_write(rng: np.random.Generator, workdir: str) -> Workload:
    """The same ``simulate`` of a 3-level law every round; the written file is checked whole."""
    law = make_law(rng, 3)
    seed = int(rng.integers(0, 2**31))
    f = _write(os.path.join(workdir, "write.law"), law.text())
    out = os.path.join(workdir, "written.csv")

    def check(texts):
        problems = [f"simulate --out printed {len(texts[0])} characters"] if texts[0] else []
        with open(out, "r", encoding="utf-8") as fh:
            head = [fh.readline().rstrip("\n"), fh.readline().rstrip("\n")]
            counts = collections.Counter(line.rstrip("\n") for line in fh)
        return problems + checks.check_csv(law, N_ROWS, seed, head, counts)

    op = Op([["simulate", "--law", f, "--n", str(N_ROWS), "--seed", str(seed), "--out", out]],
            check)
    return Workload("data-write", lambda j: [op], {"simulate_seed": seed})


def sample_counts(law, n: int, rng: np.random.Generator) -> tuple[dict, np.ndarray]:
    """Cell counts drawn from the law's observed cells, and the rows in random order."""
    probs = law.cell_probs()
    keys = sorted(probs)
    p = np.array([probs[k] for k in keys])
    drawn = rng.multinomial(n, p / p.sum())
    codes = rng.permutation(np.repeat(np.arange(len(keys)), drawn))
    return dict(zip(keys, (int(c) for c in drawn))), codes


def write_dataset(path: str, keys: list, codes: np.ndarray) -> None:
    lines = np.array([f"{r},{l},{a},{y}\n" for (l, r, y, a) in keys], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("R,L,A,Y\n")
        fh.write("".join(lines[codes].tolist()))


def data_read(rng: np.random.Generator, workdir: str) -> Workload:
    """Three analyses of one 10^6-row CSV that the benchmark wrote with known counts."""
    law = make_law(rng, 3, floor=0.25)
    _gain_equal, penalised = make_utilities(rng)
    counts, codes = sample_counts(law, N_ROWS, rng)
    path = os.path.join(workdir, "read.csv")
    write_dataset(path, sorted(counts), codes)
    del codes
    u = _write(os.path.join(workdir, "read.util"), utility_text(SURVIVAL_MU, penalised))
    tol = 0.02
    common = ["--data", path, "--fuse", "--tol", str(tol), "--machine"]
    labels = [lv.label for lv in law.levels]
    ops = [Op([["identify"] + common],
              lambda out: checks.check_identify_data(counts, labels, out[0])),
           Op([["bounds"] + common],
              lambda out: checks.check_bounds_data(law, counts, tol, out[0])),
           Op([["decide", "--utility", u, "--criterion", "cf-minimax-regret"] + common],
              lambda out: checks.check_decide_data(law, counts, tol, penalised,
                                                   "cf-minimax-regret", out[0]))]
    return Workload("data-read", lambda j: ops, {"bytes": os.path.getsize(path)})


def verify_sweep(rng: np.random.Generator, workdir: str, trials: int = 30) -> Workload:
    """One ``verify`` call of ``trials`` trials a round, each round on a fresh sweep seed."""
    base = int(rng.integers(0, 2**31))

    def rounds(j):
        argv = ["verify", "--props", ",".join(PROPS), "--trials", str(trials),
                "--seed", str(base + j), "--machine"]
        return [Op([argv], lambda out: checks.check_verify(list(PROPS), trials, out[0]),
                   weight=trials)]

    return Workload("verify-sweep", rounds, {"sweep_seed_base": base})


WORKLOADS = {"law-analyses": law_analyses, "data-write": data_write,
             "data-read": data_read, "verify-sweep": verify_sweep}
