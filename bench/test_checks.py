"""Self-test of the benchmark: every output check accepts real output and rejects corrupted output.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harmbounds.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from model import make_law  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert harmbounds.cli.main(argv) == 0
    return out.getvalue()


def bump(text: str, key: str, by: float = 1e-3, nth: int = 0) -> str:
    """Shift the nth printed ``key:value`` number by ``by``."""
    matches = list(re.finditer(rf"(?<![\w.]){re.escape(key)}:(-?\d+\.\d+)", text))
    m = matches[nth]
    new = f"{key}:{float(m.group(1)) + by:.6f}"
    return text[:m.start()] + new + text[m.end():]


def drop_line(text: str, nth: int = 0) -> str:
    lines = text.splitlines()
    del lines[nth]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def law_ops(tmp_path_factory):
    """One zero-cell law and one interior law, each through the eight law-mode commands."""
    wl = workloads.law_analyses(np.random.default_rng(7), str(tmp_path_factory.mktemp("law")))
    ops = wl.rounds(0)
    return [(op, [run(argv) for argv in op.calls]) for op in (ops[2], ops[3])]


def test_law_checks_accept_real_output(law_ops):
    for op, out in law_ops:
        assert op.check(out) == []


@pytest.mark.parametrize("index, corrupt", [
    (0, lambda t: bump(t, "value")),                 # identify: a mean
    (0, lambda t: bump(t, "value", nth=7)),          # identify: a fused mean
    (0, drop_line),                                  # identify: a missing record
    (1, lambda t: bump(t, "hi", nth=0)),             # bounds: a stratum interval
    (1, lambda t: bump(t, "hi", nth=4)),             # bounds: the upper end of the p range
    (1, lambda t: bump(t, "value")),                 # bounds: the four-term lower bound
    (1, lambda t: t.replace("source:fused", "source:true-law", 1)),
    (1, lambda t: t + t.splitlines()[0] + "\n"),     # bounds: a duplicated record
    (2, lambda t: bump(t, "gain", by=0.5)),          # cf-point: the gain
    (3, lambda t: re.sub(r"action:(\d)", lambda m: f"action:{1 - int(m.group(1))}", t, 1)),
    (4, lambda t: bump(t, "regret_a0")),             # minimax regret
    (4, lambda t: bump(t, "gain_lo")),
    (5, lambda t: re.sub(r"action:(\d)", lambda m: f"action:{1 - int(m.group(1))}", t, 1)),
    (6, lambda t: bump(t, "gain_mean")),             # cf-bayes
    (7, lambda t: bump(t, "excess", by=-1.0)),       # compare: a negative excess
    (7, lambda t: bump(t, "cf_value")),
])
def test_law_checks_reject_corrupted_output(law_ops, index, corrupt):
    for op, out in law_ops:
        bad = list(out)
        bad[index] = corrupt(out[index])
        assert op.check(bad), f"command {index} corruption passed"


def test_interventionist_check_rejects_a_flipped_decision():
    law = make_law(np.random.default_rng(3), 2)
    text = "".join(f"kind:decision\tlevel:{lv.label}\tastar:{astar}\taction:1\teu_a1:0\teu_a0:1"
                   "\ttie:0\n" for lv in law.levels for astar in (0, 1))
    assert checks.check_interventionist(law, workloads.SURVIVAL_MU, text)


def test_dataset_checks(tmp_path):
    law = make_law(np.random.default_rng(11), 3)
    law_path = tmp_path / "d.law"
    law_path.write_text(law.text())
    n, seed = 20_000, 5
    out = tmp_path / "d.csv"
    run(["simulate", "--law", str(law_path), "--n", str(n), "--seed", str(seed), "--out", str(out)])
    lines = out.read_text().splitlines()
    counts = {}
    for line in lines[2:]:
        counts[line] = counts.get(line, 0) + 1
    assert checks.check_csv(law, n, seed, lines[:2], counts) == []
    assert checks.check_csv(law, n, seed + 1, lines[:2], counts)
    first = next(iter(counts))
    assert checks.check_csv(law, n, seed, lines[:2], {**counts, first: counts[first] - 1})
    # Move a fifth of the largest cell's rows into another cell: the frequencies are off.
    a = max(counts, key=counts.get)
    b = min(counts, key=counts.get)
    moved = counts[a] // 5
    assert checks.check_csv(law, n, seed, lines[:2], {**counts, a: counts[a] - moved,
                                                       b: counts[b] + moved})


def test_data_read_checks(tmp_path):
    rng = np.random.default_rng(2)
    law = make_law(rng, 2, floor=0.25)
    counts, codes = workloads.sample_counts(law, 200_000, rng)
    path = str(tmp_path / "r.csv")
    workloads.write_dataset(path, sorted(counts), codes)
    labels = [lv.label for lv in law.levels]
    common = ["--data", path, "--fuse", "--tol", "0.05", "--machine"]
    ident = run(["identify"] + common)
    assert checks.check_identify_data(counts, labels, ident) == []
    assert checks.check_identify_data(counts, labels, bump(ident, "value", by=2e-6))
    bounds = run(["bounds"] + common)
    assert checks.check_bounds_data(law, counts, 0.05, bounds) == []
    assert checks.check_bounds_data(law, counts, 0.05, bump(bounds, "lo", by=0.3, nth=4))
    assert checks.check_bounds_data(law, counts, 0.05, bump(bounds, "value", by=1e-3))


def test_verify_check():
    text = run(["verify", "--props", "s3,fusion", "--trials", "3", "--seed", "1", "--machine"])
    assert checks.check_verify(["s3", "fusion"], 3, text) == []
    assert checks.check_verify(["s3", "fusion"], 3, text.replace("passes:3", "passes:2", 1))
    assert checks.check_verify(["s3", "fusion", "s4"], 3, text)


def test_tracer_self_times_add_up(law_ops):
    tracer = Tracer()
    tracer.install()
    try:
        for argv in law_ops[0][0].calls:
            run(argv)
    finally:
        tracer.uninstall()
    assert not hasattr(harmbounds.cli.main, "__wrapped__")
    layers = tracer.self_times()
    assert set(layers) == set(LAYERS)
    assert layers["bounds.fused"] > 0 and layers["cli.self"] > 0
    assert sum(layers.values()) == pytest.approx(tracer.root_seconds(), rel=1e-9)


def test_tracer_fails_loudly_on_a_missing_function(monkeypatch):
    monkeypatch.setitem(LAYERS, "bounds.gone", ("bounds", ("no_such_function",)))
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracer.install()
    tracer.uninstall()
