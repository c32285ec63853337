import contextlib
import dataclasses
import gc
import hashlib
import io
import os
import random
import sys
import tracemalloc

import numpy as np
import pytest

from harmbounds import cli, decide, verify
from harmbounds.bounds import StrataBounds
from harmbounds.errors import IncompatibleLawsError
from harmbounds.identify import DEFAULT_TOL
from harmbounds.laws import STRATA, FullLaw, observed_from_full, read_law_file
from harmbounds.simulate import estimate_observed_law, random_law, sample_dataset

from conftest import DATA_DIR


def _shifted(by):
    return lambda fn: lambda *args, **kwargs: fn(*args, **kwargs) + by


def _raised_p_hi(fn):
    def planted(*args, **kwargs):
        b = fn(*args, **kwargs)
        return dataclasses.replace(b, p_hi=b.p_hi + 1e-6)
    return planted


class _WidenedStratum2(StrataBounds):
    def interval(self, s):
        lo, hi = super().interval(s)
        return (lo, hi + 1e-6) if s == 2 else (lo, hi)


def _widened_stratum(fn):
    return lambda *args, **kwargs: _WidenedStratum2(**dataclasses.asdict(fn(*args, **kwargs)))


def _shifted_harm(fn):
    """Plant ``FullLaw.strata_marginal`` with ``P(S=1 | l)`` shifted by 1e-6."""
    def planted(*args):
        probs = fn(*args)
        return (probs[0] + 1e-6, *probs[1:])
    return planted


def _column_read_twice(fn):
    """Plant ``_stratum_ranges`` so stratum 1's mass reads ``q(1, 0)`` twice."""
    return lambda vertices: fn(([p[:1] * 2 + p[2:] for p in vertices[0]], vertices[1]))


def _row_negated(fn):
    """Plant ``_eliminate`` so the third distinct row of each cached map is negated.

    Negating the first or the second instead empties the first law's polytope, and the
    oracle's refusal then ends the sweep with an error rather than a failure.
    """
    def planted(rows):
        elimination = fn(rows)
        rows = elimination.rows
        return dataclasses.replace(elimination,
                                   rows=(*rows[:2], tuple(-v for v in rows[2]), *rows[3:]))
    return planted


#: test id -> (prop, module or class the sweep looks the function up in, name, planted fault)
PLANTED = {
    "s3": ("s3", verify, "regime_lower_bound", _shifted(1e-6)),
    "s4": ("s4", verify, "regime_lower_bound", _shifted(1e-6)),
    # non-improving laws then show a bound gain
    "s5": ("s5", verify, "fused_lower_bound_s1", _shifted(1e-6)),
    "sharpness": ("sharpness", verify, "fused_lower_bound_s1", _shifted(1e-6)),
    "sharpness-fused_bounds": ("sharpness", verify, "fused_bounds", _raised_p_hi),
    "sharpness-exp_bounds": ("sharpness", verify, "exp_bounds", _widened_stratum),
    "fusion": ("fusion", verify, "fused_potential_mean", _shifted(1e-9)),
    # a law's kept tables: P(Y^a=1 | l), P(S=. | l) and P(Y^a=1)
    "fusion-potential_mean": ("fusion", FullLaw, "potential_mean", _shifted(1e-6)),
    "s4-strata_marginal": ("s4", FullLaw, "strata_marginal", _shifted_harm),
    "s3-marginal_potential_mean": ("s3", FullLaw, "marginal_potential_mean", _shifted(1e-6)),
    "sharpness-stratum_ranges": ("sharpness", verify, "_stratum_ranges", _column_read_twice),
    "sharpness-eliminate": ("sharpness", verify, "_eliminate", _row_negated),
    # sweep_excess imports excess_outcome when it runs
    "excess": ("excess", decide, "excess_outcome", lambda fn: lambda *args, **kwargs: -1e-6),
}


# Each sweep is the only check of its property over many random laws, so
# each must be seen to fail when the quantity it checks is wrong.
@pytest.mark.parametrize("case", PLANTED)
def test_each_sweep_fails_on_a_planted_fault(monkeypatch, case):
    prop, module, name, plant = PLANTED[case]
    sweep = verify.PROPS[prop]
    assert sweep(trials=20, seed=0).ok
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    result = sweep(trials=20, seed=0)
    assert not result.ok
    assert result.failures


def test_s3_draws_the_pinned_regimes(monkeypatch):
    # s3 passes for any regimes it draws and prints only pass counts, so this
    # pins each cell of the 200 regimes drawn in 20 trials at seed 0
    lines = []
    original = verify.regime_lower_bound

    def recording(law, regime):
        lines.append(" ".join(regime.treat_prob(l, astar, s).hex()
                              for l in law.levels for astar in (0, 1) for s in STRATA))
        return original(law, regime)

    monkeypatch.setattr(verify, "regime_lower_bound", recording)
    assert verify.PROPS["s3"](trials=20, seed=0).ok
    assert len(lines) == 200
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "56add8c4da9261d7152010173eeed3cdc2b56f7d547ce49d8f63a9f9a2d14d90")


def test_verify_calls_leave_no_allocations_behind():
    # a cache that outlived its law would grow with the calls, 3 laws a call
    def call(seed):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--trials", "3", "--seed", str(seed)]) == 0

    for seed in range(5):  # imports, the parser and the LP eliminations, made once
        call(seed)
    gc.collect()
    before = sys.getallocatedblocks()
    for seed in range(5, 205):
        call(seed)
    gc.collect()
    assert sys.getallocatedblocks() - before < 500


@pytest.mark.parametrize("props", [
    "s4,s4", "excess,fusion,sharpness,s5,s4,s3", "s3,s4,s5,sharpness,fusion,excess",
    "s5,s3", "sharpness,excess,sharpness", "fusion"])
def test_shared_trials_match_one_property_sweeps(props):
    names = props.split(",")
    for trials, seed in ((20, 0), (31, 7), (40, 12_345)):
        results = verify.run_sweeps(names, trials, seed)
        assert [r.name for r in results] == names
        for name, result in zip(names, results):
            assert result == verify.PROPS[name](trials, seed)


@pytest.mark.parametrize("props, pushed_forward", [
    ("s3,s4,s5,sharpness,fusion,excess", True), ("s3,s4,excess", False),
    ("s4,s5", True), ("excess,sharpness", True), ("fusion,s3,fusion", True)])
def test_each_trial_law_is_built_and_pushed_forward_once(monkeypatch, props, pushed_forward):
    calls = {"random_law": 0, "observed_from_full": 0}

    def counted(name):
        fn = getattr(verify, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counting

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    assert all(r.ok for r in verify.run_sweeps(props.split(","), trials=25, seed=3))
    assert calls == {"random_law": 25, "observed_from_full": 25 if pushed_forward else 0}


def test_law_seeds_are_drawn_in_blocks(monkeypatch):
    # drawn in blocks, the seeds continue the stream one draw of them gives
    whole = np.random.default_rng(5).integers(0, 2**63, size=10_000)
    rng = np.random.default_rng(5)
    blocks = [rng.integers(0, 2**63, size=min(4096, 10_000 - i)) for i in range(0, 10_000, 4096)]
    assert np.array_equal(np.concatenate(blocks), whole)
    props = ["s4", "sharpness", "s3"]
    expected = verify.run_sweeps(props, 20, 3)
    monkeypatch.setattr(verify, "_SEED_BLOCK", 7)
    assert verify.run_sweeps(props, 20, 3) == expected


def test_many_trials_start_without_a_large_allocation(monkeypatch):
    calls = 0

    def three_laws(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls > 3:
            raise RuntimeError("stop")
        return random_law(*args, **kwargs)

    monkeypatch.setattr(verify, "random_law", three_laws)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="stop"):
            verify.run_sweeps(["s4"], 10**6, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("prop", verify.PROPS)
def test_sweeps_need_a_trial(prop):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify.PROPS[prop](trials=0, seed=0)


_FUSED_ROWS = verify._FUSED_STRUCTURE[0]


# digest: sha256 of ``repr((scale, rows, residuals, bases))`` of the structure's elimination
@pytest.mark.parametrize("rows, n_bases, n_rows, digest", [
    (verify._TRIAL_STRUCTURE[0], 32, 8,
     "8166cc141ecda444499e51737f40c8f55a86b4b71675a9db4553e295ae530758"),
    (_FUSED_ROWS, 16, 16, "85449cca07b412e2a2ccda5484c2b2ac3905b7278fe2032cfe508d1c99f6a68a"),
    # normalization is implied by the fused rows, so it leaves a residual
    (_FUSED_ROWS + ((1,) * 8,), 16, 17,
     "3d2e9d1569bb54f4c890b6d3da584a9088ea95b81554c60e8c47a9a76f4ef4d7"),
], ids=["trial", "fused", "fused-normalization"])
def test_cached_basis_maps_are_integer(rows, n_bases, n_rows, digest):
    # The oracle's speed rests on this: the cached maps are exact at scale 1,
    # because every basis inverse has entries in {-1, 0, 1}, and the bases
    # share few distinct rows, each evaluated once per call.
    elimination = verify._eliminate(rows)
    assert hashlib.sha256(repr((elimination.scale, elimination.rows, elimination.residuals,
                                elimination.bases)).encode()).hexdigest() == digest
    assert elimination.scale == 1
    assert len(elimination.bases) == n_bases
    assert len(set(elimination.rows)) == len(elimination.rows) == n_rows
    assert all(type(x) is int for row in elimination.rows for x in row)
    zero_slot = len(elimination.rows)
    rank = len(rows) - len(elimination.residuals)
    for slots in elimination.bases:
        assert len(slots) == len(verify._Q_CELLS)
        assert all(type(k) is int and 0 <= k <= zero_slot for k in slots)
        assert sum(k != zero_slot for k in slots) == rank
    rng = random.Random(0)
    for _ in range(5):
        # any integer point gives a right-hand side the system is consistent with
        q = [rng.randint(-9, 9) for _ in verify._Q_CELLS]
        b = [sum(a * x for a, x in zip(row, q)) for row in rows]
        values = [sum(c * x for c, x in zip(row, b)) for row in elimination.rows] + [0]
        for _, k in elimination.residuals:
            assert values[k] == 0
        for slots, pick in zip(elimination.bases, elimination.picks):
            vertex = [values[k] for k in slots]
            assert pick(values) == tuple(vertex)
            for row, rhs in zip(rows, b):
                assert sum(a * x for a, x in zip(row, vertex)) == elimination.scale * rhs


def test_each_structure_is_eliminated_once():
    # the rational elimination runs once per structure, never per call
    verify._eliminate.cache_clear()
    assert verify.PROPS["sharpness"](trials=20, seed=0).ok
    assert verify._eliminate.cache_info().misses == 2


def _oracle_cases():
    """``(name, observed law, tol)`` for every input the oracle golden file pins.

    Interior laws at 1-3 levels, the ``e1.law`` fixture, dyadic laws whose
    stratum blocks hold one to three exact zeros, and plug-in laws estimated
    from 400 sampled rows, where ``tol`` 0.02 absorbs the sampling noise.
    """
    cases = [(f"random_law({seed},{1 + seed % 3})",
              observed_from_full(random_law(seed, n_levels=1 + seed % 3)), DEFAULT_TOL)
             for seed in range(200)]
    cases.append(("e1.law", observed_from_full(read_law_file(os.path.join(DATA_DIR, "e1.law"))),
                  DEFAULT_TOL))
    rng = random.Random(0)
    for seed in range(20):
        law = random_law(1000 + seed, n_levels=2)
        blocks = {}
        for key in law.p_strata:
            nonzero = rng.sample(range(4), rng.randint(1, 3))
            cuts = sorted(rng.sample(range(1, 64), len(nonzero) - 1))
            block = [0.0] * 4
            for s, lo, hi in zip(nonzero, [0, *cuts], [*cuts, 64]):
                block[s] = (hi - lo) / 64
            blocks[key] = tuple(block)
        law = dataclasses.replace(law, p_strata=blocks,
                                  p_astar={l: rng.randint(1, 63) / 64 for l in law.levels})
        cases.append((f"zero-cell({seed})", observed_from_full(law), DEFAULT_TOL))
    for seed in range(40):
        law = random_law(2000 + seed, n_levels=1 + seed % 2)
        obs = estimate_observed_law(sample_dataset(law, 400, seed))
        cases.append((f"plug-in({seed})", obs, 0.02))
    return cases


def _oracle_golden_lines():
    """One line per (law, level, system, target): ``lo``, ``hi`` and the vertex enumeration."""
    lines = []
    for name, obs, tol in _oracle_cases():
        for l in obs.levels:
            for fuse in (False, True):
                head = f"{name} {l} {'fused' if fuse else 'trial'}"
                system = verify.strata_system(obs, l, fuse=fuse)
                try:
                    vertices = verify.polytope_vertices(system, tol)
                except IncompatibleLawsError as exc:
                    lines.append(f"{head}: {exc}")
                    continue
                points, denominator = vertices
                digest = hashlib.sha256(repr(points).encode()).hexdigest()[:16]
                for s in STRATA:
                    lo, hi = verify.sharp_bounds_lp(system, verify.stratum_target(s), tol)
                    lines.append(f"{head} S={s}: {lo.hex()} {hi.hex()} "
                                 f"{denominator} {len(points)} {digest}")
    return lines


def test_one_pass_stratum_ranges_equal_the_oracle():
    # sharpness reads the four stratum ranges of either system off one vertex list in one pass
    cases = [(obs, tol) for _, obs, tol in _oracle_cases()]
    cases += [(observed_from_full(random_law(seed, n_levels=1 + seed % 3)), DEFAULT_TOL)
              for seed in range(200, 1000)]
    for obs, tol in cases:
        for l in obs.levels:
            for fuse in (False, True):
                system = verify.strata_system(obs, l, fuse=fuse)
                try:
                    vertices = verify.polytope_vertices(system, tol)
                except IncompatibleLawsError:
                    continue
                want = [verify.sharp_bounds_lp(system, verify.stratum_target(s), tol)
                        for s in STRATA]
                got = verify._stratum_ranges(vertices)
                assert [(lo.hex(), hi.hex()) for lo, hi in got] == [
                    (lo.hex(), hi.hex()) for lo, hi in want]


def test_lp_oracle_matches_golden():
    # Pins every oracle value, vertex count and vertex list bit for bit;
    # the sweeps only print pass counts, which a drift within
    # SHARPNESS_TOL would leave unchanged.
    with open(os.path.join(DATA_DIR, "lp_oracle_golden.txt")) as fh:
        assert _oracle_golden_lines() == fh.read().splitlines()
