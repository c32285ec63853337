import dataclasses
import random

import pytest

from harmbounds import decide, verify
from harmbounds.bounds import StrataBounds


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


#: test id -> (prop, module the sweep looks the function up in, function, planted fault)
PLANTED = {
    "s3": ("s3", verify, "regime_lower_bound", _shifted(1e-6)),
    "s4": ("s4", verify, "regime_lower_bound", _shifted(1e-6)),
    # non-improving laws then show a bound gain
    "s5": ("s5", verify, "fused_lower_bound_s1", _shifted(1e-6)),
    "sharpness": ("sharpness", verify, "fused_lower_bound_s1", _shifted(1e-6)),
    "sharpness-fused_bounds": ("sharpness", verify, "fused_bounds", _raised_p_hi),
    "sharpness-exp_bounds": ("sharpness", verify, "exp_bounds", _widened_stratum),
    "fusion": ("fusion", verify, "fused_potential_mean", _shifted(1e-9)),
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


@pytest.mark.parametrize("prop", verify.PROPS)
def test_sweeps_need_a_trial(prop):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify.PROPS[prop](trials=0, seed=0)


@pytest.mark.parametrize("fuse", [False, True], ids=["trial", "fused"])
def test_cached_basis_maps_are_integer(obs_e1, fuse):
    # The oracle's speed rests on this: the cached maps are exact at scale 1,
    # because every basis inverse has entries in {-1, 0, 1}.
    system = verify.strata_system(obs_e1, "l0", fuse=fuse)
    elimination = verify._eliminate(system.rows)
    assert elimination.scale == 1
    assert len(elimination.bases) == (16 if fuse else 32)
    rng = random.Random(0)
    for _ in range(5):
        # any integer point gives a right-hand side the system is consistent with
        q = [rng.randint(-9, 9) for _ in system.cells]
        b = [sum(a * x for a, x in zip(row, q)) for row in system.rows]
        for _, residual in elimination.residuals:
            assert sum(c * x for c, x in zip(residual, b)) == 0
        for basis, solve in elimination.bases:
            assert all(type(x) is int for row in solve for x in row)
            basic = [sum(m * x for m, x in zip(row, b)) for row in solve]
            for row, rhs in zip(system.rows, b):
                assert sum(row[j] * x for j, x in zip(basis, basic)) == elimination.scale * rhs
