import pytest

from harmbounds import decide, verify


def _shifted(by):
    return lambda fn: lambda *args, **kwargs: fn(*args, **kwargs) + by


#: prop -> (module the sweep looks the function up in, function, planted fault)
PLANTED = {
    "s3": (verify, "regime_lower_bound", _shifted(1e-6)),
    "s4": (verify, "regime_lower_bound", _shifted(1e-6)),
    # non-improving laws then show a bound gain
    "s5": (verify, "fused_lower_bound_s1", _shifted(1e-6)),
    "sharpness": (verify, "fused_lower_bound_s1", _shifted(1e-6)),
    "fusion": (verify, "fused_potential_mean", _shifted(1e-9)),
    # sweep_excess imports excess_outcome when it runs
    "excess": (decide, "excess_outcome", lambda fn: lambda *args, **kwargs: -1e-6),
}


# Each sweep is the only check of its property over many random laws, so
# each must be seen to fail when the quantity it checks is wrong.
@pytest.mark.parametrize("prop", verify.PROPS)
def test_each_sweep_fails_on_a_planted_fault(monkeypatch, prop):
    module, name, plant = PLANTED[prop]
    sweep = verify.PROPS[prop]
    assert sweep(trials=20, seed=0).ok
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    result = sweep(trials=20, seed=0)
    assert not result.ok
    assert result.failures
