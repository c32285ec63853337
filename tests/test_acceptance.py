"""Acceptance suite: the toolkit's exit criteria.

Each test covers one numbered criterion, asserts at the stated tolerance,
and prints a single PASS line (pytest -s shows them; a failure raises
before the line prints).
"""

import time

import numpy as np
import pytest

from harmbounds import (Regime, STRATA, UtilitySpec, att_atu, excess_outcome,
                        exp_bounds, exp_potential_mean, estimate_observed_law,
                        fused_bounds, fused_lower_bound_s1, fused_potential_mean,
                        gain_equality_diff, expected_cf_utility_diff,
                        harm_penalized_gamma, identified_means,
                        interventionist_policy, observed_from_full, policy_value,
                        regime_lower_bound, sample_dataset, stratum_margins,
                        survival_spec)
from harmbounds.verify import (sharp_bounds_lp, strata_system, stratum_target,
                               sweep_excess, sweep_s3, sweep_s4, sweep_s5, sweep_sharpness)

from conftest import make_law_e1

EXACT = 1e-9


def test_criterion_1_fixture_exactness():
    started = time.perf_counter()
    law = make_law_e1()
    obs = observed_from_full(law)

    assert exp_potential_mean(obs, 1, "l0") == pytest.approx(0.3, abs=EXACT)
    assert exp_potential_mean(obs, 0, "l0") == pytest.approx(0.5, abs=EXACT)
    assert stratum_margins(law, "l0")[2] == pytest.approx(-0.2, abs=EXACT)

    b = exp_bounds(obs, "l0")
    assert b.interval(1) == pytest.approx((0.0, 0.3), abs=EXACT)

    assert fused_lower_bound_s1(obs, "l0") == pytest.approx(0.1, abs=EXACT)
    lo, hi = sharp_bounds_lp(strata_system(obs, "l0", fuse=True), stratum_target(1))
    assert lo == pytest.approx(0.1, abs=EXACT)
    assert hi == pytest.approx(0.1, abs=EXACT)

    assert fused_potential_mean(obs, 1, 0, "l0") == pytest.approx(0.0, abs=EXACT)
    assert fused_potential_mean(obs, 0, 1, "l0") == pytest.approx(2 / 3, abs=EXACT)
    att, atu = att_atu(obs, "l0")
    assert att == pytest.approx(1 / 3, abs=EXACT)
    assert atu == pytest.approx(-3 / 7, abs=EXACT)

    surv = survival_spec()
    means = identified_means(obs, fuse=True)
    fine = interventionist_policy(means, surv, use_astar=True)
    coarse = interventionist_policy(means, surv, use_astar=False)
    assert policy_value(law, fine) == pytest.approx(0.2, abs=EXACT)
    assert policy_value(law, coarse) == pytest.approx(0.3, abs=EXACT)

    cf_spec = UtilitySpec(mu=surv.mu, gamma=harm_penalized_gamma(surv.mu, 3.0))
    assert excess_outcome(law, cf_spec, surv) == pytest.approx(0.2, abs=EXACT)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: fixture reproduced to 1e-9 in {elapsed:.3f}s")


def test_criterion_2_regime_bound_validity():
    started = time.perf_counter()
    result = sweep_s3(trials=1000, seed=20_001, regimes_per_law=10)
    elapsed = time.perf_counter() - started
    assert result.ok, result.failures
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: 1000 laws x 10 regimes, zero bound violations "
          f"in {elapsed:.2f}s")


def test_criterion_3_noise_regime_identity_and_clipping():
    result = sweep_s4(trials=1000, seed=20_002)
    assert result.ok, result.failures
    counterexamples = [n for n in result.notes if "unclipped dominance fails" in n]
    assert counterexamples, "no counterexample to the unclipped claim was generated"
    print(f"\nPASS criterion 3: product identity at 1e-12 and clipped dominance "
          f"on 1000 laws; {counterexamples[0]}")


def test_criterion_4_improvement_iff_sweep():
    result = sweep_s5(trials=1000, seed=20_003)
    assert result.ok, result.failures
    print("\nPASS criterion 4: improvement iff opposite-sign intention effects, "
          "zero counterexamples on 1000 confounded laws")


def test_criterion_5_lp_oracle_sharpness():
    result = sweep_sharpness(trials=500, seed=20_004)
    assert result.ok, result.failures
    print("\nPASS criterion 5: LP oracle matches closed forms to 1e-9 on 500 laws; "
          "mixture terms never sharpen")


def test_criterion_6_margin_fast_path():
    rng = np.random.default_rng(20_005)
    base_mu = survival_spec().mu
    for _ in range(1000):
        d1, d2, d3 = rng.uniform(-5, 5, size=3)
        d4 = d1 + d2 - d3
        gamma = {(s, 0): 0.0 for s in STRATA}
        gamma.update({(1, 1): d1, (2, 1): d2, (3, 1): d3, (4, 1): d4})
        spec = UtilitySpec(mu=base_mu, gamma=gamma)
        w = rng.uniform(0.01, 1.0, size=4)
        probs = tuple(w / w.sum())
        full = expected_cf_utility_diff(spec, probs)
        fast = gain_equality_diff(spec, probs[0] + probs[2], probs[1] + probs[2])
        assert abs(fast - full) <= 1e-12
    print("\nPASS criterion 6: margin fast path equals stratum sum at 1e-12 "
          "on 1000 balanced tables")


def test_criterion_7_excess_outcome_sweep():
    result = sweep_excess(trials=500, seed=20_006)
    assert result.ok, result.failures
    note = result.notes[0]
    strict = int(note.split("strictly positive excess on ")[1].split("/")[0])
    assert strict >= 0.05 * 500, note
    print(f"\nPASS criterion 7: excess outcome never negative on 500 laws; {note}")


def test_criterion_8_finite_sample_pipeline():
    started = time.perf_counter()
    law = make_law_e1()
    data = sample_dataset(law, 10**6, seed=20_007)
    est = estimate_observed_law(data)
    loose = 0.02  # model-compatibility slack for plug-in inputs

    assert exp_potential_mean(est, 1, "l0") == pytest.approx(0.3, abs=0.01)
    assert exp_potential_mean(est, 0, "l0") == pytest.approx(0.5, abs=0.01)
    means = identified_means(est, fuse=True, tol=loose)
    assert means.ate("l0") == pytest.approx(-0.2, abs=0.01)

    b = exp_bounds(est, "l0")
    assert b.interval(1)[0] == pytest.approx(0.0, abs=0.01)
    assert b.interval(1)[1] == pytest.approx(0.3, abs=0.01)

    assert fused_lower_bound_s1(est, "l0") == pytest.approx(0.1, abs=0.01)
    fb = fused_bounds(est, "l0", tol=loose)
    assert fb.interval(1)[0] == pytest.approx(0.1, abs=0.01)
    assert fb.interval(1)[1] == pytest.approx(0.1, abs=0.01)

    assert means.fused_mean("l0", 1, 0) == pytest.approx(0.0, abs=0.01)
    assert means.fused_mean("l0", 0, 1) == pytest.approx(2 / 3, abs=0.01)
    att, atu = att_atu(est, "l0", tol=loose)
    assert att == pytest.approx(1 / 3, abs=0.01)
    assert atu == pytest.approx(-3 / 7, abs=0.01)

    # policies learned from the estimate, scored against the true law
    surv = survival_spec()
    fine = interventionist_policy(means, surv, use_astar=True)
    coarse = interventionist_policy(means, surv, use_astar=False)
    assert policy_value(law, fine) == pytest.approx(0.2, abs=0.01)
    assert policy_value(law, coarse) == pytest.approx(0.3, abs=0.01)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nPASS criterion 8: n=1e6 pipeline reproduces the fixture within 0.01 "
          f"in {elapsed:.2f}s")


def test_criteria_summary_regime_fixtures():
    # cross-checks used inside criteria 2 and 3, pinned on the fixture law
    law = make_law_e1()
    assert regime_lower_bound(law, Regime.never()) == pytest.approx(-0.2, abs=EXACT)
    assert regime_lower_bound(law, Regime.factual()) == pytest.approx(-0.3, abs=EXACT)
    assert regime_lower_bound(law, Regime.noise(0.5)) == pytest.approx(-0.1, abs=EXACT)
