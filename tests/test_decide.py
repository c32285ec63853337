import dataclasses

import numpy as np
import pytest

from harmbounds import (NotPointIdentifiedError, PartialPolicyError, Policy,
                        UtilitySpec, counterfactual_policy, counterfactual_report,
                        exp_bounds, excess_outcome, gain_interval,
                        harm_penalized_gamma, identified_means, improvement_test,
                        induced_gamma, interventionist_policy, interventionist_report,
                        observed_from_full, policy_value, random_law, survival_spec,
                        true_bounds)

from conftest import with_strata
from test_utility import spec_from_delta


class TestInterventionistPolicy:
    def test_level_only_fixture(self, obs_e1, law_e1):
        means = identified_means(obs_e1)
        policy = interventionist_policy(means, survival_spec())
        assert policy.assignments == {("l0",): 1}
        assert policy_value(law_e1, policy) == pytest.approx(0.3, abs=1e-9)

    def test_intention_aware_fixture(self, obs_e1, law_e1):
        means = identified_means(obs_e1, fuse=True)
        policy = interventionist_policy(means, survival_spec(), use_astar=True)
        assert policy.assignments == {("l0", 1): 0, ("l0", 0): 1}
        assert policy_value(law_e1, policy) == pytest.approx(0.2, abs=1e-9)

    def test_tie_breaks_to_withhold(self, law_e1):
        tied = with_strata(law_e1, (0.1, 0.1, 0.3, 0.5))
        means = identified_means(observed_from_full(tied))
        report = interventionist_report(means, survival_spec())
        [cell] = report.cells
        assert cell.action == 0
        assert cell.tie

    def test_requires_fused_means_for_intention(self, obs_e1):
        means = identified_means(obs_e1)
        with pytest.raises(ValueError, match="fused means"):
            interventionist_policy(means, survival_spec(), use_astar=True)


class TestCounterfactualPolicy:
    def test_gain_interval_fixture(self, obs_e1):
        spec = spec_from_delta(-4.0, 1.0, 0.0, 1.0)
        b = exp_bounds(obs_e1, "l0")
        lo, hi = gain_interval(b, spec)
        assert lo == pytest.approx(-0.5, abs=1e-9)
        assert hi == pytest.approx(0.7, abs=1e-9)

    def test_minimax_regret_treats(self, obs_e1):
        spec = spec_from_delta(-4.0, 1.0, 0.0, 1.0)
        b = exp_bounds(obs_e1, "l0")
        report = counterfactual_report(b, spec, "cf-minimax-regret")
        [cell] = report.cells
        assert cell.action == 1
        assert cell.regret[1] == pytest.approx(0.5, abs=1e-9)
        assert cell.regret[0] == pytest.approx(0.7, abs=1e-9)

    def test_maximin_withholds(self, obs_e1):
        spec = spec_from_delta(-4.0, 1.0, 0.0, 1.0)
        policy = counterfactual_policy(exp_bounds(obs_e1, "l0"), spec, "cf-maximin")
        assert policy.assignments[("l0",)] == 0

    def test_point_refuses_wide_interval(self, obs_e1):
        spec = spec_from_delta(-4.0, 1.0, 0.0, 1.0)
        with pytest.raises(NotPointIdentifiedError, match="only bounded"):
            counterfactual_policy(exp_bounds(obs_e1, "l0"), spec, "cf-point")

    def test_gain_equal_table_identifies_everywhere(self, obs_e1):
        spec = spec_from_delta(-2.0, 2.0, 0.0, 0.0)
        b = exp_bounds(obs_e1, "l0")
        for criterion in ("cf-point", "cf-minimax-regret", "cf-maximin", "cf-bayes"):
            policy = counterfactual_policy(b, spec, criterion)
            assert policy.assignments[("l0",)] == 1, criterion
        report = counterfactual_report(b, spec, "cf-point")
        assert report.cells[0].values["gain"] == pytest.approx(0.4, abs=1e-9)

    def test_degenerate_zero_gain_ties_everywhere(self, law_e1):
        spec = spec_from_delta(0.0, 0.0, 0.0, 0.0)
        b = true_bounds(law_e1, "l0")
        for criterion in ("cf-point", "cf-minimax-regret", "cf-maximin", "cf-bayes"):
            report = counterfactual_report(b, spec, criterion)
            [cell] = report.cells
            assert cell.action == 0, criterion
            assert cell.tie, criterion

    def test_bayes_default_uniform(self, obs_e1):
        # gain is -4p + 0.7 over p in [0, 0.3]; uniform average 0.1 > 0
        spec = spec_from_delta(-4.0, 1.0, 0.0, 1.0)
        b = exp_bounds(obs_e1, "l0")
        report = counterfactual_report(b, spec, "cf-bayes")
        [cell] = report.cells
        assert cell.values["gain_mean"] == pytest.approx(0.1, abs=1e-9)
        assert cell.action == 1

    @pytest.mark.parametrize("width", [1e-6, 0.02, 0.04, 0.05])
    def test_bayes_averages_a_narrow_range_too(self, obs_e1, width):
        # gain is -4p + 0.7, so 0.02 at p = 0.17 and negative at the upper
        # end of every range here but the narrowest
        spec = spec_from_delta(-4.0, 1.0, 0.0, 1.0)
        b = dataclasses.replace(exp_bounds(obs_e1, "l0"),
                                p_lo=0.17 - width / 2, p_hi=0.17 + width / 2)
        [cell] = counterfactual_report(b, spec, "cf-bayes").cells
        assert cell.values["gain_mean"] == pytest.approx(0.02, abs=1e-12)
        assert cell.values["gain_lo"] == pytest.approx(0.02 - 2 * width, abs=1e-12)
        assert cell.action == 1 and not cell.tie

    def test_unknown_criterion(self, obs_e1):
        with pytest.raises(ValueError, match="unknown counterfactual criterion"):
            counterfactual_policy(exp_bounds(obs_e1, "l0"),
                                  spec_from_delta(1, 1, 1, 1), "cf-mystery")

    @pytest.mark.parametrize("seed", range(100))
    def test_minimax_reduces_to_sign_when_identified_in_sign(self, seed):
        rng = np.random.default_rng(seed)
        law = random_law(seed)
        obs = observed_from_full(law)
        spec = spec_from_delta(*rng.uniform(-3, 3, size=4))
        b = exp_bounds(obs, "l0")
        lo, hi = gain_interval(b, spec)
        policy = counterfactual_policy(b, spec, "cf-minimax-regret")
        if lo > 1e-12:
            assert policy.assignments[("l0",)] == 1
        elif hi < -1e-12:
            assert policy.assignments[("l0",)] == 0

    @pytest.mark.parametrize("seed", range(50))
    def test_positive_affine_rescaling_never_changes_actions(self, seed):
        rng = np.random.default_rng(seed)
        law = random_law(seed)
        obs = observed_from_full(law)
        deltas = rng.uniform(-3, 3, size=4)
        spec = spec_from_delta(*deltas)
        scale, shift = float(rng.uniform(0.1, 5)), float(rng.uniform(-4, 4))
        scaled = UtilitySpec(mu=spec.mu,
                             gamma={k: scale * v + shift for k, v in spec.gamma.items()})
        b = exp_bounds(obs, "l0")
        for criterion in ("cf-minimax-regret", "cf-maximin", "cf-bayes"):
            base = counterfactual_policy(b, spec, criterion)
            rescaled = counterfactual_policy(b, scaled, criterion)
            assert base.assignments == rescaled.assignments, criterion


class TestPolicyValue:
    def test_constant_policies(self, law_e1):
        always = Policy({("l0",): 1}, uses_astar=False)
        never = Policy({("l0",): 0}, uses_astar=False)
        assert policy_value(law_e1, always) == pytest.approx(0.3, abs=1e-12)
        assert policy_value(law_e1, never) == pytest.approx(0.5, abs=1e-12)

    def test_partial_policy(self, law_e1):
        partial = Policy({}, uses_astar=False)
        with pytest.raises(PartialPolicyError, match="no action"):
            policy_value(law_e1, partial)

    def test_intention_keyed_policy(self, law_e1):
        policy = Policy({("l0", 1): 0, ("l0", 0): 1}, uses_astar=True)
        assert policy_value(law_e1, policy) == pytest.approx(0.2, abs=1e-12)


class TestExcessOutcome:
    def test_penalty_three_fixture(self, law_e1):
        surv = survival_spec()
        cf = UtilitySpec(mu=surv.mu, gamma=harm_penalized_gamma(surv.mu, 3.0))
        assert excess_outcome(law_e1, cf, surv) == pytest.approx(0.2, abs=1e-9)

    def test_symmetric_table_costs_nothing(self, law_e1):
        surv = survival_spec()
        cf = UtilitySpec(mu=surv.mu, gamma=induced_gamma(surv.mu))
        assert excess_outcome(law_e1, cf, surv) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_never_negative_for_survival_preferences(self, seed):
        rng = np.random.default_rng(seed)
        law = random_law(seed, n_levels=1 + seed % 2)
        surv = survival_spec()
        cf = UtilitySpec(mu=surv.mu,
                         gamma=harm_penalized_gamma(surv.mu, float(rng.uniform(0, 6))))
        assert excess_outcome(law, cf, surv) >= -1e-12


class TestDominance:
    def test_intention_feature_never_hurts_and_helps_iff_bound_improves(self):
        surv = survival_spec()
        for seed in range(500):
            law = random_law(seed, n_levels=1)
            obs = observed_from_full(law)
            means = identified_means(obs, fuse=True)
            coarse = interventionist_policy(means, surv, use_astar=False)
            fine = interventionist_policy(means, surv, use_astar=True)
            v_coarse = policy_value(law, coarse)
            v_fine = policy_value(law, fine)
            assert v_fine <= v_coarse + 1e-12
            result = improvement_test(obs, "l0")
            if min(abs(result.att), abs(result.atu)) <= 1e-9:
                continue
            assert result.improves == (v_fine < v_coarse - 1e-12), seed
