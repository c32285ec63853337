import dataclasses

import pytest

from harmbounds import (IncompatibleLawsError, PositivityError, att_atu,
                        exp_potential_mean, fused_potential_mean,
                        identified_means, observed_from_full, parse_law_text,
                        random_law)

from conftest import unconfounded


class TestExperimentalMeans:
    def test_fixture(self, obs_e1):
        assert exp_potential_mean(obs_e1, 1, "l0") == pytest.approx(0.3, abs=1e-12)
        assert exp_potential_mean(obs_e1, 0, "l0") == pytest.approx(0.5, abs=1e-12)

    def test_empty_arm_raises(self, law_e1):
        no_treat = dataclasses.replace(law_e1, p_treat={"l0": 0.0})
        obs = observed_from_full(no_treat)
        with pytest.raises(PositivityError, match="A=1"):
            exp_potential_mean(obs, 1, "l0")
        assert exp_potential_mean(obs, 0, "l0") == pytest.approx(0.5, abs=1e-12)

    def test_empty_trial_block_raises(self, law_e1):
        obs = observed_from_full(dataclasses.replace(law_e1, p_r1={"l0": 0.0}))
        with pytest.raises(PositivityError, match=r"empty block \(level 'l0', R=1\)"):
            exp_potential_mean(obs, 1, "l0")

    def test_ignores_observational_block(self, obs_e1):
        uniform = {(y, a): 0.25 for y in (0, 1) for a in (0, 1)}
        tweaked = dataclasses.replace(
            obs_e1, p_ya={**obs_e1.p_ya, ("l0", 0): uniform})
        for a in (0, 1):
            assert exp_potential_mean(tweaked, a, "l0") == exp_potential_mean(obs_e1, a, "l0")

    def test_bad_action(self, obs_e1):
        with pytest.raises(ValueError):
            exp_potential_mean(obs_e1, 2, "l0")


class TestFusedMeans:
    def test_fixture_disagreeing_arms(self, obs_e1):
        assert fused_potential_mean(obs_e1, 1, 0, "l0") == pytest.approx(0.0, abs=1e-12)
        assert fused_potential_mean(obs_e1, 0, 1, "l0") == pytest.approx(2 / 3, abs=1e-12)

    def test_fixture_agreeing_arm(self, obs_e1):
        assert fused_potential_mean(obs_e1, 1, 1, "l0") == pytest.approx(1.0, abs=1e-12)

    def test_empty_intention_group(self, law_e1):
        all_intend = dataclasses.replace(law_e1, p_astar={"l0": 1.0})
        obs = observed_from_full(all_intend)
        with pytest.raises(PositivityError, match="intention group"):
            fused_potential_mean(obs, 1, 0, "l0")

    @pytest.mark.parametrize("p_astar", [1e-12, 1e-300])
    def test_near_empty_intention_group_is_refused(self, p_astar):
        # E[Y^0 | A*=1] is 0.5 here; the solved-for ratio printed 0.499989
        # at P(A*=1) = 1e-12 and 0 at 1e-300 before the group was refused
        law = parse_law_text("L l0 1\nTRIAL l0 0.5 0.5\n"
                             f"ASTAR l0 {p_astar!r}\n"
                             "S l0 1 0 0.5 0 0.5\nS l0 0 0.25 0.25 0.25 0.25\n")
        obs = observed_from_full(law)
        message = r"within tol 1e-09: intention group level 'l0', A\*=1"
        with pytest.raises(PositivityError, match=message):
            fused_potential_mean(obs, 0, 1, "l0")
        with pytest.raises(PositivityError, match=r"A\*=1"):
            identified_means(obs, fuse=True)
        # the direct arm and the large group are unaffected
        assert fused_potential_mean(obs, 1, 1, "l0") == pytest.approx(0.0, abs=1e-12)
        assert fused_potential_mean(obs, 1, 0, "l0") == pytest.approx(0.5, abs=1e-12)

    def test_incompatible_blocks_raise(self, obs_e1):
        # trial arm mean below the observational joint mass it must dominate
        trial = {(1, 1): 0.1, (0, 1): 0.4, (1, 0): 0.25, (0, 0): 0.25}
        obs = dataclasses.replace(obs_e1, p_ya={**obs_e1.p_ya, ("l0", 1): trial})
        with pytest.raises(IncompatibleLawsError, match="outside \\[0, 1\\]"):
            fused_potential_mean(obs, 1, 0, "l0")

    def test_boundary_violation_within_tol_is_clamped(self, obs_e1):
        block = dict(obs_e1.p_ya[("l0", 0)])
        block[(1, 1)] += 2e-10  # ratio dips just below zero
        obs = dataclasses.replace(obs_e1, p_ya={**obs_e1.p_ya, ("l0", 0): block})
        assert fused_potential_mean(obs, 1, 0, "l0") == 0.0

    @pytest.mark.parametrize("excess", [0.5, 0.9, 1.1, 1.5, 1.9])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_refusal_starts_at_tol(self, obs_e1, side, excess):
        # E[Y^1 | A*=0] is 0 in e1 and 1 in the second law; observational mass
        # moved into or out of (Y=1, A=1) puts the solved-for ratio about
        # excess * tol outside [0, 1], which is clamped within tol and refused beyond it
        tol = 0.01
        if side == "below":
            obs, source, target = obs_e1, (0, 0), (1, 1)
            shift = excess * tol * obs.p_a(0, "l0", 0) / (1 + excess * tol)
        else:
            obs = observed_from_full(parse_law_text(
                "L l0 1\nTRIAL l0 0.5 0.5\nASTAR l0 0.3\n"
                "S l0 1 0.25 0.25 0.25 0.25\nS l0 0 0.5 0 0.5 0\n"))
            source, target = (1, 1), (0, 1)
            shift = excess * tol * obs.p_a(0, "l0", 0)
        block = dict(obs.p_ya[("l0", 0)])
        block[source] -= shift
        block[target] += shift
        obs = dataclasses.replace(obs, p_ya={**obs.p_ya, ("l0", 0): block})
        raw = (exp_potential_mean(obs, 1, "l0") - obs.p_joint(1, 1, "l0", 0)) / obs.p_a(0, "l0", 0)
        assert (raw < 0.0) == (side == "below")
        clamped = min(1.0, max(0.0, raw))
        assert abs(raw - clamped) == pytest.approx(excess * tol, rel=1e-9)
        if excess < 1:
            assert fused_potential_mean(obs, 1, 0, "l0", tol) == clamped
        else:
            with pytest.raises(IncompatibleLawsError, match="outside \\[0, 1\\]"):
                fused_potential_mean(obs, 1, 0, "l0", tol)

    def test_thousand_law_round_trip_and_mixture_sweep(self):
        for seed in range(1000):
            law = random_law(seed, n_levels=1 + seed % 2)
            obs = observed_from_full(law)
            for l in law.levels:
                p1 = obs.p_a(1, l, 0)
                for a in (0, 1):
                    mix = 0.0
                    for astar in (0, 1):
                        ident = fused_potential_mean(obs, a, astar, l)
                        direct = law.potential_mean_given_astar(a, astar, l)
                        assert abs(ident - direct) <= 1e-12
                        mix += ident * (p1 if astar == 1 else 1 - p1)
                    assert abs(mix - exp_potential_mean(obs, a, l)) <= 1e-12


class TestAttAtu:
    def test_fixture(self, obs_e1):
        att, atu = att_atu(obs_e1, "l0")
        assert att == pytest.approx(1 / 3, abs=1e-12)
        assert atu == pytest.approx(-3 / 7, abs=1e-12)

    def test_unconfounded_collapses_to_marginal_effect(self):
        law = unconfounded(random_law(11, n_levels=2))
        obs = observed_from_full(law)
        for l in law.levels:
            att, atu = att_atu(obs, l)
            ate = exp_potential_mean(obs, 1, l) - exp_potential_mean(obs, 0, l)
            assert att == pytest.approx(ate, abs=1e-12)
            assert atu == pytest.approx(ate, abs=1e-12)

    def test_degenerate_always_one_stratum(self, law_e1):
        law = dataclasses.replace(
            law_e1, p_strata={(l, a): (0.0, 0.0, 1.0, 0.0)
                              for l in law_e1.levels for a in (0, 1)})
        att, atu = att_atu(observed_from_full(law), "l0")
        assert att == pytest.approx(0.0, abs=1e-12)
        assert atu == pytest.approx(0.0, abs=1e-12)


class TestIdentifiedMeans:
    def test_experimental_only(self, obs_e1):
        means = identified_means(obs_e1)
        assert not means.has_fused
        assert means.ate("l0") == pytest.approx(-0.2, abs=1e-12)
        with pytest.raises(ValueError):
            means.fused_mean("l0", 1, 0)

    def test_fused(self, obs_e1):
        means = identified_means(obs_e1, fuse=True)
        assert means.has_fused
        assert means.fused_mean("l0", 0, 1) == pytest.approx(2 / 3, abs=1e-12)
        assert means.p_astar["l0"] == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_entries_in_unit_interval(self, seed):
        means = identified_means(observed_from_full(random_law(seed)), fuse=True)
        assert all(0.0 <= v <= 1.0 for v in means.exp.values())
        assert all(0.0 <= v <= 1.0 for v in means.fused.values())
