import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from harmbounds import (IncompatibleLawsError, ObservedLaw, Regime, STRATA, att_atu, exp_bounds,
                        exp_potential_mean, fused_bounds, fused_lower_bound_s1,
                        fused_potential_mean,
                        identified_means, improvement_test, observed_from_full, random_law,
                        regime_lower_bound, regime_value, stratum_margins)
from harmbounds.bounds import family_bounds
from harmbounds.verify import (_common_scale, _stratum_ranges, polytope_vertices, sharp_bounds_lp,
                               strata_system, stratum_target)

from conftest import unconfounded, with_strata


@pytest.mark.parametrize("s", [0, 5])
def test_stratum_code_is_checked(law_e1, obs_e1, s):
    # 0 once read stratum 4 through index -1, and 5 raised a bare IndexError
    for call in (law_e1.marginal_stratum_prob, exp_bounds(obs_e1, "l0").interval, stratum_target):
        with pytest.raises(ValueError, match=rf"^stratum must be in \(1, 2, 3, 4\), got {s}$"):
            call(s)


class TestExpBounds:
    def test_fixture(self, obs_e1):
        b = exp_bounds(obs_e1, "l0")
        assert b.source == "experimental-only"
        assert b.interval(1) == pytest.approx((0.0, 0.3), abs=1e-12)
        assert (b.p_lo, b.p_hi) == pytest.approx((0.0, 0.3), abs=1e-12)

    def test_never_one_margin_pins_everything(self, law_e1):
        law = with_strata(law_e1, (0.0, 0.5, 0.0, 0.5))
        b = exp_bounds(observed_from_full(law), "l0")
        assert b.interval(1) == pytest.approx((0.0, 0.0), abs=1e-12)
        assert b.interval(3) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_certain_outcomes_identify_pure_harm(self, law_e1):
        law = with_strata(law_e1, (1.0, 0.0, 0.0, 0.0))
        b = exp_bounds(observed_from_full(law), "l0")
        assert b.interval(1) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert b.p_hi - b.p_lo <= 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_family_is_a_distribution_at_endpoints(self, seed):
        law = random_law(seed)
        b = exp_bounds(observed_from_full(law), "l0")
        for p in (b.p_lo, b.p_hi, 0.5 * (b.p_lo + b.p_hi)):
            fam = b.family(p)
            assert sum(fam) == pytest.approx(1.0, abs=1e-12)
            assert min(fam) >= -1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_truth_contained(self, seed):
        law = random_law(seed, n_levels=2)
        obs = observed_from_full(law)
        for l in law.levels:
            b = exp_bounds(obs, l)
            truth = law.strata_marginal(l)
            for s in STRATA:
                lo, hi = b.interval(s)
                assert lo - 1e-9 <= truth[s - 1] <= hi + 1e-9


class TestFusedLowerBound:
    def test_fixture(self, obs_e1, law_e1):
        lb = fused_lower_bound_s1(obs_e1, "l0")
        assert lb == pytest.approx(0.1, abs=1e-9)
        assert lb == pytest.approx(law_e1.strata_marginal("l0")[0], abs=1e-9)

    @pytest.mark.parametrize("seed", range(50))
    def test_unconfounded_collapses_to_experimental(self, seed):
        law = unconfounded(random_law(seed))
        obs = observed_from_full(law)
        _, _, tau0 = stratum_margins(law, "l0")
        assert fused_lower_bound_s1(obs, "l0") == pytest.approx(max(0.0, tau0), abs=1e-12)

    def test_pure_harm_hits_one(self, law_e1):
        law = with_strata(law_e1, (1.0, 0.0, 0.0, 0.0))
        assert fused_lower_bound_s1(observed_from_full(law), "l0") == pytest.approx(1.0)


def _oracle_bounds(obs, l, tol):
    """What ``fused_bounds`` returns, with the parameter range from the LP oracle."""
    p_y1 = exp_potential_mean(obs, 1, l)
    p_y0 = exp_potential_mean(obs, 0, l)
    lo, hi = sharp_bounds_lp(strata_system(obs, l, fuse=True), stratum_target(1), tol=tol)
    return family_bounds(l, p_y1, p_y0, lo, hi, source="fused")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IncompatibleLawsError as exc:
        return str(exc)


@st.composite
def fused_cases(draw):
    """An observed law, whether it is the exact push-forward of a full law, and a ``tol``.

    Interior laws come from ``random_law``.  Zero-cell laws put two exact
    zeros in every stratum block, with dyadic weights and ``P(A*=1|l)`` so
    that the push-forward is exact.  Perturbed laws add noise to each
    observational block of an interior law, so many are incompatible.
    """
    n_levels = draw(st.integers(1, 3))
    law = random_law(draw(st.integers(0, 2**32 - 1)), n_levels=n_levels)
    kind = draw(st.sampled_from(["interior", "zero-cell", "perturbed"]))
    tol = draw(st.sampled_from([0.0, 1e-9, 0.02, 0.2]))
    if kind == "zero-cell":
        blocks = {}
        for key in law.p_strata:
            first, second = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
            k = draw(st.integers(1, 63))
            block = [0.0] * 4
            block[first], block[second] = k / 64, (64 - k) / 64
            blocks[key] = tuple(block)
        law = dataclasses.replace(
            law, p_strata=blocks,
            p_astar={l: draw(st.integers(13, 51)) / 64 for l in law.levels})
    obs = observed_from_full(law)
    if kind != "perturbed":
        return obs, True, tol
    p_ya = dict(obs.p_ya)
    for l in obs.levels:
        block = {cell: max(0.0, p + draw(st.floats(-0.4, 0.4)))
                 for cell, p in obs.p_ya[(l, 0)].items()}
        total = sum(block.values())
        assume(total > 0.0)
        p_ya[(l, 0)] = {cell: p / total for cell, p in block.items()}
    return dataclasses.replace(obs, p_ya=p_ya), False, tol


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-9])
@pytest.mark.parametrize("call", [
    lambda obs, tol: identified_means(obs, fuse=True, tol=tol),
    lambda obs, tol: fused_bounds(obs, "l0", tol),
    lambda obs, tol: sharp_bounds_lp(strata_system(obs, "l0", fuse=True), stratum_target(1), tol),
    lambda obs, tol: fused_potential_mean(obs, 1, 1, "l0", tol),
    lambda obs, tol: fused_potential_mean(obs, 0, 1, "l0", tol),
    lambda obs, tol: att_atu(obs, "l0", tol),
    lambda obs, tol: improvement_test(obs, "l0", tol),
], ids=["identified_means", "fused_bounds", "sharp_bounds_lp", "fused_potential_mean_direct",
        "fused_potential_mean_solved", "att_atu", "improvement_test"])
def test_bad_tol_is_refused(obs_e1, call, tol):
    # the rule the CLI applies to --tol, so a bad slack is never read as a fault of the law
    with pytest.raises(ValueError, match="^tol must be finite and non-negative$"):
        call(obs_e1, tol)


class TestSharpBoundsLP:
    def test_fused_system_pins_fixture(self, obs_e1):
        system = strata_system(obs_e1, "l0", fuse=True)
        lo, hi = sharp_bounds_lp(system, stratum_target(1))
        assert lo == pytest.approx(0.1, abs=1e-9)
        assert hi == pytest.approx(0.1, abs=1e-9)

    def test_experimental_system_matches_closed_form(self, obs_e1):
        system = strata_system(obs_e1, "l0", fuse=False)
        assert sharp_bounds_lp(system, stratum_target(1)) == pytest.approx((0.0, 0.3), abs=1e-9)
        assert sharp_bounds_lp(system, stratum_target(3)) == pytest.approx((0.0, 0.3), abs=1e-9)

    def test_fraction_inputs_scale_at_their_least_common_denominator(self):
        # 3, the largest denominator, is a common one only for floats, whose are powers of two
        trial = {(0, 0): F(1, 6), (0, 1): F(1, 3), (1, 0): F(1, 3), (1, 1): F(1, 6)}
        obs = ObservedLaw(levels=("l0",), p_level={"l0": F(1)}, p_r1={"l0": F(1, 2)},
                          p_ya={("l0", 1): trial, ("l0", 0): dict.fromkeys(trial, F(1, 4))})
        system = strata_system(obs, "l0", fuse=True)
        assert fused_bounds(obs, "l0", tol=0).p_hi == 1 / 6
        assert sharp_bounds_lp(system, stratum_target(1), tol=0)[1] == 1 / 6
        assert _common_scale([F(1, 3), F(1, 2)]) == (6, [2, 3])

    def test_shared_vertex_enumeration(self, obs_e1):
        # the four stratum ranges read off one shared vertex list equal one LP per stratum
        system = strata_system(obs_e1, "l0", fuse=True)
        shared = _stratum_ranges(polytope_vertices(system))
        assert shared == [sharp_bounds_lp(system, stratum_target(s)) for s in STRATA]

    def test_general_linear_functional(self, obs_e1):
        # harmed-minus-saved difference is identified by the trial margins alone
        system = strata_system(obs_e1, "l0", fuse=False)
        target = {(1, 0): 1.0, (1, 1): 1.0, (2, 0): -1.0, (2, 1): -1.0}
        lo, hi = sharp_bounds_lp(system, target)
        assert lo == pytest.approx(-0.2, abs=1e-9)
        assert hi == pytest.approx(-0.2, abs=1e-9)

    def test_unknown_target_cell(self, obs_e1):
        system = strata_system(obs_e1, "l0", fuse=False)
        with pytest.raises(ValueError, match="unknown cells"):
            sharp_bounds_lp(system, {(9, 0): 1.0})

    def test_infeasible_system(self, obs_e1):
        # observational block demands far more deaths under treatment than
        # the trial margin permits
        block = {(1, 1): 0.9, (0, 1): 0.0, (1, 0): 0.05, (0, 0): 0.05}
        obs = dataclasses.replace(obs_e1, p_ya={**obs_e1.p_ya, ("l0", 0): block})
        with pytest.raises(IncompatibleLawsError):
            sharp_bounds_lp(strata_system(obs, "l0", fuse=True), stratum_target(1))

    def test_dependent_row_is_checked(self, obs_e1):
        # normalization is implied by the fused rows: a consistent copy changes
        # nothing, an inconsistent one is reported with its residual
        system = strata_system(obs_e1, "l0", fuse=True)

        def with_normalization(total):
            return dataclasses.replace(system, rows=system.rows + ((1,) * 8,),
                                       rhs=system.rhs + (total,),
                                       row_labels=system.row_labels + ("normalization",))

        target = stratum_target(1)
        assert sharp_bounds_lp(with_normalization(1.0), target) == sharp_bounds_lp(system, target)
        with pytest.raises(IncompatibleLawsError,
                           match="constraint 'normalization' is off by 0.01"):
            sharp_bounds_lp(with_normalization(1.01), target)

    def test_fused_bounds_wrapper(self, obs_e1):
        b = fused_bounds(obs_e1, "l0")
        assert b.source == "fused"
        assert b.p_hi - b.p_lo <= 1e-9
        assert b.interval(1) == pytest.approx((0.1, 0.1), abs=1e-9)
        assert b.interval(2) == pytest.approx((0.3, 0.3), abs=1e-9)
        assert b.interval(3) == pytest.approx((0.2, 0.2), abs=1e-9)
        assert b.interval(4) == pytest.approx((0.4, 0.4), abs=1e-9)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(case=fused_cases())
    def test_fused_bounds_equal_the_oracle(self, case):
        obs, exact, tol = case
        for l in obs.levels:
            got, want = _outcome(fused_bounds, obs, l, tol), _outcome(_oracle_bounds, obs, l, tol)
            assert got == want
            if not exact:
                continue
            closed = exp_bounds(obs, l)
            system = strata_system(obs, l, fuse=False)
            for s in STRATA:
                lo, hi = sharp_bounds_lp(system, stratum_target(s))
                assert (lo, hi) == pytest.approx(closed.interval(s), abs=1e-9)
            retained = fused_lower_bound_s1(obs, l)
            fused_lo, _ = sharp_bounds_lp(strata_system(obs, l, fuse=True), stratum_target(1))
            assert fused_lo == pytest.approx(retained, abs=1e-9)
            # the mixture terms built from the trial marginal never sharpen the bound
            p_y1 = exp_potential_mean(obs, 1, l)
            p_y0 = exp_potential_mean(obs, 0, l)
            trial_marginal = obs.p_y(l, 1)
            assert trial_marginal - p_y0 <= retained + 1e-9
            assert p_y1 - trial_marginal <= retained + 1e-9


class TestRegimes:
    def test_never_treat_fixture(self, law_e1):
        assert regime_lower_bound(law_e1, Regime.never()) == pytest.approx(-0.2, abs=1e-12)

    def test_factual_regime_fixture(self, law_e1):
        assert regime_value(law_e1, Regime.factual()) == pytest.approx(0.6, abs=1e-12)
        assert regime_lower_bound(law_e1, Regime.factual()) == pytest.approx(-0.3, abs=1e-12)

    def test_oracle_regime_attains_harm_probability(self, law_e1):
        oracle = Regime("treat-the-helpable", lambda l, astar, s: 1.0 if s in (2, 3) else 0.0)
        bound = regime_lower_bound(law_e1, oracle)
        assert bound == pytest.approx(0.1, abs=1e-12)
        assert bound == pytest.approx(law_e1.marginal_stratum_prob(1), abs=1e-12)

    def test_always_treat_gives_zero(self, law_e1):
        always = Regime("always-treat", lambda l, astar, s: 1.0)
        assert regime_lower_bound(law_e1, always) == pytest.approx(0.0, abs=1e-12)

    def test_regime_out_of_range_probability(self, law_e1):
        bad = Regime("bad", lambda l, astar, s: 1.5)
        with pytest.raises(ValueError, match="returned 1.5"):
            regime_value(law_e1, bad)

    @pytest.mark.parametrize("seed", range(100))
    def test_validity_with_mass_accounting_oracle(self, seed):
        # effect vs always-treat == P(S=1) minus the regime-matched mass
        law = random_law(seed, n_levels=1 + seed % 3)
        rng = np.random.default_rng(seed + 10_000)
        p_harm = law.marginal_stratum_prob(1)
        for _ in range(5):
            table = {(l, astar, s): float(rng.random())
                     for l in law.levels for astar in (0, 1) for s in STRATA}
            regime = Regime("random", lambda l, astar, s: table[(l, astar, s)])
            tau_g = regime_lower_bound(law, regime)
            matched = sum(
                law.p_level[l]
                * (law.p_astar[l] if astar == 1 else 1 - law.p_astar[l])
                * (law.p_strata[(l, astar)][0] * table[(l, astar, 1)]
                   + law.p_strata[(l, astar)][1] * (1 - table[(l, astar, 2)]))
                for l in law.levels for astar in (0, 1))
            assert tau_g <= p_harm + 1e-12
            assert tau_g == pytest.approx(p_harm - matched, abs=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_noise_only_product_identity(self, seed):
        law = random_law(seed, n_levels=1 + seed % 2)
        tau0 = law.marginal_potential_mean(1) - law.marginal_potential_mean(0)
        rng = np.random.default_rng(seed)
        q = float(rng.uniform(0, 1))
        tau_g = regime_lower_bound(law, Regime.noise(q))
        assert tau_g == pytest.approx(tau0 * (1 - q), abs=1e-12)
        assert max(0.0, tau0) >= max(0.0, tau_g) - 1e-12

    def test_unclipped_dominance_fails_for_negative_effect(self, law_e1):
        # fixture effect is -0.2; any interior noise level beats never-treat
        tau0 = -0.2
        tau_g = regime_lower_bound(law_e1, Regime.noise(0.5))
        assert tau_g == pytest.approx(tau0 * 0.5, abs=1e-12)
        assert tau_g > tau0


class TestImprovement:
    def test_fixture_improves(self, obs_e1):
        result = improvement_test(obs_e1, "l0")
        assert result.improves
        assert result.att == pytest.approx(1 / 3, abs=1e-12)
        assert result.atu == pytest.approx(-3 / 7, abs=1e-12)

    def test_unconfounded_never_improves(self):
        law = unconfounded(random_law(3))
        result = improvement_test(observed_from_full(law), "l0")
        assert not result.improves
        assert result.att == pytest.approx(result.atu, abs=1e-12)

    def test_intention_without_information(self, law_e1):
        # identical strata across intention arms but a very uneven split
        shared = (0.25, 0.15, 0.35, 0.25)
        law = dataclasses.replace(with_strata(law_e1, shared), p_astar={"l0": 0.9})
        assert not improvement_test(observed_from_full(law), "l0").improves

    @pytest.mark.parametrize("seed", range(200))
    def test_iff_against_bound_gain(self, seed):
        law = random_law(seed, n_levels=1 + seed % 2)
        obs = observed_from_full(law)
        for l in law.levels:
            result = improvement_test(obs, l)
            if min(abs(result.att), abs(result.atu)) <= 1e-9:
                continue
            _, _, tau0 = stratum_margins(law, l)
            gain = fused_lower_bound_s1(obs, l) - max(0.0, tau0)
            assert result.improves == (gain > 1e-12)
