import numpy as np
import pytest

from harmbounds import (FileFormatError, GainEqualityError, GammaMissingError,
                        UtilitySpec, expected_cf_utility_diff, expected_int_utility,
                        gain_equality_diff, gain_equality_holds, harm_penalized_gamma,
                        induced_gamma, parse_utility_text, survival_spec)

from golden_cases import PEN3


def spec_from_delta(d1, d2, d3, d4, mu=None) -> UtilitySpec:
    """Gamma table with gamma(s,0)=0, so delta is given directly."""
    gamma = {(s, 0): 0.0 for s in (1, 2, 3, 4)}
    gamma.update({(1, 1): d1, (2, 1): d2, (3, 1): d3, (4, 1): d4})
    return UtilitySpec(mu=(mu or survival_spec().mu), gamma=gamma)


class TestSpecValidation:
    def test_mu_table_shape(self):
        with pytest.raises(ValueError, match="four"):
            UtilitySpec(mu={(0, 0): 1.0})

    def test_gamma_table_shape(self):
        with pytest.raises(ValueError, match="eight"):
            UtilitySpec(mu=survival_spec().mu, gamma={(1, 0): 0.0})

    def test_outcome_only_spec_rejects_stratum_ops(self):
        spec = survival_spec()
        with pytest.raises(GammaMissingError):
            spec.delta
        with pytest.raises(TypeError):  # the boundary is a type error too
            expected_cf_utility_diff(spec, (0.25, 0.25, 0.25, 0.25))

    def test_delta_is_derived(self):
        spec = spec_from_delta(-4.0, 1.0, 0.0, 1.0)
        assert spec.delta == (-4.0, 1.0, 0.0, 1.0)

    def test_induced_gamma_matches_outcome_utility(self):
        surv = survival_spec()
        g = induced_gamma(surv.mu)
        # treating the saved earns 1, treating the harmed loses 1
        spec = UtilitySpec(mu=surv.mu, gamma=g)
        assert spec.delta == (-1.0, 1.0, 0.0, 0.0)

    def test_harm_penalty(self):
        surv = survival_spec()
        spec = UtilitySpec(mu=surv.mu, gamma=harm_penalized_gamma(surv.mu, 3.0))
        assert spec.delta == (-4.0, 1.0, 0.0, 0.0)


class TestGainEquality:
    def test_balanced_table(self):
        assert gain_equality_holds(spec_from_delta(-2.0, 2.0, 0.0, 0.0))

    def test_unbalanced_table(self):
        assert not gain_equality_holds(spec_from_delta(-4.0, 1.0, 0.0, 1.0))

    @pytest.mark.parametrize("c", [-3.0, 0.0, 2.5])
    def test_constant_gain(self, c):
        assert gain_equality_holds(spec_from_delta(c, c, c, c))


class TestExpectedDiff:
    def test_fixture_value(self):
        spec = spec_from_delta(-2.0, 2.0, 0.0, 0.0)
        diff = expected_cf_utility_diff(spec, (0.1, 0.3, 0.2, 0.4))
        assert diff == pytest.approx(0.4, abs=1e-12)

    def test_indifferent_table(self):
        spec = spec_from_delta(0.0, 0.0, 0.0, 0.0)
        assert expected_cf_utility_diff(spec, (0.7, 0.1, 0.1, 0.1)) == 0.0

    def test_constant_gain_table(self):
        spec = spec_from_delta(1.0, 1.0, 1.0, 1.0)
        assert expected_cf_utility_diff(spec, (0.2, 0.3, 0.1, 0.4)) == pytest.approx(1.0)

    def test_rejects_non_distribution(self):
        spec = spec_from_delta(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="not a distribution"):
            expected_cf_utility_diff(spec, (0.5, 0.5, 0.5, 0.5))


class TestMarginFastPath:
    def test_fixture_value(self):
        spec = spec_from_delta(-2.0, 2.0, 0.0, 0.0)
        assert gain_equality_diff(spec, 0.3, 0.5) == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("c", [-1.0, 0.5])
    def test_constant_gain_ignores_margins(self, c):
        spec = spec_from_delta(c, c, c, c)
        assert gain_equality_diff(spec, 0.9, 0.1) == pytest.approx(c, abs=1e-12)

    def test_refuses_unbalanced_table(self):
        spec = spec_from_delta(-4.0, 1.0, 0.0, 1.0)
        with pytest.raises(GainEqualityError, match="-3"):
            gain_equality_diff(spec, 0.3, 0.5)

    def test_margin_range_checked(self):
        spec = spec_from_delta(-2.0, 2.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gain_equality_diff(spec, 1.2, 0.5)

    @pytest.mark.parametrize("p_y1", [0.999, 0.9995, 1.0])
    @pytest.mark.parametrize("p_y0", [0.0, 0.4, 1.0])
    def test_matches_full_sum_at_near_certain_outcomes(self, p_y1, p_y0):
        # the stratum distribution with these margins that puts the most mass on stratum 3
        p3 = max(0.0, p_y1 + p_y0 - 1.0)
        probs = (p_y1 - p3, p_y0 - p3, p3, 1.0 - p_y1 - p_y0 + p3)
        for spec in (spec_from_delta(-2.0, 2.0, 0.0, 0.0), spec_from_delta(3.0, -1.0, 0.5, 1.5)):
            full = expected_cf_utility_diff(spec, probs)
            assert gain_equality_diff(spec, p_y1, p_y0) == pytest.approx(full, abs=1e-12)

    @pytest.mark.parametrize("seed", range(300))
    def test_matches_full_sum_for_random_balanced_tables(self, seed):
        rng = np.random.default_rng(seed)
        d1, d2, d3 = rng.uniform(-5, 5, size=3)
        d4 = d1 + d2 - d3  # forces gain equality
        spec = spec_from_delta(d1, d2, d3, d4)
        w = rng.uniform(0.01, 1.0, size=4)
        probs = tuple(w / w.sum())
        p_y1 = probs[0] + probs[2]
        p_y0 = probs[1] + probs[2]
        full = expected_cf_utility_diff(spec, probs)
        fast = gain_equality_diff(spec, p_y1, p_y0)
        assert fast == pytest.approx(full, abs=1e-12)


class TestOutcomeUtility:
    def test_survival_fixture_arms(self):
        surv = survival_spec()
        assert expected_int_utility(surv, 1, 0.3) == pytest.approx(0.7, abs=1e-12)
        assert expected_int_utility(surv, 0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_zero_utility(self):
        spec = UtilitySpec(mu={(y, a): 0.0 for y in (0, 1) for a in (0, 1)})
        assert expected_int_utility(spec, 1, 0.42) == 0.0

    def test_mean_out_of_range(self):
        with pytest.raises(ValueError):
            expected_int_utility(survival_spec(), 0, -0.1)

    def test_action_must_be_0_or_1(self):
        with pytest.raises(ValueError, match="^a must be 0 or 1, got 2$"):
            expected_int_utility(survival_spec(), 2, 0.5)


class TestUtilityFiles:
    def test_fixture_file(self):
        with open(PEN3) as fh:
            spec = parse_utility_text(fh.read())
        assert spec.delta == (-4.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("text, message", [
        ("MU 0 0 1.0\n", "all four MU"),
        ("MU 0 0 1\nMU 0 1 1\nMU 1 0 0\nMU 1 1 0\nGAMMA 1 0 1.0\n", "all eight"),
        ("MU 0 0 1\nMU 0 1 1\nMU 1 0 0\nMU 1 1 0\nMU 0 0 2\n", "duplicate"),
        ("MU 0 2 1.0\n", "indices must be"),
        ("NU 0 0 1.0\n", "unknown record"),
        ("MU 0 0 x\n", "malformed"),
        ("MU 0 0 -inf\n", "line 1: MU value '-inf' is not finite"),
        ("MU 0 0\n", "line 1: MU record needs 3 fields"),
        ("GAMMA 5 0 1.0\n", "line 1: GAMMA needs s in 1..4 and a in 0..1"),
        ("GAMMA 1 0 1.0\nGAMMA 1 0 2.0\n", "line 2: duplicate GAMMA 1 0"),
    ])
    def test_malformed(self, text, message):
        with pytest.raises(FileFormatError, match=message):
            parse_utility_text(text)
