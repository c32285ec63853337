import copy
import dataclasses
import pickle
import re

import pytest

from harmbounds import (FileFormatError, LawValidationError, STRATA,
                        observed_from_full, parse_law_text, potential_outcome,
                        random_law, stratum_margins)
from harmbounds.laws import STRATUM_OUTCOMES

from conftest import make_law_e1, with_strata
from golden_cases import E1


def test_stratum_outcome_bijection():
    pairs = set()
    for s in STRATA:
        pair = (potential_outcome(s, 1), potential_outcome(s, 0))
        assert STRATUM_OUTCOMES[s] == pair
        pairs.add(pair)
    assert pairs == {(1, 0), (0, 1), (1, 1), (0, 0)}


def _trial_block(obs, block):
    return dict(p_ya={**obs.p_ya, ("l0", 1): block})


#: test id -> (changes to the e1 observed law, message of the refusal)
OBSERVED_FAULTS = {
    "no-levels": (lambda o: dict(levels=()), "observed law has no levels"),
    "duplicate-level": (lambda o: dict(levels=("l0", "l0"), p_level={"l0": 0.5}),
                        "duplicate level labels"),
    "missing-p_level": (lambda o: dict(p_level={}), r"missing P\(L\) entry for level 'l0'"),
    "p_level-range": (lambda o: dict(p_level={"l0": 1.5}),
                      r"P\(L\) at level 'l0' = 1.5 is not a probability"),
    "missing-p_r1": (lambda o: dict(p_r1={}), r"missing P\(R=1\|L\) entry for level 'l0'"),
    "p_r1-range": (lambda o: dict(p_r1={"l0": -0.5}),
                   r"P\(R=1\|L\) at level 'l0' = -0.5 is not a probability"),
    "missing-block": (lambda o: dict(p_ya={("l0", 1): o.p_ya[("l0", 1)]}),
                      r"missing block \(level 'l0', R=0\)"),
    "missing-cell": (lambda o: _trial_block(o, {(0, 0): 0.5, (0, 1): 0.5, (1, 1): 0.0}),
                     r"missing cell \(Y=1, A=0\) in block \(level 'l0', R=1\)"),
    "cell-range": (lambda o: _trial_block(o, {(0, 0): 1.5, (0, 1): 0.0, (1, 0): 0.0, (1, 1): -0.5}),
                   r"P\(Y=0,A=0 \| level 'l0', R=1\) = 1.5 is not a probability"),
    "block-sum": (lambda o: _trial_block(o, dict.fromkeys(o.p_ya[("l0", 1)], 0.5)),
                  r"block \(level 'l0', R=1\) sums to 2"),
    "level-sum": (lambda o: dict(p_level={"l0": 0.7}), r"P\(L\) sums to 0.7"),
}
#: test id -> (changes to the e1 full law, message of the refusal)
FULL_LAW_FAULTS = {
    "p_astar-range": (lambda law: dict(p_astar={"l0": 1.5}),
                      r"^P\(A\*=1\|L\) at level 'l0' = 1.5 is not a probability$"),
    "stratum-entry-range": (
        lambda law: dict(p_strata={**law.p_strata, ("l0", 1): (0.5, 1.5, -1.0, 0.0)}),
        r"^P\(S=2 \| level 'l0', astar=1\) = 1.5 is not a probability$"),
    "missing-stratum-block": (lambda law: dict(p_strata={("l0", 1): law.p_strata[("l0", 1)]}),
                              r"^missing stratum block \(level 'l0', astar=0\)$"),
    "stratum-block-length": (
        lambda law: dict(p_strata={**law.p_strata, ("l0", 1): (0.5, 0.5, 0.0)}),
        r"^stratum block \(level 'l0', astar=1\) has 3 entries$"),
}


class TestValidation:
    def test_fixture_is_valid(self, law_e1):
        assert dataclasses.replace(law_e1) == law_e1

    def test_unnormalized_stratum_block(self, law_e1):
        with pytest.raises(LawValidationError, match=r"astar=1.*sums to 2"):
            dataclasses.replace(
                law_e1, p_strata={**law_e1.p_strata, ("l0", 1): (0.5, 0.5, 0.5, 0.5)})

    def test_point_mass_is_valid(self, law_e1):
        dataclasses.replace(law_e1, p_strata={("l0", 1): (0.0, 0.0, 0.0, 1.0),
                                              ("l0", 0): (0.0, 0.0, 0.0, 1.0)})

    def test_level_mass_must_normalize(self, law_e1):
        with pytest.raises(LawValidationError, match="P\\(L\\) sums"):
            dataclasses.replace(law_e1, p_level={"l0": 0.7})

    # the full law's probability messages too, which share the observed law's check
    @pytest.mark.parametrize("case", [*OBSERVED_FAULTS, *FULL_LAW_FAULTS])
    def test_observed_law_messages(self, law_e1, obs_e1, case):
        law, (changes, message) = ((obs_e1, OBSERVED_FAULTS[case]) if case in OBSERVED_FAULTS
                                   else (law_e1, FULL_LAW_FAULTS[case]))
        with pytest.raises(LawValidationError, match=message):
            dataclasses.replace(law, **changes(law))

    def test_tables_are_read_only_copies(self, law_e1, obs_e1):
        for table, key in ((law_e1.p_level, "l0"), (law_e1.p_strata, ("l0", 1)),
                           (obs_e1.p_ya[("l0", 0)], (1, 1))):
            with pytest.raises(TypeError):
                table[key] = 0.5
        p_level = {"l0": 1.0}
        law = dataclasses.replace(law_e1, p_level=p_level)
        p_level["l0"] = 0.5
        assert law.p_level["l0"] == 1.0

    def test_pickle_and_deepcopy_round_trip(self, law_e1):
        for law in (law_e1, random_law(0), random_law(1, n_levels=2), random_law(2, n_levels=3)):
            for x in (law, observed_from_full(law)):
                for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
                    assert copied == x and copied is not x
                    with pytest.raises(TypeError):
                        copied.p_level[x.levels[0]] = 0.5

    def test_unpickling_checks_the_law_again(self, law_e1):
        rebuild, args = law_e1.__reduce__()
        args[1]["l0"] = 0.7
        with pytest.raises(LawValidationError, match="P\\(L\\) sums"):
            rebuild(*args)


def _outcome_mass(probs, a):
    return min(1.0, max(0.0, sum(probs[s - 1] for s in STRATA if potential_outcome(s, a) == 1)))


class TestDerivedTables:
    def test_tables_equal_the_direct_formulas_bit_for_bit(self):
        # a law keeps its derived tables; each entry is the formula it replaced
        for seed in range(1000):
            law = random_law(seed, n_levels=1 + seed % 3)
            if seed % 2:  # fill the tables in another order first
                law.marginal_potential_mean(seed // 2 % 2)
            got, want = [], []
            marginals = {}
            for l in law.levels:
                pa, c1, c0 = law.p_astar[l], law.p_strata[(l, 1)], law.p_strata[(l, 0)]
                marginals[l] = tuple(pa * c1[i] + (1.0 - pa) * c0[i] for i in range(4))
                got += law.strata_marginal(l)
                want += marginals[l]
                for a in (0, 1):
                    got.append(law.potential_mean(a, l))
                    want.append(_outcome_mass(marginals[l], a))
                    for astar in (0, 1):
                        got.append(law.potential_mean_given_astar(a, astar, l))
                        want.append(_outcome_mass(law.p_strata[(l, astar)], a))
            for a in (0, 1):
                got.append(law.marginal_potential_mean(a))
                want.append(sum(law.p_level[l] * _outcome_mass(marginals[l], a)
                                for l in law.levels))
            assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_tables_are_not_fields(self):
        law = random_law(3, n_levels=2)
        law.marginal_potential_mean(1)  # fills the tables
        assert law == random_law(3, n_levels=2)
        assert law._means and not pickle.loads(pickle.dumps(law))._means
        swapped = dataclasses.replace(law, p_level=dict(zip(law.levels, (0.25, 0.75))))
        assert swapped.marginal_potential_mean(1) == (0.25 * law.potential_mean(1, "l0")
                                                      + 0.75 * law.potential_mean(1, "l1"))

    @pytest.mark.parametrize("call, message", [
        (lambda law: law.potential_mean(2, "l0"), "a must be 0 or 1, got 2"),
        (lambda law: law.potential_mean(-1, "l0"), "a must be 0 or 1, got -1"),
        (lambda law: law.marginal_potential_mean(7), "a must be 0 or 1, got 7"),
        (lambda law: law.potential_mean_given_astar(3, 1, "l0"), "a must be 0 or 1, got 3"),
        (lambda law: law.potential_mean_given_astar(1, 2, "l0"), "astar must be 0 or 1, got 2"),
        (lambda law: law.potential_mean(1, "nope"), "unknown level 'nope'"),
        (lambda law: law.potential_mean_given_astar(2, 2, "nope"), "unknown level 'nope'"),
        (lambda law: law.strata_marginal("nope"), "unknown level 'nope'"),
    ], ids=["a=2", "a=-1", "marginal-a=7", "given_astar-a=3", "astar=2", "level",
            "level-first", "strata_marginal-level"])
    def test_refuses_an_unknown_action_or_level(self, law_e1, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(law_e1)


class TestPushForward:
    def test_fixture_blocks(self, obs_e1):
        assert obs_e1.p_y_given_a(1, "l0", 1) == pytest.approx(0.3, abs=1e-12)
        assert obs_e1.p_y_given_a(0, "l0", 1) == pytest.approx(0.5, abs=1e-12)
        assert obs_e1.p_joint(1, 1, "l0", 0) == pytest.approx(0.3, abs=1e-12)
        assert obs_e1.p_joint(1, 0, "l0", 0) == pytest.approx(0.3, abs=1e-12)
        assert obs_e1.p_joint(0, 1, "l0", 0) == pytest.approx(0.0, abs=1e-12)

    def test_fixture_matches_cell_enumeration(self, law_e1, obs_e1):
        # independent oracle: enumerate the eight (astar, stratum) cells
        for a in (0, 1):
            mean = 0.0
            for astar in (0, 1):
                w = law_e1.p_astar["l0"] if astar == 1 else 1 - law_e1.p_astar["l0"]
                block = law_e1.p_strata[("l0", astar)]
                mean += w * sum(block[s - 1] for s in STRATA if potential_outcome(s, a) == 1)
            assert obs_e1.p_y_given_a(a, "l0", 1) == pytest.approx(mean, abs=1e-12)

    def test_randomization_probability_respected(self, law_e1, obs_e1):
        assert obs_e1.p_a(1, "l0", 1) == pytest.approx(law_e1.p_treat["l0"], abs=1e-12)

    def test_nobody_dies_under_never_one_stratum(self, law_e1):
        law = with_strata(law_e1, (0.0, 0.0, 0.0, 1.0))
        obs = observed_from_full(law)
        for r in (0, 1):
            for a in (0, 1):
                assert obs.p_joint(1, a, "l0", r) == 0.0

    def test_always_one_stratum_dies_in_both_arms(self, law_e1):
        law = with_strata(law_e1, (0.0, 0.0, 1.0, 0.0))
        obs = observed_from_full(law)
        for a in (0, 1):
            assert obs.p_y_given_a(a, "l0", 1) == pytest.approx(1.0)

    def test_block_summing_past_one_gives_means_in_unit_interval(self, law_e1):
        # this block sums to 1 + 2**-52, inside the validation tolerance
        block = (0.26853172339821946, 0.0, 0.7314682766017807, 0.0)
        assert sum(block) > 1.0
        law = dataclasses.replace(law_e1, p_strata={("l0", 1): block, ("l0", 0): block})
        assert law.potential_mean_given_astar(1, 1, "l0") == 1.0
        assert law.potential_mean(1, "l0") == 1.0
        obs = observed_from_full(law)
        for r in (0, 1):
            assert min(obs.p_ya[("l0", r)].values()) >= 0.0

    @pytest.mark.parametrize("seed", range(50))
    def test_blocks_normalize_on_random_laws(self, seed):
        law = random_law(seed, n_levels=1 + seed % 3)
        obs = observed_from_full(law)
        for l in law.levels:
            for r in (0, 1):
                block = obs.p_ya[(l, r)]
                assert sum(block.values()) == pytest.approx(1.0, abs=1e-12)
                assert min(block.values()) >= 0.0

    def test_thousand_law_push_forward_sweep(self):
        for seed in range(1000):
            law = random_law(seed, n_levels=1 + seed % 3)
            obs = observed_from_full(law)
            for l in law.levels:
                probs = law.strata_marginal(l)
                _, _, ate = stratum_margins(law, l)
                assert abs(ate - (probs[0] - probs[1])) <= 1e-12, seed
                for r in (0, 1):
                    block = obs.p_ya[(l, r)].values()
                    assert abs(sum(block) - 1.0) <= 1e-12, seed
                    assert min(block) >= 0.0, seed


class TestStratumMargins:
    def test_fixture(self, law_e1):
        p_y1, p_y0, ate = stratum_margins(law_e1, "l0")
        assert p_y1 == pytest.approx(0.3, abs=1e-12)
        assert p_y0 == pytest.approx(0.5, abs=1e-12)
        assert ate == pytest.approx(-0.2, abs=1e-12)

    def test_equal_harm_and_benefit_mass_cancels(self, law_e1):
        law = with_strata(law_e1, (0.2, 0.2, 0.25, 0.35))
        assert stratum_margins(law, "l0")[2] == pytest.approx(0.0, abs=1e-12)

    def test_pure_harm_law(self, law_e1):
        law = with_strata(law_e1, (1.0, 0.0, 0.0, 0.0))
        assert stratum_margins(law, "l0") == (1.0, 0.0, 1.0)

    def test_unknown_level(self, law_e1):
        with pytest.raises(ValueError, match="unknown level"):
            stratum_margins(law_e1, "nope")

    @pytest.mark.parametrize("seed", range(100))
    def test_difference_identity_on_random_laws(self, seed):
        # the effect equals the harmed-minus-saved mass exactly
        law = random_law(seed, n_levels=2)
        for l in law.levels:
            probs = law.strata_marginal(l)
            _, _, ate = stratum_margins(law, l)
            assert ate == pytest.approx(probs[0] - probs[1], abs=1e-12)


@pytest.fixture
def e1_text() -> str:
    with open(E1) as fh:
        return fh.read()


class TestLawFiles:
    def test_fixture_file_matches_fixture(self, e1_text, law_e1):
        assert parse_law_text(e1_text) == law_e1

    def test_comments_and_blank_lines_ignored(self, e1_text, law_e1):
        text = "# header\n\n" + e1_text + "\n# tail\n"
        assert parse_law_text(text) == law_e1

    @pytest.mark.parametrize("mutate, message", [
        (lambda t: t.replace("ASTAR l0 0.3\n", ""), "missing ASTAR"),
        (lambda t: t.replace("TRIAL l0", "TRIAL lX"), "missing TRIAL record"),
        (lambda t: t + "ASTAR lX 0.5\n", "undeclared level"),
        (lambda t: t.replace("S l0 1", "S l0 2"), "astar must be 0 or 1"),
        (lambda t: t.replace("L l0 1.0", "L l0 one"), "not a number"),
        (lambda t: t.replace("TRIAL", "TREAL"), "unknown record kind"),
        (lambda t: t + "S l0 0 0.1 0.2 0.3 0.4\n", "duplicate S record"),
        (lambda t: t + "TRIAL l0 0.9 0.1\n", "line 7: duplicate TRIAL record for 'l0'"),
        (lambda t: t + "ASTAR l0 0.5\n", "line 7: duplicate ASTAR record for 'l0'"),
        (lambda t: "# no levels\n", "no L records found"),
        (lambda t: t.replace("S l0 0 ", "# S l0 0 "), "missing S record for level 'l0', astar=0"),
        (lambda t: t.replace("L l0 1.0", "L l0"), "line 2: L record needs 2 fields, got 1"),
    ])
    def test_malformed_files(self, e1_text, mutate, message):
        with pytest.raises(FileFormatError, match=message):
            parse_law_text(mutate(e1_text))

    def test_error_carries_line_number(self, e1_text):
        text = e1_text.replace("ASTAR l0 0.3", "ASTAR l0 x")
        with pytest.raises(FileFormatError, match="line 4"):
            parse_law_text(text)

    def test_validation_applied_after_parse(self, e1_text):
        text = e1_text.replace(
            "S l0 1 0.3333333333333333 0.0 0.6666666666666666 0.0",
            "S l0 1 0.9 0.9 0.0 0.0")
        with pytest.raises(LawValidationError, match="sums to 1.8"):
            parse_law_text(text)


def test_make_law_helper_matches_fixture(law_e1):
    assert make_law_e1() == law_e1
