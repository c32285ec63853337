import dataclasses
import hashlib
import math
import os
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmbounds import (CellCounts, FileFormatError, FullLaw, ObservedLaw,
                        PositivityError, att_atu, exp_potential_mean, estimate_observed_law,
                        format_dataset_csv, fused_potential_mean,
                        observed_from_full, parse_dataset_csv, parse_law_text, potential_outcome,
                        random_law, read_dataset_file, read_law_file, sample_dataset)
from harmbounds.simulate import _LineTable, _sample_chunks

from conftest import DATA_DIR, simulate_digests, unconfounded
from golden_cases import E1


class TestRandomLaw:
    def test_deterministic_in_seed(self):
        assert random_law(7, n_levels=3) == random_law(7, n_levels=3)
        assert random_law(7) != random_law(8)

    @pytest.mark.parametrize("seed", range(50))
    def test_always_valid(self, seed):
        # rebuilding runs the construction checks again on the sampled tables
        law = random_law(seed, n_levels=1 + seed % 4)
        assert dataclasses.replace(law) == law

    def test_ten_thousand_seeds_always_valid(self):
        for seed in range(10_000):
            law = random_law(seed, n_levels=1 + seed % 4)
            # rebuilding runs the construction checks again on the sampled tables
            assert dataclasses.replace(law) == law, seed

    def test_no_confounding_equalizes_intention_arms(self):
        law = unconfounded(random_law(5, n_levels=2))
        for l in law.levels:
            assert law.p_strata[(l, 0)] == law.p_strata[(l, 1)]
        obs = observed_from_full(law)
        att, atu = att_atu(obs, "l0")
        assert att == pytest.approx(atu, abs=1e-12)

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            random_law(1, n_levels=0)

    def test_tables_match_one_uniform_call_per_table(self):
        # random_law maps one draw of uniforms; this rebuilds its tables the way
        # one Generator.uniform call per table draws them, and compares every bit
        def per_call_tables(seed, k):
            rng = np.random.default_rng(seed)
            levels = [f"l{i}" for i in range(k)]
            weights = rng.uniform(0.1, 1.0, size=k)
            tables = [{l: float(w / weights.sum()) for l, w in zip(levels, weights)}]
            for lo, hi in ((0.2, 0.8), (0.35, 0.65), (0.35, 0.65)):
                tables.append({l: float(rng.uniform(lo, hi)) for l in levels})
            strata = {}
            for l in levels:
                for astar in (1, 0):
                    w = rng.uniform(0.05, 1.0, size=4)
                    strata[(l, astar)] = tuple(float(v) for v in w / w.sum())
            return [*tables, strata]

        def hexed(table):
            return [(key, [float.hex(v) for v in np.atleast_1d(value)])
                    for key, value in table.items()]

        seeds = [*range(1000), *np.random.default_rng(0).integers(0, 2**63, size=1000).tolist()]
        for i, seed in enumerate(seeds):
            law = random_law(seed, n_levels=1 + i % 4)
            got = [law.p_level, law.p_astar, law.p_r1, law.p_treat, law.p_strata]
            assert list(map(hexed, got)) == list(map(hexed, per_call_tables(seed, 1 + i % 4)))


@st.composite
def stratum_laws(draw):
    """A 1-3 level law: a ``random_law``, or a dyadic law with two exact zeros
    in every stratum block, placed independently in each (level, A*) group."""
    n_levels = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return random_law(draw(st.integers(0, 2**32 - 1)), n_levels)
    levels = tuple(f"l{i}" for i in range(n_levels))
    weights = [draw(st.integers(1, 4)) for _ in levels]
    p_strata = {}
    for l in levels:
        for astar in (1, 0):
            first, second = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2,
                                          unique=True))
            k = draw(st.integers(1, 63))
            block = [0.0] * 4
            block[first], block[second] = k / 64, (64 - k) / 64
            p_strata[(l, astar)] = tuple(block)
    dyadic = st.integers(13, 51).map(lambda k: k / 64)
    return FullLaw(levels=levels,
                   p_level={l: w / sum(weights) for l, w in zip(levels, weights)},
                   p_astar={l: draw(dyadic) for l in levels}, p_strata=p_strata,
                   p_r1={l: draw(dyadic) for l in levels},
                   p_treat={l: draw(dyadic) for l in levels})


def rows_where(counts: CellCounts, **fixed) -> int:
    """Rows of ``counts`` in the cells whose named fields take the given values."""
    names = ("r", "level", "a", "y", "astar", "s")
    return sum(c for cell, c in counts.counts.items()
               if all(cell[names.index(k)] == v for k, v in fixed.items()))


class TestSampling:
    def test_single_row(self, law_e1):
        data = sample_dataset(law_e1, 1, seed=3)
        assert data.n == 1 and data.levels == ("l0",)
        [(cell, count)] = data.counts.items()
        assert count == 1 and len(cell) == 4
        assert cell[0] in (0, 1) and cell[1] == 0 and cell[2] in (0, 1) and cell[3] in (0, 1)
        assert not data.has_oracle

    def test_deterministic_in_seed(self, law_e1):
        d1 = sample_dataset(law_e1, 500, seed=9, oracle=True)
        d2 = sample_dataset(law_e1, 500, seed=9, oracle=True)
        assert d1 == d2 and d1.n == 500
        assert sample_dataset(law_e1, 500, seed=10, oracle=True) != d1

    def test_oracle_rows_respect_structure(self, law_e1):
        data = sample_dataset(law_e1, 5000, seed=11, oracle=True)
        assert data.n == 5000
        for r, _, a, y, astar, s in data.counts:
            if r == 0:
                assert a == astar
            # every outcome is the one the stratum dictates for the received treatment
            assert y == potential_outcome(s, a)

    def test_trial_arm_frequencies(self, law_e1):
        # binomial SE for the treated-arm mean at this n is about 0.00065
        data = sample_dataset(law_e1, 10**6, seed=1)
        freq = rows_where(data, r=1, a=1, y=1) / rows_where(data, r=1, a=1)
        assert freq == pytest.approx(0.3, abs=0.002)

    def test_oracle_stratum_frequencies(self, law_e1):
        data = sample_dataset(law_e1, 200_000, seed=2, oracle=True)
        n_group = rows_where(data, astar=1)
        for s, expected in zip((1, 2, 3, 4), law_e1.p_strata[("l0", 1)]):
            freq = rows_where(data, astar=1, s=s) / n_group
            se = np.sqrt(expected * (1 - expected) / n_group)
            assert abs(freq - expected) <= 3 * se + 1e-9, f"stratum {s}"

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(law=stratum_laws(), seed=st.integers(0, 2**32 - 1))
    def test_stratum_frequencies_in_every_group(self, law, seed):
        data = sample_dataset(law, 50_000, seed, oracle=True)
        for i, l in enumerate(law.levels):
            for astar in (0, 1):
                n_group = rows_where(data, level=i, astar=astar)
                for s, p in enumerate(law.p_strata[(l, astar)], 1):
                    count = rows_where(data, level=i, astar=astar, s=s)
                    where = f"stratum {s} of level {l}, A*={astar}"
                    if p == 0.0:
                        assert count == 0, where
                    else:
                        se = math.sqrt(p * (1 - p) / n_group)
                        assert abs(count / n_group - p) <= 5 * se, where

    def test_draws_match_golden_digests(self):
        # Recorded before the sampler read strata from its cut-point table.
        path = os.path.join(DATA_DIR, "simulate_golden", "random_law3_n100000_oracle.sha256")
        with open(path, encoding="utf-8") as fh:
            digests = [line.split() for line in fh if not line.startswith("#")]
        assert len(digests) == 2
        for seed, digest in digests:
            law = random_law(int(seed), 3)
            r, li, a, y, astar, s = next(_sample_chunks(law, 10**5, int(seed)))
            assert [c.dtype for c in (r, a, y, astar, s)] == [np.int8] * 5
            assert li.dtype == np.int64
            text = format_dataset_csv(law, 10**5, int(seed), oracle=True)
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("law_path, n, seed, oracle, digest", simulate_digests())
    def test_library_path_matches_streaming_digests(self, law_path, n, seed, oracle, digest):
        # the same bytes as the chunked CLI writer, recorded before rows were drawn in chunks
        text = format_dataset_csv(read_law_file(law_path), n, seed, oracle)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestEstimation:
    def test_recovers_push_forward(self, law_e1, obs_e1):
        data = sample_dataset(law_e1, 10**6, seed=4)
        est = estimate_observed_law(data)
        for r in (0, 1):
            for key, value in obs_e1.p_ya[("l0", r)].items():
                assert est.p_ya[("l0", r)][key] == pytest.approx(value, abs=0.005)

    def test_empty_block_error(self, law_e1):
        # every sampled row moved outside the trial
        data = sample_dataset(law_e1, 50, seed=6)
        no_trial = Counter()
        for (_, *rest), count in data.counts.items():
            no_trial[(0, *rest)] += count
        no_trial = CellCounts(levels=data.levels, counts=no_trial, has_oracle=False)
        assert no_trial.n == 50
        with pytest.raises(PositivityError, match=r"empty block \(level 'l0', R=1\)"):
            estimate_observed_law(no_trial)

    def test_empty_trial_arm_error(self, law_e1):
        # every sampled trial row moved into the treated arm
        data = sample_dataset(law_e1, 200, seed=6)
        all_treated = Counter()
        for (r, i, a, y), count in data.counts.items():
            all_treated[(r, i, 1 if r == 1 else a, y)] += count
        all_treated = CellCounts(levels=data.levels, counts=all_treated, has_oracle=False)
        assert all_treated.n == 200
        with pytest.raises(PositivityError, match=r"^empty arm \(level 'l0', R=1, A=0\)$"):
            estimate_observed_law(all_treated)

    def test_smoothing_fills_cells(self, law_e1):
        data = sample_dataset(law_e1, 3, seed=8)
        est = estimate_observed_law(data, smoothing=1.0)
        for block in est.p_ya.values():
            assert min(block.values()) > 0.0

    @pytest.mark.parametrize("smoothing", [0.0, 0.1, 0.3, 0.7, 1e-9])
    def test_same_floats_from_rows_counts_and_numpy(self, smoothing):
        # exact equality: 6-decimal output would hide a change in the last bits
        law = random_law(3, n_levels=3)
        data = sample_dataset(law, 20_000, seed=5, oracle=True)
        est = estimate_observed_law(data, smoothing)
        assert est == reference_estimate(data, smoothing)
        text = format_dataset_csv(law, 20_000, seed=5, oracle=True)
        assert estimate_observed_law(parse_dataset_csv(text), smoothing) == est

    def test_negative_smoothing_rejected(self, law_e1):
        data = sample_dataset(law_e1, 10, seed=8)
        with pytest.raises(ValueError):
            estimate_observed_law(data, smoothing=-0.5)

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf])
    def test_non_finite_smoothing_rejected(self, law_e1, smoothing):
        data = sample_dataset(law_e1, 100, seed=1)
        with pytest.raises(ValueError, match="smoothing must be finite and non-negative"):
            estimate_observed_law(data, smoothing=smoothing)

    @pytest.mark.parametrize("seed", range(20))
    def test_end_to_end_consistency(self, seed):
        law = random_law(seed, n_levels=1)
        truth = observed_from_full(law)
        est = estimate_observed_law(sample_dataset(law, 10**6, seed=seed + 500))
        for l in law.levels:
            for a in (0, 1):
                assert exp_potential_mean(est, a, l) == pytest.approx(
                    exp_potential_mean(truth, a, l), abs=0.01)
                for astar in (0, 1):
                    assert fused_potential_mean(est, a, astar, l, tol=0.05) == pytest.approx(
                        fused_potential_mean(truth, a, astar, l), abs=0.01)


def reference_parse(text: str) -> CellCounts:
    """Per-row reader of a valid dataset CSV, counting its rows by cell."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    oracle = len(lines[0].split(",")) == 6
    rows = [[p.strip() for p in ln.split(",")] for ln in lines[1:]]
    levels = tuple(sorted({row[1] for row in rows}))
    cells = Counter((int(row[0]), levels.index(row[1]), *(int(p) for p in row[2:]))
                    for row in rows)
    return CellCounts(levels=levels, counts=cells, has_oracle=oracle)


def reference_estimate(data: CellCounts, smoothing: float) -> ObservedLaw:
    """Plug-in law from a numpy count array, summed in numpy's order."""
    counts = np.zeros((len(data.levels), 2, 2, 2))  # [level, r, y, a]
    for (r, i, a, y, *_oracle), count in data.counts.items():
        counts[i, r, y, a] += count
    p_ya = {}
    for i, l in enumerate(data.levels):
        for r in (0, 1):
            block = counts[i, r] + smoothing
            p_ya[(l, r)] = {(y, a): float(block[y, a] / block.sum())
                            for y in (0, 1) for a in (0, 1)}
    return ObservedLaw(levels=data.levels,
                       p_level={l: counts[i].sum() / data.n for i, l in enumerate(data.levels)},
                       p_r1={l: counts[i, 1].sum() / counts[i].sum()
                             for i, l in enumerate(data.levels)}, p_ya=p_ya)


def reference_format(levels: tuple[str, ...], rows: list, oracle: bool, seed: int) -> str:
    """Per-row writer of rows ``(r, level index, a, y, astar, s)``."""
    text = f"# pcg64 seed={seed} n={len(rows)}\n"
    text += "R,L,A,Y,ASTAR,S\n" if oracle else "R,L,A,Y\n"
    for r, i, a, y, astar, s in rows:
        text += f"{r},{levels[i]},{a},{y}" + (f",{astar},{s}\n" if oracle else "\n")
    return text


#: Line breaks ``str.splitlines`` honours besides "\n" and "\r\n".
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def csv_cases(draw):
    """Rows of a dataset of 1-4 levels, and a CSV text of them.

    The text pads fields with spaces and tabs, ends lines at any line
    break ``str.splitlines`` honours (mostly '\\n' and '\\r\\n') and puts
    blank and '#' lines anywhere.
    """
    n_levels = draw(st.integers(1, 4))
    levels = tuple(draw(st.lists(st.text("abxyz019_", min_size=1, max_size=3),
                                 min_size=n_levels, max_size=n_levels, unique=True)))
    oracle = draw(st.booleans())
    rows = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, n_levels - 1),
                                   st.integers(0, 1), st.integers(0, 1),
                                   st.integers(0, 1), st.integers(1, 4)),
                         min_size=1, max_size=40))
    width = 6 if oracle else 4
    pad = st.sampled_from(["", "", " ", "  ", "\t"])
    filler = st.lists(st.sampled_from(["", "   ", "\t", "# note", "#R,L,A,Y", "#"]), max_size=2)

    def line(fields):
        return ",".join(draw(pad) + f + draw(pad) for f in fields)

    header = ["R", "L", "A", "Y", "ASTAR", "S"][:width]
    lines = draw(filler) + [line(draw(st.sampled_from([header, [h.lower() for h in header]])))]
    for row in rows:
        lines += draw(filler)
        fields = [str(v) for v in row]
        fields[1] = levels[row[1]]
        lines.append(line(fields[:width]))
    lines += draw(filler)
    breaks = st.sampled_from(["\n"] * 5 + ["\r\n"] * 5 + LINE_BREAKS)
    text = "".join(ln + draw(breaks) for ln in lines)

    return text, levels, rows, oracle


# Malformed dataset texts and the start of the reader's error message.
MALFORMED = [
    ("", "no header"),
    ("R,L,A\n", "must start with"),
    ("R,L,A,Y,EXTRA\n0,l0,0,0,1\n", "unrecognized dataset header"),
    ("R,L,A,Y\n0,l0,0\n", "expected 4 fields"),
    ("R,L,A,Y\n0,l0,0,x\n", "non-integer"),
    ("R,L,A,Y\n2,l0,0,0\n", "outside"),
    ("R,L,A,Y\n-1,l0,0,0\n", "column R contains values outside"),
    ("R,L,A,Y\n300,l0,0,0\n", "column R contains values outside"),
    ("R,L,A,Y\n", "no rows"),
    # the first bad line wins; blank and '#' lines are not counted
    ("R,L,A,Y\n0,l0,0,0\n0,l0,x,0\n0,l0,0\n", "line 3: non-integer"),
    ("R,L,A,Y\n0,l0,0,0\n0,l0,0\n0,l0,x,0\n0,l0,0\n", "line 3: expected 4 fields, got 3"),
    ("# seed\nR,L,A,Y\n\n# note\n0,l0,0,0\n   \n0,l0,0\n", "line 3: expected 4 fields"),
    ("R,L,A,Y\n0,l0,0,0\nR,L,A,Y\n", "line 3: non-integer"),
    # no law file can declare an empty level; a non-integer field is reported first
    ("R,L,A,Y\n0,l0,0,0\n1,,1,0\n", "line 3: empty level label"),
    ("R,L,A,Y\n0,l0,0,0\n1, \t ,1,0\n", "line 3: empty level label"),
    ("R,L,A,Y\n1,,x,0\n", "line 2: non-integer"),
    # a field-count or non-integer error beats a range error on an earlier line
    ("R,L,A,Y\n2,l0,0,0\n0,l0,0,x\n", "line 3: non-integer"),
    ("R,L,A,Y\n2,l0,0,0\n0,l0,0,0,0\n", "line 3: expected 4 fields, got 5"),
    # range errors come in column order R, A, Y, ASTAR, S
    ("R,L,A,Y\n0,l0,0,5\n0,l0,7,0\n3,l0,0,0\n", "column R "),
    ("R,L,A,Y\n0,l0,0,5\n0,l0,7,0\n", "column A "),
    ("R,L,A,Y,ASTAR,S\n0,l0,0,0,1,0\n0,l0,0,2,1,1\n", "column Y "),
    ("R,L,A,Y,ASTAR,S\n0,l0,0,0,0,9\n0,l0,0,0,3,1\n", "column ASTAR "),
    ("R,L,A,Y,ASTAR,S\n0,l0,0,0,1,0\n", "column S "),
]


class TestCsv:
    def test_round_trip(self, law_e1):
        data = sample_dataset(law_e1, 100, seed=13, oracle=True)
        text = format_dataset_csv(law_e1, 100, seed=13, oracle=True)
        assert text.startswith("# pcg64 seed=13 n=100\nR,L,A,Y,ASTAR,S\n")
        back = parse_dataset_csv(text)
        assert back == data
        assert back.levels == data.levels and back.has_oracle and back.n == 100
        assert len(next(iter(back.counts))) == 6

    def test_round_trip_without_oracle(self, law_e1):
        data = sample_dataset(law_e1, 100, seed=13)
        back = parse_dataset_csv(format_dataset_csv(law_e1, 100, seed=13))
        assert back == data
        assert back.levels == data.levels and not back.has_oracle
        assert len(next(iter(back.counts))) == 4

    def test_counts_are_read_only_and_pickle(self, law_e1):
        counts = sample_dataset(law_e1, 50, seed=2, oracle=True)
        with pytest.raises(TypeError):
            counts.counts[(0, 0, 0, 0, 0, 1)] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            counts.levels = ("x",)
        assert pickle.loads(pickle.dumps(counts)) == counts

    def test_format_rejects_a_label_with_a_comma(self):
        with open(E1, encoding="utf-8") as fh:
            law = parse_law_text(fh.read().replace(" l0 ", " a,b "))
        assert sample_dataset(law, 10, seed=13).levels == ("a,b",)  # counts keep the label
        with pytest.raises(ValueError, match=r"^level label 'a,b' contains ','"):
            format_dataset_csv(law, 10, seed=13)

    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_malformed(self, text, message):
        with pytest.raises(FileFormatError, match=message):
            parse_dataset_csv(text)

    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_file_reader_gives_the_same_message(self, tmp_path, text, message):
        with pytest.raises(FileFormatError) as from_text:
            parse_dataset_csv(text)
        path = tmp_path / "d.csv"
        for data in (text.encode("utf-8"), text.replace("\n", "\r\n").encode("utf-8")):
            path.write_bytes(data)
            with pytest.raises(FileFormatError) as from_file:
                read_dataset_file(str(path))
            assert str(from_file.value) == str(from_text.value)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=csv_cases())
    def test_matches_per_row_reference(self, tmp_path_factory, case):
        text, levels, rows, oracle = case
        parsed = parse_dataset_csv(text)
        assert parsed == reference_parse(text)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_dataset_file(str(path)) == parsed
        # the line-table gather, fed the drawn columns
        columns = [np.array(c, dtype=np.int8) for c in zip(*rows)]
        columns[1] = columns[1].astype(np.int64)
        lines = _LineTable(levels, oracle)
        assert (lines.header(7, len(rows)) + lines.text(tuple(columns))
                == reference_format(levels, rows, oracle, 7))
