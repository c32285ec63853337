"""Output checks: each compares what a command printed with the benchmark's own arithmetic.

Every ``check_*`` function returns a list of problems; an empty list means
the output is right.  Reports are read in the ``--machine`` format, one
``kind:...`` record per line.  Printed numbers carry six decimals, so
values are compared within ``PRINT_TOL``; a decision is only held to its
rule when the benchmark's own margin is wider than ``MARGIN``, since a
closer call cannot be told apart at print precision.
"""

from __future__ import annotations

import math

from model import (CELLS, SURVIVAL_MU, STRATA, delta, experimental_interval, fused_interval,
                   gain, gain_interval, stratum_intervals)

PRINT_TOL = 5e-7 + 1e-9
MARGIN = 4 * PRINT_TOL
#: Binomial standard errors a sampled cell frequency may stray from its probability.
Z = 5.0


def parse_machine(text: str) -> list[dict]:
    records = []
    for line in text.splitlines():
        if not line.startswith("kind:"):
            continue
        fields = {}
        for part in line.split("\t"):
            key, _, value = part.partition(":")
            fields[key] = value
        records.append(fields)
    return records


def _num(rec: dict, key: str) -> float:
    try:
        return float(rec[key])
    except (KeyError, ValueError):
        return math.nan


def _close(printed: float, expected: float, tol: float = PRINT_TOL) -> bool:
    return abs(printed - expected) <= tol


class _Records:
    """Records of one report indexed by their identifying fields; notes every duplicate."""

    def __init__(self, text: str, key_fields: dict[str, tuple[str, ...]]):
        self.problems: list[str] = []
        self.by_key: dict[tuple, dict] = {}
        for rec in parse_machine(text):
            kind = rec.get("kind")
            if kind not in key_fields:
                self.problems.append(f"unexpected record kind {kind!r}")
                continue
            key = (kind,) + tuple(rec.get(f) for f in key_fields[kind])
            if key in self.by_key:
                self.problems.append(f"duplicate record {key}")
            self.by_key[key] = rec

    def get(self, *key) -> dict | None:
        rec = self.by_key.get(tuple(str(k) for k in key))
        if rec is None:
            self.problems.append(f"missing record {key}")
        return rec

    def expect_count(self, n: int) -> None:
        if len(self.by_key) != n:
            self.problems.append(f"{len(self.by_key)} records, expected {n}")


def _value(recs: _Records, expected: float, *key, field: str = "value",
           tol: float = PRINT_TOL) -> None:
    rec = recs.get(*key)
    if rec is not None and not _close(_num(rec, field), expected, tol):
        recs.problems.append(f"{key} {field}={rec.get(field)} but expected {expected:.9f}")


# ---------------------------------------------------------------------------
# Law mode
# ---------------------------------------------------------------------------

def check_identify(law, text: str) -> list[str]:
    """Identified means equal the law's direct conditional means."""
    recs = _Records(text, {"exp_mean": ("level", "a"), "ate": ("level",),
                           "p_astar": ("level",), "fused_mean": ("level", "a", "astar"),
                           "att": ("level",), "atu": ("level",)})
    for lv in law.levels:
        l = lv.label
        for a in (0, 1):
            _value(recs, lv.mean(a), "exp_mean", l, a)
            for astar in (0, 1):
                _value(recs, lv.cond_mean(a, astar), "fused_mean", l, a, astar)
        _value(recs, lv.mean(1) - lv.mean(0), "ate", l)
        _value(recs, lv.p_astar, "p_astar", l)
        _value(recs, lv.cond_mean(1, 1) - lv.cond_mean(0, 1), "att", l)
        _value(recs, lv.cond_mean(1, 0) - lv.cond_mean(0, 0), "atu", l)
    recs.expect_count(10 * len(law.levels))
    return recs.problems


def law_p_range(lv) -> tuple[float, float]:
    """Closed-form fused range of P(S=1|l) at the law's own observed cells."""
    return fused_interval(lv.mean(1), lv.mean(0), lv.cells(0))


def check_bounds(law, text: str) -> list[str]:
    """Fused bounds: closed forms, nesting in the experimental interval, and the truth inside."""
    recs = _Records(text, {"stratum_bound": ("level", "s"), "lower_bound_s1": ("level",),
                           "p_range": ("level",)})
    for lv in law.levels:
        l = lv.label
        m1, m0 = lv.mean(1), lv.mean(0)
        obs = lv.cells(0)
        lo, hi = fused_interval(m1, m0, obs)
        factual = obs[(1, 1)] + obs[(1, 0)]
        _value(recs, max(0.0, m1 - m0, factual - m0, m1 - factual), "lower_bound_s1", l)
        _value(recs, lo, "p_range", l, field="lo")
        _value(recs, hi, "p_range", l, field="hi")
        exp_lo, exp_hi = experimental_interval(m1, m0)
        rec = recs.get("p_range", l)
        if rec is not None and not (exp_lo - PRINT_TOL <= _num(rec, "lo")
                                    and _num(rec, "hi") <= exp_hi + PRINT_TOL):
            recs.problems.append(f"level {l}: fused range escapes the experimental "
                                 f"interval [{exp_lo:.6f}, {exp_hi:.6f}]")
        truth = lv.marginal()
        for s, (slo, shi) in zip(STRATA, stratum_intervals(lo, hi, m1, m0)):
            rec = recs.get("stratum_bound", l, s)
            if rec is None:
                continue
            plo, phi = _num(rec, "lo"), _num(rec, "hi")
            if not (_close(plo, slo) and _close(phi, shi)):
                recs.problems.append(f"level {l} stratum {s}: [{plo}, {phi}] vs "
                                     f"[{slo:.9f}, {shi:.9f}]")
            if not plo - PRINT_TOL <= truth[s - 1] <= phi + PRINT_TOL:
                recs.problems.append(f"level {l} stratum {s}: true {truth[s - 1]:.9f} "
                                     f"outside [{plo}, {phi}]")
            if rec.get("source") != "fused":
                recs.problems.append(f"level {l} stratum {s}: source {rec.get('source')!r}")
    recs.expect_count(6 * len(law.levels))
    return recs.problems


def _check_action(recs: _Records, rec: dict, where: str, margin: float) -> None:
    """Action 1 iff the benchmark's margin is positive; ties within MARGIN go unjudged."""
    if abs(margin) <= MARGIN:
        return
    want = 1 if margin > 0 else 0
    if rec.get("action") != str(want) or rec.get("tie") != "0":
        recs.problems.append(f"{where}: action {rec.get('action')} tie {rec.get('tie')}, "
                             f"expected action {want} (margin {margin:.3g})")


def check_counterfactual(ranges: dict, gamma: dict, criterion: str, text: str,
                         tol: float = PRINT_TOL) -> list[str]:
    """A cf-* decision report against gain intervals over the given p ranges.

    ``ranges[l] = (p_lo, p_hi, m1, m0)``.  ``tol`` is how far the printed gain
    interval may sit from the one those ranges give.
    """
    d = delta(gamma)
    recs = _Records(text, {"decision": ("level",)})
    for l, (p_lo, p_hi, m1, m0) in ranges.items():
        rec = recs.get("decision", l)
        if rec is None:
            continue
        d_lo, d_hi = gain_interval(d, p_lo, p_hi, m1, m0)
        g_lo, g_hi = _num(rec, "gain_lo"), _num(rec, "gain_hi")
        if not (_close(g_lo, d_lo, tol) and _close(g_hi, d_hi, tol)):
            recs.problems.append(f"level {l}: gain interval [{g_lo}, {g_hi}] vs "
                                 f"[{d_lo:.9f}, {d_hi:.9f}]")
        # The rule is applied to the printed interval.
        if criterion == "cf-point":
            _value(recs, 0.5 * (g_lo + g_hi), "decision", l, field="gain", tol=2 * PRINT_TOL)
            _check_action(recs, rec, f"level {l}", 0.5 * (g_lo + g_hi))
        elif criterion == "cf-minimax-regret":
            r1, r0 = max(0.0, -g_lo), max(0.0, g_hi)
            _value(recs, r1, "decision", l, field="regret_a1", tol=2 * PRINT_TOL)
            _value(recs, r0, "decision", l, field="regret_a0", tol=2 * PRINT_TOL)
            _check_action(recs, rec, f"level {l}", r0 - r1)
        elif criterion == "cf-maximin":
            _check_action(recs, rec, f"level {l}", g_lo)
        elif criterion == "cf-bayes":
            # Uniform prior and an affine gain: the mean is the midpoint.
            _value(recs, 0.5 * (g_lo + g_hi), "decision", l, field="gain_mean",
                   tol=2 * PRINT_TOL)
            _check_action(recs, rec, f"level {l}", 0.5 * (g_lo + g_hi))
        else:
            recs.problems.append(f"no rule for criterion {criterion!r}")
    recs.expect_count(len(ranges))
    return recs.problems


def check_decide_law(law, gamma: dict, criterion: str, fused: bool, text: str) -> list[str]:
    ranges = {}
    for lv in law.levels:
        m1, m0 = lv.mean(1), lv.mean(0)
        lo, hi = (law_p_range(lv) if fused else experimental_interval(m1, m0))
        ranges[lv.label] = (lo, hi, m1, m0)
    problems = check_counterfactual(ranges, gamma, criterion, text)
    if criterion == "cf-point":
        for lv in law.levels:
            lo, hi, m1, m0 = ranges[lv.label]
            d_lo, d_hi = gain_interval(delta(gamma), lo, hi, m1, m0)
            if d_hi - d_lo > 1e-9:
                problems.append(f"level {lv.label}: a gain-equal table left the gain "
                                f"unidentified ({d_lo:.6g}, {d_hi:.6g})")
    return problems


def check_interventionist(law, mu: dict, text: str) -> list[str]:
    """Intention-aware outcome-level choice: argmax of E[mu(Y^a, a) | A*, l]."""
    recs = _Records(text, {"decision": ("level", "astar")})
    for lv in law.levels:
        for astar in (0, 1):
            eu = {a: mu[(1, a)] * lv.cond_mean(a, astar)
                  + mu[(0, a)] * (1.0 - lv.cond_mean(a, astar)) for a in (0, 1)}
            _value(recs, eu[1], "decision", lv.label, astar, field="eu_a1")
            _value(recs, eu[0], "decision", lv.label, astar, field="eu_a0")
            rec = recs.get("decision", lv.label, astar)
            if rec is not None:
                _check_action(recs, rec, f"level {lv.label} a*={astar}", eu[1] - eu[0])
    recs.expect_count(2 * len(law.levels))
    return recs.problems


def check_compare(law, gamma: dict, text: str) -> list[str]:
    """Policy values at the true law under survival preferences, and a non-negative excess."""
    recs = _Records(text, {"compare": ()})
    rec = recs.get("compare")
    recs.expect_count(1)
    if rec is None:
        return recs.problems
    d = delta(gamma)
    cf_value = int_value = 0.0
    decided = True
    for lv in law.levels:
        m = {a: lv.mean(a) for a in (0, 1)}
        eu = {a: SURVIVAL_MU[(1, a)] * m[a] + SURVIVAL_MU[(0, a)] * (1.0 - m[a]) for a in (0, 1)}
        cf_margin = gain(d, lv.marginal())
        decided = decided and abs(eu[1] - eu[0]) > MARGIN and abs(cf_margin) > MARGIN
        int_value += lv.p_level * m[1 if eu[1] > eu[0] else 0]
        cf_value += lv.p_level * m[1 if cf_margin > 0 else 0]
    excess = _num(rec, "excess")
    if not excess >= -PRINT_TOL:
        recs.problems.append(f"negative excess {rec.get('excess')}")
    if not _close(excess, _num(rec, "cf_value") - _num(rec, "int_value"), 2 * PRINT_TOL):
        recs.problems.append("excess is not cf_value - int_value")
    if decided:
        _value(recs, cf_value, "compare", field="cf_value")
        _value(recs, int_value, "compare", field="int_value")
    return recs.problems


# ---------------------------------------------------------------------------
# Data mode
# ---------------------------------------------------------------------------

def check_csv(law, n: int, seed: int, head: list[str], line_counts: dict) -> list[str]:
    """A sampled dataset: seed comment, header, row count and cell frequencies.

    ``head`` holds the first two lines; ``line_counts`` maps every later line
    to its count.  Each cell frequency must lie within ``Z`` binomial standard
    errors of the cell probability the law pushes forward.
    """
    problems = []
    if head[:2] != [f"# pcg64 seed={seed} n={n}", "R,L,A,Y"]:
        problems.append(f"unexpected leading lines {head[:2]!r}")
    rows = sum(line_counts.values())
    if rows != n:
        problems.append(f"{rows} data rows, expected {n}")
    probs = law.cell_probs()
    known = {f"{r},{l},{a},{y}": (l, r, y, a) for (l, r, y, a) in probs}
    for line in line_counts:
        if line not in known:
            problems.append(f"unexpected row {line!r}")
    for line, key in known.items():
        p = probs[key]
        freq = line_counts.get(line, 0) / n
        bound = Z * math.sqrt(p * (1.0 - p) / n) if 0.0 < p < 1.0 else 0.0
        if abs(freq - p) > bound:
            problems.append(f"cell {key}: frequency {freq:.6f} vs probability {p:.6f} "
                            f"(allowed {bound:.2g})")
    return problems


def plug_in(counts: dict, label: str) -> tuple[float, float, dict, dict]:
    """Trial means, observational cells and group sizes at one level, from the counts."""
    m = {a: counts[(label, 1, 1, a)] / (counts[(label, 1, 0, a)] + counts[(label, 1, 1, a)])
         for a in (0, 1)}
    n_obs = sum(counts[(label, 0, y, a)] for y, a in CELLS)
    obs = {(y, a): counts[(label, 0, y, a)] / n_obs for y, a in CELLS}
    sizes = {a: counts[(label, 1, 0, a)] + counts[(label, 1, 1, a)] for a in (0, 1)}
    sizes["obs"] = n_obs
    return m[1], m[0], obs, sizes


def sampling_tol(sizes: dict) -> float:
    """``Z`` standard errors of a sum of two arm means and one observational cell sum.

    Every term of the closed-form bounds is such a sum; 0.5/sqrt(n) bounds the
    standard error of a frequency over a group of n rows.
    """
    return Z * sum(0.5 / math.sqrt(sizes[k]) for k in (1, 0, "obs"))


def check_identify_data(counts: dict, labels, text: str) -> list[str]:
    """Experimental means and P(A*=1|l) equal the frequencies of the written counts."""
    recs = _Records(text, {"exp_mean": ("level", "a"), "ate": ("level",),
                           "p_astar": ("level",), "fused_mean": ("level", "a", "astar"),
                           "att": ("level",), "atu": ("level",)})
    for l in labels:
        m1, m0, obs, _ = plug_in(counts, l)
        _value(recs, m1, "exp_mean", l, 1)
        _value(recs, m0, "exp_mean", l, 0)
        _value(recs, m1 - m0, "ate", l)
        _value(recs, obs[(0, 1)] + obs[(1, 1)], "p_astar", l)
    recs.expect_count(10 * len(labels))
    return recs.problems


def data_ranges(law, counts: dict, cli_tol: float) -> tuple[dict, dict]:
    """Per level: the law's closed-form fused range, and how far a data estimate may stray.

    The allowance is the sampling tolerance of the written counts plus the
    model-compatibility slack ``--tol`` the command was given.
    """
    ranges, allow = {}, {}
    for lv in law.levels:
        lo, hi = law_p_range(lv)
        ranges[lv.label] = (lo, hi, lv.mean(1), lv.mean(0))
        allow[lv.label] = sampling_tol(plug_in(counts, lv.label)[3]) + cli_tol
    return ranges, allow


def check_bounds_data(law, counts: dict, cli_tol: float, text: str) -> list[str]:
    recs = _Records(text, {"stratum_bound": ("level", "s"), "lower_bound_s1": ("level",),
                           "p_range": ("level",)})
    ranges, allow = data_ranges(law, counts, cli_tol)
    for l, (lo, hi, _m1, _m0) in ranges.items():
        m1, m0, obs, _ = plug_in(counts, l)
        factual = obs[(1, 1)] + obs[(1, 0)]
        _value(recs, max(0.0, m1 - m0, factual - m0, m1 - factual), "lower_bound_s1", l)
        _value(recs, lo, "p_range", l, field="lo", tol=allow[l])
        _value(recs, hi, "p_range", l, field="hi", tol=allow[l])
        rec = recs.get("p_range", l)
        if rec is None:
            continue
        plo, phi = _num(rec, "lo"), _num(rec, "hi")
        exp_lo, exp_hi = experimental_interval(m1, m0)
        if not exp_lo - PRINT_TOL <= plo <= phi <= exp_hi + PRINT_TOL:
            recs.problems.append(f"level {l}: range [{plo}, {phi}] escapes the experimental "
                                 f"interval [{exp_lo:.6f}, {exp_hi:.6f}]")
        # The stratum intervals project the printed range, itself rounded to print precision.
        for s, (slo, shi) in zip(STRATA, stratum_intervals(plo, phi, m1, m0)):
            _value(recs, slo, "stratum_bound", l, s, field="lo", tol=2 * PRINT_TOL)
            _value(recs, shi, "stratum_bound", l, s, field="hi", tol=2 * PRINT_TOL)
    recs.expect_count(6 * len(ranges))
    return recs.problems


def check_decide_data(law, counts: dict, cli_tol: float, gamma: dict, criterion: str,
                      text: str) -> list[str]:
    ranges, allow = data_ranges(law, counts, cli_tol)
    # The gain moves by at most sum|delta| per unit of p, m1 and m0 together.
    scale = 2.0 * sum(abs(x) for x in delta(gamma))
    return check_counterfactual(ranges, gamma, criterion, text,
                                tol=scale * max(allow.values()))


# ---------------------------------------------------------------------------
# Verification sweeps
# ---------------------------------------------------------------------------

def check_verify(props: list[str], trials: int, text: str) -> list[str]:
    recs = _Records(text, {"verify": ("prop",)})
    for prop in props:
        rec = recs.get("verify", prop)
        if rec is not None and (rec.get("passes"), rec.get("trials")) != (str(trials), str(trials)):
            recs.problems.append(f"{prop}: {rec.get('passes')}/{rec.get('trials')} pass")
    recs.expect_count(len(props))
    return recs.problems
