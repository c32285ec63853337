"""Treatment selection under outcome-level and stratum-level utilities.

Outcome-level ("interventionist") choice is an argmax of expected utility
over identified means, per feature tuple; the feature space is either the
level alone or the level plus the intention variable when fused means are
available.

Stratum-level ("counterfactual") choice works on the treatment gain

    Delta(p) = sum_s delta(s) * family(p)_s

which is affine in the free parameter ``p`` of the identified family, so
over ``p in [p_lo, p_hi]`` it spans ``[d_lo, d_hi]`` with the extremes at
the endpoints.  Four criteria resolve the remaining ambiguity:

* ``cf-point``: requires the gain to be identified (degenerate interval,
  which gain-equal tables guarantee); treats iff the gain is positive.
* ``cf-minimax-regret``: worst-case regret of treating is ``max(0, -d_lo)``
  and of withholding is ``max(0, d_hi)``; treats iff ``d_hi > -d_lo``.
* ``cf-maximin``: treats iff the worst-case gain ``d_lo`` is positive.
* ``cf-bayes``: treats iff the gain averaged over a uniform prior on
  ``p`` over the feasible range is positive; the gain is affine in ``p``,
  so that average is the gain at the midpoint of the range.

Every tie breaks to withholding (action 0) and is flagged in the report.
Decisions are invariant to positive affine rescaling of the stratum table,
since ``delta`` only scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .bounds import StrataBounds, true_bounds
from .errors import NotPointIdentifiedError, PartialPolicyError
from .identify import IdentifiedMeans
from .laws import FullLaw
from .utility import UtilitySpec, expected_int_utility

CRITERIA = ("interventionist", "cf-point", "cf-minimax-regret", "cf-maximin", "cf-bayes")

#: Comparisons within this slack count as ties (and break to action 0).
TIE_TOL = 1e-12


@dataclass(frozen=True)
class DecisionCell:
    """Decision detail for one feature tuple: ``(level,)`` or ``(level, astar)``."""

    features: tuple
    action: int
    values: Mapping[str, float]
    regret: Mapping[int, float] | None
    tie: bool


@dataclass(frozen=True)
class DecisionReport:
    criterion: str
    cells: tuple[DecisionCell, ...]


@dataclass(frozen=True)
class Policy:
    """Deterministic action per feature tuple.

    Keys are ``(level,)``, or ``(level, astar)`` when ``uses_astar``.
    """

    assignments: Mapping[tuple, int]
    uses_astar: bool

    def action(self, l: str, astar: int | None = None) -> int:
        key = (l, astar) if self.uses_astar else (l,)
        if key not in self.assignments:
            raise PartialPolicyError(f"policy has no action for features {key!r}")
        return self.assignments[key]


def _policy_from_report(report: DecisionReport, uses_astar: bool) -> Policy:
    return Policy({c.features: c.action for c in report.cells}, uses_astar)


# ---------------------------------------------------------------------------
# Outcome-level choice
# ---------------------------------------------------------------------------

def interventionist_report(means: IdentifiedMeans, spec: UtilitySpec,
                           use_astar: bool = False) -> DecisionReport:
    if use_astar and not means.has_fused:
        raise ValueError("intention-aware choice requires fused means")
    levels = sorted({l for (l, _a) in means.exp})
    cells = []
    if use_astar:
        feature_tuples = [(l, astar) for l in levels for astar in (0, 1)]
    else:
        feature_tuples = [(l,) for l in levels]
    for features in feature_tuples:
        if use_astar:
            l, astar = features
            eu = {a: expected_int_utility(spec, a, means.fused_mean(l, a, astar))
                  for a in (0, 1)}
        else:
            (l,) = features
            eu = {a: expected_int_utility(spec, a, means.exp_mean(l, a)) for a in (0, 1)}
        tie = abs(eu[1] - eu[0]) <= TIE_TOL
        action = 1 if eu[1] > eu[0] + TIE_TOL else 0
        cells.append(DecisionCell(features=features, action=action,
                                  values={"eu_a1": eu[1], "eu_a0": eu[0]},
                                  regret=None, tie=tie))
    return DecisionReport(criterion="interventionist", cells=tuple(cells))


def interventionist_policy(means: IdentifiedMeans, spec: UtilitySpec,
                           use_astar: bool = False) -> Policy:
    return _policy_from_report(interventionist_report(means, spec, use_astar), use_astar)


# ---------------------------------------------------------------------------
# Stratum-level choice
# ---------------------------------------------------------------------------

def _gain_at(bounds: StrataBounds, spec: UtilitySpec, p: float) -> float:
    """Treatment gain of the family member with ``P(S=1|l) = p``."""
    return sum(di * pi for di, pi in zip(spec.delta, bounds.family(p)))


def gain_interval(bounds: StrataBounds, spec: UtilitySpec) -> tuple[float, float]:
    """Range of the treatment gain over the identified family."""
    at_lo = _gain_at(bounds, spec, bounds.p_lo)
    at_hi = _gain_at(bounds, spec, bounds.p_hi)
    return min(at_lo, at_hi), max(at_lo, at_hi)


def counterfactual_cell(bounds: StrataBounds, spec: UtilitySpec, criterion: str) -> DecisionCell:
    """Decide one level from its stratum bounds under the given criterion."""
    d_lo, d_hi = gain_interval(bounds, spec)
    values: dict[str, float] = {"gain_lo": d_lo, "gain_hi": d_hi}
    regret: dict[int, float] | None = None

    if criterion == "cf-point":
        if d_hi - d_lo > max(TIE_TOL, 1e-9):
            raise NotPointIdentifiedError(
                f"treatment gain at level {bounds.level!r} is only bounded to "
                f"[{d_lo:.6g}, {d_hi:.6g}]; a point decision is not identified")
        gain = 0.5 * (d_lo + d_hi)
        values["gain"] = gain
        tie = abs(gain) <= TIE_TOL
        action = 1 if gain > TIE_TOL else 0
    elif criterion == "cf-minimax-regret":
        regret = {1: max(0.0, -d_lo), 0: max(0.0, d_hi)}
        tie = abs(regret[1] - regret[0]) <= TIE_TOL
        action = 1 if regret[1] < regret[0] - TIE_TOL else 0
    elif criterion == "cf-maximin":
        tie = abs(d_lo) <= TIE_TOL
        action = 1 if d_lo > TIE_TOL else 0
    elif criterion == "cf-bayes":
        # the mean of the affine gain under a uniform prior on p
        if bounds.p_hi - bounds.p_lo <= TIE_TOL:
            avg = d_lo
        else:
            avg = _gain_at(bounds, spec, 0.5 * (bounds.p_lo + bounds.p_hi))
        values["gain_mean"] = avg
        tie = abs(avg) <= TIE_TOL
        action = 1 if avg > TIE_TOL else 0
    else:
        raise ValueError(f"unknown counterfactual criterion {criterion!r}")

    return DecisionCell(features=(bounds.level,), action=action, values=values,
                        regret=regret, tie=tie)


def counterfactual_report(bounds: StrataBounds | Mapping[str, StrataBounds],
                          spec: UtilitySpec, criterion: str) -> DecisionReport:
    if isinstance(bounds, StrataBounds):
        bounds = {bounds.level: bounds}
    cells = tuple(counterfactual_cell(bounds[l], spec, criterion) for l in sorted(bounds))
    return DecisionReport(criterion=criterion, cells=cells)


def counterfactual_policy(bounds: StrataBounds | Mapping[str, StrataBounds],
                          spec: UtilitySpec, criterion: str) -> Policy:
    return _policy_from_report(counterfactual_report(bounds, spec, criterion), uses_astar=False)


# ---------------------------------------------------------------------------
# Policy evaluation at a known full law
# ---------------------------------------------------------------------------

def policy_value(law: FullLaw, policy: Policy) -> float:
    """``P(Y=1)`` when the population is treated according to ``policy``.

    Enumerates the ``(level, intention)`` cells; the policy must cover the
    law's whole feature space.
    """
    total = 0.0
    for l in law.levels:
        for astar in (0, 1):
            w = law.p_level[l] * (law.p_astar[l] if astar == 1 else 1.0 - law.p_astar[l])
            a = policy.action(l, astar)
            total += w * law.potential_mean_given_astar(a, astar, l)
    return total


def true_law_policies(law: FullLaw, cf_spec: UtilitySpec, int_spec: UtilitySpec,
                      criterion: str = "cf-point") -> tuple[Policy, Policy]:
    """Both policies computed at the true law: (stratum-level, outcome-level).

    The stratum-level policy sees the exact stratum distribution, where
    every criterion coincides; the outcome-level policy sees the true
    means.
    """
    exp_means = {(l, a): law.potential_mean(a, l) for l in law.levels for a in (0, 1)}
    means = IdentifiedMeans(exp=exp_means, fused=None, p_astar=None)
    int_policy = interventionist_policy(means, int_spec, use_astar=False)
    cf_policy = counterfactual_policy({l: true_bounds(law, l) for l in law.levels},
                                      cf_spec, criterion)
    return cf_policy, int_policy


def excess_outcome(law: FullLaw, cf_spec: UtilitySpec, int_spec: UtilitySpec,
                   criterion: str = "cf-point") -> float:
    """Extra outcome mass (deaths, when Y=1 is death) from deciding by strata.

    The difference of the two true-law policies' population outcomes.  It
    is non-negative whenever ``int_spec`` ranks actions by survival,
    because the outcome-level argmax is then the unconstrained minimizer.
    """
    cf_policy, int_policy = true_law_policies(law, cf_spec, int_spec, criterion)
    return policy_value(law, cf_policy) - policy_value(law, int_policy)
