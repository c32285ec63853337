"""Identification of potential-outcome means from observed data.

Two regimes of input:

* experimental only: within the trial block, randomization makes the arms
  exchangeable, so ``E[Y^a | l] = P(Y=1 | A=a, l, R=1)``;
* fused: adding the observational block identifies intention-specific
  means ``E[Y^a | A*=a*, l]``.  When assignment agrees with intention the
  observational block reports the mean directly.  When they disagree, the
  marginal experimental mean is a mixture over intention groups, the
  agreeing group's joint contribution is observed, and the remaining term
  is solved for:

      E[Y^a | A*=1-a, l] = (P(Y=1|A=a,l,R=1) - P(Y=1,A=a|l,R=0))
                           / P(A=1-a | l, R=0)

The fusion step leans on the push-forward assumptions in
:mod:`harmbounds.laws` (shared strata law across ``R``, intention equal to
received treatment outside the trial).  Inputs that jointly violate them
surface as ratios outside ``[0, 1]`` and raise
:class:`~harmbounds.errors.IncompatibleLawsError`; values within ``tol``
of the boundary are clamped, since plug-in estimates never satisfy the
model exactly.  The solved-for mean divides a difference of
probabilities by ``P(A=1-a | l, R=0)``, so its rounding error grows like
``2**-50 / P(A=1-a | l, R=0)``; when that exceeds ``tol`` the group is
refused with :class:`~harmbounds.errors.PositivityError` rather than
answered imprecisely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import IncompatibleLawsError, PositivityError
from .laws import ObservedLaw, _check_action

#: Default slack for the model-compatibility check on fused ratios.
DEFAULT_TOL = 1e-9


def check_tol(tol: float) -> None:
    """Refuse a slack ``tol`` that is not a finite, non-negative number."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be finite and non-negative")


def exp_potential_mean(obs: ObservedLaw, a: int, l: str) -> float:
    """``E[Y^a | L=l]`` from the trial block alone, which must have participants."""
    _check_action(a)
    if l in obs.p_r1 and obs.p_r1[l] <= 0.0:
        raise PositivityError(f"empty block (level {l!r}, R=1)")
    return obs.p_y_given_a(a, l, r=1)


def fused_potential_mean(obs: ObservedLaw, a: int, astar: int, l: str,
                         tol: float = DEFAULT_TOL) -> float:
    """``E[Y^a | A*=astar, L=l]`` from the fused trial + observational blocks."""
    check_tol(tol)
    _check_action(a)
    _check_action(astar, "astar")
    p_group = obs.p_a(astar, l, r=0)
    if p_group <= 0.0:
        raise PositivityError(f"empty intention group: level {l!r}, A*={astar}")
    if a == astar:
        # Intention equals assignment outside the trial, so this is direct.
        return obs.p_joint(1, a, l, 0) / p_group
    # The difference below carries an absolute rounding error of a few
    # units of 2**-52, which the division scales by 1 / p_group.
    error = 2.0 ** -50 / p_group
    if error > tol:
        raise PositivityError(
            f"cannot fuse within tol {tol:g}: intention group level {l!r}, A*={astar} has "
            f"probability {p_group:.3g}, so rounding error may reach {error:.3g}")
    marginal = exp_potential_mean(obs, a, l)
    raw = (marginal - obs.p_joint(1, a, l, 0)) / p_group
    if raw < -tol or raw > 1.0 + tol:
        raise IncompatibleLawsError(
            f"fused mean E[Y^{a} | A*={astar}, level {l!r}] = {raw:.6g} falls outside [0, 1]; "
            "the trial and observational blocks are incompatible with the fusion assumptions")
    return min(1.0, max(0.0, raw))


def att_atu(obs: ObservedLaw, l: str, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Treatment effects within the treated (``A*=1``) and untreated (``A*=0``) intention groups."""
    att = (fused_potential_mean(obs, 1, 1, l, tol)
           - fused_potential_mean(obs, 0, 1, l, tol))
    atu = (fused_potential_mean(obs, 1, 0, l, tol)
           - fused_potential_mean(obs, 0, 0, l, tol))
    return att, atu


@dataclass(frozen=True)
class IdentifiedMeans:
    """Identified potential-outcome means, optionally intention-specific.

    ``exp[(l, a)]`` holds ``E[Y^a | l]``; when present, ``fused[(l, a, astar)]``
    holds ``E[Y^a | A*=astar, l]`` and ``p_astar[l]`` the observational
    ``P(A*=1 | l)``; both are ``None`` when the means come from the trial
    block alone, which :attr:`has_fused` reports.
    """

    exp: Mapping[tuple[str, int], float]
    fused: Mapping[tuple[str, int, int], float] | None
    p_astar: Mapping[str, float] | None

    def exp_mean(self, l: str, a: int) -> float:
        return self.exp[(l, a)]

    def fused_mean(self, l: str, a: int, astar: int) -> float:
        if self.fused is None:
            raise ValueError("these means were identified without the observational block")
        return self.fused[(l, a, astar)]

    def ate(self, l: str) -> float:
        return self.exp[(l, 1)] - self.exp[(l, 0)]

    @property
    def has_fused(self) -> bool:
        return self.fused is not None


def identified_means(obs: ObservedLaw, fuse: bool = False,
                     tol: float = DEFAULT_TOL) -> IdentifiedMeans:
    """Identify means for every level of ``obs``; with ``fuse`` also per intention group.

    Verifies the mixture identity
    ``sum_a* E[Y^a|A*=a*,l] P(A*=a*|l) = E[Y^a|l]`` on the fused block
    (up to clamping slack) before returning.
    """
    check_tol(tol)
    exp: dict[tuple[str, int], float] = {}
    for l in obs.levels:
        for a in (0, 1):
            value = exp_potential_mean(obs, a, l)
            if not 0.0 <= value <= 1.0:
                raise IncompatibleLawsError(f"mean E[Y^{a} | {l!r}] = {value:g} outside [0, 1]")
            exp[(l, a)] = value
    if not fuse:
        return IdentifiedMeans(exp=exp, fused=None, p_astar=None)

    fused: dict[tuple[str, int, int], float] = {}
    p_astar: dict[str, float] = {}
    for l in obs.levels:
        p_astar[l] = obs.p_a(1, l, r=0)
        for a in (0, 1):
            for astar in (0, 1):
                fused[(l, a, astar)] = fused_potential_mean(obs, a, astar, l, tol)
            mix = (fused[(l, a, 1)] * p_astar[l]
                   + fused[(l, a, 0)] * (1.0 - p_astar[l]))
            if abs(mix - exp[(l, a)]) > max(DEFAULT_TOL, 2.0 * tol):
                raise IncompatibleLawsError(
                    f"law of total probability fails for E[Y^{a} | {l!r}]: "
                    f"mixture {mix:.6g} vs marginal {exp[(l, a)]:.6g}")
    return IdentifiedMeans(exp=exp, fused=fused, p_astar=p_astar)
