"""Sharp partial identification of principal-stratum probabilities.

Experimental data alone fix the two outcome margins

    m1 = P(Y=1 under a=1 | l) = P(S=1|l) + P(S=3|l)
    m0 = P(Y=1 under a=0 | l) = P(S=2|l) + P(S=3|l)

so the whole stratum distribution is a one-parameter family in
``p = P(S=1|l)``:

    (P(S=1), P(S=2), P(S=3), P(S=4)) = (p, p - (m1 - m0), m1 - p, 1 - m0 - p)

Non-negativity of the four coordinates yields the classical interval

    p in [max(0, m1 - m0), min(m1, 1 - m0)]

which collapses to a point whenever either margin is 0 or 1 (an outcome
predicted with certainty in one arm).

Adding the observational block tightens the lower endpoint.  The closed
form retained here is the four-term maximum

    max{ 0,  m1 - m0,  P(Y=1|l,R=0) - m0,  m1 - P(Y=1|l,R=0) }

Two further candidate terms built from the trial-block marginal
``P(Y=1|l,R=1)`` are provably redundant: that marginal is a convex
combination of the two arm means, so those differences never exceed
``max(0, m1 - m0)``.  Tests assert the redundancy rather than carrying the
terms.

:func:`fused_bounds` takes both endpoints from the fused constraint
system itself.  Write ``O_ya = P(Y=y, A=a | l, R=0)`` and split
``p = x + z`` with ``x = P(S=1, A*=1 | l)`` and ``z = P(S=1, A*=0 | l)``.
The eight joint cells ``P(S=s, A*=a | l)`` then move with ``x`` or with
``z`` alone, so the identified set is a rectangle bounded by lines

    x >= {0, O10 + O11 - m0}      x <= {O11, O01 + O10 + O11 - m0}
    z >= {0, m1 - O10 - O11}      z <= {O00, m1 - O11}

(Tian & Pearl, 2000).  The right-hand sides are used as given (the
observational block need not sum to exactly 1).  Slack ``tol`` absorbs
input noise: a root ``c`` of one of a variable's lines counts when each
of that variable's other lines holds at ``c`` within ``tol``, that is,
in the window ``max(lower) - tol <= c <= min(upper) + tol``.
The range of ``p`` is the sum of the counted extremes, and a window that
counts nothing means the blocks are incompatible.  The arithmetic is
exact: every input float, and ``tol``, is an integer at one power-of-two
scale, and the final ``int / int`` rounds correctly.  The exact
vertex-enumeration LP in :mod:`harmbounds.verify` computes the same range
independently and serves as the oracle for both endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import IncompatibleLawsError
from .identify import DEFAULT_TOL, check_tol, exp_potential_mean
from .laws import FullLaw, ObservedLaw, check_stratum, stratum_margins

_SOURCES = ("experimental-only", "fused", "true-law")


@dataclass(frozen=True)
class StrataBounds:
    """Interval identification of the stratum distribution at one level.

    The feasible set is the one-parameter family above restricted to
    ``p in [p_lo, p_hi]``; per-stratum intervals are its coordinate
    projections.  ``source`` records which data produced the range.
    """

    level: str
    p_y1: float
    p_y0: float
    p_lo: float
    p_hi: float
    source: str

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise ValueError(f"unknown bounds source {self.source!r}")
        if self.p_lo > self.p_hi + 1e-12:
            raise IncompatibleLawsError(
                f"empty identified set at level {self.level!r}: "
                f"p range [{self.p_lo:.6g}, {self.p_hi:.6g}]")

    @property
    def ate(self) -> float:
        return self.p_y1 - self.p_y0

    def family(self, p: float) -> tuple[float, float, float, float]:
        """Stratum distribution at parameter value ``p``."""
        return (p, p - self.ate, self.p_y1 - p, 1.0 - self.p_y0 - p)

    def interval(self, s: int) -> tuple[float, float]:
        """``[lo, hi]`` for ``P(S=s|l)``: the coordinate's range over the family."""
        check_stratum(s)
        lo, hi = sorted((self.family(self.p_lo)[s - 1], self.family(self.p_hi)[s - 1]))
        return _clamp01(lo), _clamp01(hi)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def family_bounds(level: str, p_y1: float, p_y0: float, p_lo: float, p_hi: float,
                  source: str) -> StrataBounds:
    """Build bounds from margins and a feasible parameter range, clamped to the family."""
    ate = p_y1 - p_y0
    lo_feas = max(0.0, ate)
    hi_feas = min(p_y1, 1.0 - p_y0)
    return StrataBounds(level=level, p_y1=p_y1, p_y0=p_y0,
                        p_lo=max(p_lo, lo_feas), p_hi=min(p_hi, hi_feas),
                        source=source)


def exp_bounds(obs: ObservedLaw, l: str) -> StrataBounds:
    """Sharp bounds from the trial block alone."""
    p_y1 = exp_potential_mean(obs, 1, l)
    p_y0 = exp_potential_mean(obs, 0, l)
    return family_bounds(l, p_y1, p_y0, 0.0, 1.0, source="experimental-only")


def true_bounds(law: FullLaw, l: str) -> StrataBounds:
    """Degenerate bounds at the true stratum distribution of a full law."""
    p_y1, p_y0, _ = stratum_margins(law, l)
    p = law.strata_marginal(l)[0]
    return StrataBounds(level=l, p_y1=p_y1, p_y0=p_y0, p_lo=p, p_hi=p, source="true-law")


def fused_lower_bound_s1(obs: ObservedLaw, l: str) -> float:
    """Closed-form lower bound on ``P(S=1|l)`` using both data blocks."""
    p_y1 = exp_potential_mean(obs, 1, l)
    p_y0 = exp_potential_mean(obs, 0, l)
    factual = obs.p_y(l, r=0)
    return max(0.0, p_y1 - p_y0, factual - p_y0, p_y1 - factual)


def fused_bounds(obs: ObservedLaw, l: str, tol: float = DEFAULT_TOL) -> StrataBounds:
    """Sharp bounds from both blocks: ``p = x + z`` over the two windows above."""
    check_tol(tol)
    p_y1 = exp_potential_mean(obs, 1, l)
    p_y0 = exp_potential_mean(obs, 0, l)
    cells = (obs.p_joint(y, a, l, 0) for y, a in ((0, 0), (0, 1), (1, 0), (1, 1)))
    # Exact integers at the least common denominator: for floats, the largest power of two.
    ratios = [v.as_integer_ratio() for v in (p_y1, p_y0, *cells, tol)]
    scale = lcm(*(d for _, d in ratios))
    m1, m0, o00, o01, o10, o11, t = (n * (scale // d) for n, d in ratios)
    xs = _counted_roots((0, o10 + o11 - m0), (o11, o01 + o10 + o11 - m0), t)
    zs = _counted_roots((0, m1 - o10 - o11), (o00, m1 - o11), t)
    if not xs or not zs:
        raise IncompatibleLawsError("incompatible observed law: the constraint polytope is empty")
    return family_bounds(l, p_y1, p_y0, (min(xs) + min(zs)) / scale,
                         (max(xs) + max(zs)) / scale, source="fused")


def _counted_roots(lower: tuple[int, int], upper: tuple[int, int], tol: int) -> list[int]:
    """Roots of a variable's bounding lines that every other line admits within ``tol``.

    These are the variable's values at the vertices of the fused polytope.
    """
    (lo0, lo1), (hi0, hi1) = lower, upper
    top, bottom = max(lower) - tol, min(upper) + tol
    return ([c for c, other in ((lo0, lo1), (lo1, lo0)) if other - tol <= c <= bottom]
            + [c for c, other in ((hi0, hi1), (hi1, hi0)) if top <= c <= other + tol])
