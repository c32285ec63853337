"""Brute-force verification sweeps over random laws.

One driver (:func:`run_sweeps`) builds each trial's random full law once,
pushes it forward once if a requested property reads the observed law,
and runs each requested property's per-trial check on them.  A check tests
a claimed identity or inequality against direct enumeration (drawing
random regimes where needed) and returns a failure message or ``None``.
The sweeps are deterministic in their seed.  They share per-law work: the
law keeps its derived means, ``s3`` draws all of a law's regimes in one
call and values each from one table of the law's weighted cells, and
``sharpness`` reads all four stratum ranges off one vertex enumeration.

``s3`` and ``s4`` check the treatment regimes defined here: for any rule
``g``, measurable in the level, the intention and the stratum (plus
exogenous noise),

    E[Y under a=1] - E[Y under g]

is a valid lower bound for ``P(S=1)``, and for rules driven by noise
alone it equals the never-treat contrast scaled by ``P(g assigns 0)``,
exactly.  ``s5`` checks :func:`improvement_test` against the fused bound.

``s4`` additionally hunts for a counterexample to the *unclipped* claim
"the never-treat effect dominates every noise-only regime effect": the
exact product identity makes that claim false whenever the never-treat
effect is negative, and the sweep reports one concrete instance, while
verifying the clipped form that survives.

``sharpness`` checks the closed forms of :mod:`harmbounds.bounds`, both
endpoints of the fused interval included, against the exact
vertex-enumeration LP defined here (:func:`polytope_vertices`), which the
package uses nowhere else.  Each of the LP's two fixed 0/1 constraint
structures is eliminated once, by Gauss-Jordan over ``Fraction``, into
distinct integer rows, compiled into one straight-line function of the
right-hand side, with each basis an index per cell into the values it
returns.  Each call then runs in plain integers: it scales its float
inputs to integers at their largest power-of-two denominator, calls that
function once, reads each vertex off by index and divides once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .bounds import exp_bounds, fused_bounds, fused_lower_bound_s1
from .errors import IncompatibleLawsError
from .identify import DEFAULT_TOL, att_atu, check_tol, exp_potential_mean, fused_potential_mean
from .laws import (STRATA, STRATUM_OUTCOMES, FullLaw, ObservedLaw, check_stratum,
                   observed_from_full, potential_outcome, stratum_margins)
from .simulate import random_law

MAX_FAILURES = 5
#: ``run_sweeps`` draws its law seeds this many at a time, so memory does not grow with ``trials``.
_SEED_BLOCK = 4096

#: Intention-group effects within this of zero are sign ties, which ``s5`` skips.
S5_TIE_TOL = 1e-9
#: Allowed disagreement between the LP oracle and the closed forms in ``sharpness``.
SHARPNESS_TOL = 1e-9
#: Allowed error of a fused mean, and of its mixture, in ``fusion``.
FUSION_TOL = 1e-12


@dataclass
class SweepResult:
    name: str
    trials: int
    passes: int
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passes == self.trials


#: One property's ``(check, notes)``: ``check(i, law, obs)`` returns a failure
#: message or ``None``, and ``notes()`` the notes after the last trial.
_Checks = tuple[Callable[[int, FullLaw, ObservedLaw | None], str | None],
                Callable[[], list[str]]]
#: property name -> ``factory(trials, seed, **options)`` of its checks
_CHECKS: dict[str, Callable[..., _Checks]] = {}
#: property name -> its one-property sweep, which takes its factory's arguments
PROPS: dict[str, Callable[..., SweepResult]] = {}
#: Properties whose checks read the trial's observed law; the others get ``None``.
_READS_OBSERVED = frozenset({"s5", "sharpness", "fusion"})


def _property(name: str) -> Callable[[Callable[..., _Checks]], Callable[..., SweepResult]]:
    """Register a check factory as property ``name`` and return its one-property sweep."""
    def register(factory: Callable[..., _Checks]) -> Callable[..., SweepResult]:
        def sweep(trials: int, seed: int, **options) -> SweepResult:
            return run_sweeps([name], trials, seed, **options)[0]

        sweep.__name__, sweep.__doc__ = factory.__name__, factory.__doc__
        _CHECKS[name], PROPS[name] = factory, sweep
        return sweep
    return register


def run_sweeps(props: Sequence[str], trials: int, seed: int, **options) -> list[SweepResult]:
    """Run the properties named in ``props`` on shared trials; one result each, in order.

    Trial ``i``'s law has ``1 + i % 3`` levels and a seed drawn from ``seed``.
    Each property keeps its own random stream, failure cap and notes, so its
    result is that of its own sweep.  ``options`` go to every check factory.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    checks = [_CHECKS[name](trials, seed, **options) for name in props]
    results = [SweepResult(name, trials, 0) for name in props]
    push_forward = not _READS_OBSERVED.isdisjoint(props)
    seed_rng = np.random.default_rng(seed)
    for i in range(trials):
        if i % _SEED_BLOCK == 0:  # blocks continue the stream one draw would give
            law_seeds = seed_rng.integers(0, 2**63, size=min(_SEED_BLOCK, trials - i))
        law = random_law(int(law_seeds[i % _SEED_BLOCK]), n_levels=1 + i % 3)
        obs = observed_from_full(law) if push_forward else None
        for (check, _), result in zip(checks, results):
            failure = check(i, law, obs)
            if failure is None:
                result.passes += 1
            elif len(result.failures) < MAX_FAILURES:
                result.failures.append(failure)
    for (_, notes), result in zip(checks, results):
        result.notes.extend(notes())
    return results


# ---------------------------------------------------------------------------
# Treatment regimes and regime-based lower bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regime:
    """A treatment rule: probability of assigning ``a=1`` per (level, intention, stratum).

    Exogenous randomization is folded into the probability; deterministic
    rules return 0 or 1.
    """

    name: str
    treat_prob: Callable[[str, int, int], float]

    @staticmethod
    def never() -> "Regime":
        return Regime("never-treat", lambda l, astar, s: 0.0)

    @staticmethod
    def factual() -> "Regime":
        """The rule generating the observational data: follow the intention."""
        return Regime("factual", lambda l, astar, s: float(astar))

    @staticmethod
    def noise(q: float) -> "Regime":
        """Treat with probability ``q`` regardless of any patient feature."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        return Regime(f"noise({q:g})", lambda l, astar, s: q)

    @staticmethod
    def from_table(name: str, table: Mapping[tuple[str, int, int], float]) -> "Regime":
        return Regime(name, lambda l, astar, s: table[(l, astar, s)])


def _regime_cells(law: FullLaw) -> list[tuple[str, int, int, float]]:
    """``(l, astar, s, P(L=l, A*=astar, S=s))`` per cell, in the order regimes enumerate them."""
    cells = []
    for l in law.levels:
        for astar in (0, 1):
            w_astar = law.p_astar[l] if astar == 1 else 1.0 - law.p_astar[l]
            block = law.p_strata[(l, astar)]
            cells.extend((l, astar, s, law.p_level[l] * w_astar * block[s - 1]) for s in STRATA)
    return cells


def _cells_value(cells: Sequence[tuple[str, int, int, float]], probs: Iterable[float]) -> float:
    """``P(Y=1)`` treating ``cells[k]`` with probability ``probs[k]``; zero weights are skipped."""
    total = 0.0
    for (_, _, s, weight), g in zip(cells, probs):
        if weight != 0.0:
            y1, y0 = STRATUM_OUTCOMES[s]
            total += weight * (g * y1 + (1.0 - g) * y0)
    return total


def regime_value(law: FullLaw, regime: Regime) -> float:
    """``P(Y=1)`` when treatment is assigned by ``regime``, by cell enumeration."""
    cells = _regime_cells(law)
    probs = []
    for l, astar, s, weight in cells:
        g = regime.treat_prob(l, astar, s) if weight != 0.0 else 0.0
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"regime {regime.name!r} returned {g!r} at ({l!r}, {astar}, {s})")
        probs.append(g)
    return _cells_value(cells, probs)


def regime_lower_bound(law: FullLaw, regime: Regime) -> float:
    """``E[Y under a=1] - E[Y under regime]``; never exceeds ``P(S=1)``.

    ``P(S=1)`` minus this quantity is exactly the mass of outcome-responsive
    strata the regime sends to their unfavorable arm (stratum 1 treated,
    stratum 2 untreated), which is non-negative for every law.
    """
    return law.marginal_potential_mean(1) - regime_value(law, regime)


def _table_lower_bound(law: FullLaw, cells: Sequence[tuple[str, int, int, float]],
                       probs: Sequence[float]) -> float:
    """:func:`regime_lower_bound` of the regime treating ``cells[k]`` with ``probs[k]``."""
    return law.marginal_potential_mean(1) - _cells_value(cells, probs)


class ImprovementResult(NamedTuple):
    improves: bool
    att: float
    atu: float


def improvement_test(obs: ObservedLaw, l: str, tol: float = DEFAULT_TOL) -> ImprovementResult:
    """Whether the observational block strictly tightens the lower bound on ``P(S=1|l)``.

    Holds exactly when the intention-group effects have strictly opposite
    signs; sign ties within ``tol`` count as no improvement.
    """
    att, atu = att_atu(obs, l, tol)
    improves = (att > tol and atu < -tol) or (att < -tol and atu > tol)
    return ImprovementResult(improves, att, atu)


@_property("s3")
def sweep_s3(trials: int, seed: int, regimes_per_law: int = 10) -> _Checks:
    """Any regime effect versus always-treat never exceeds the harm probability.

    Also cross-checks the enumeration against the mass-accounting identity
    ``effect = P(S=1) - (P(S=1, treated) + P(S=2, untreated))``.  A random
    regime treats each (level, intention, stratum) cell with the probability
    of one uniform, rounded to 0 or 1 when the uniform before them is below 1/2.
    """
    rng = np.random.default_rng(seed + 1)

    def check(i: int, law: FullLaw, obs: ObservedLaw | None) -> str | None:
        p_harm = law.marginal_stratum_prob(1)
        cells = _regime_cells(law)
        groups = [(law.p_strata[(l, astar)],
                   law.p_level[l] * (law.p_astar[l] if astar == 1 else 1.0 - law.p_astar[l]))
                  for l in law.levels for astar in (0, 1)]
        # one draw for all regimes: the same values, in order, as one draw per uniform
        draws = rng.random(regimes_per_law * (1 + len(cells))).reshape(regimes_per_law, -1)
        for row in draws:
            probs = (row[1:].round() if row[0] < 0.5 else row[1:]).tolist()
            tau_g = _table_lower_bound(law, cells, probs)
            matched = 0.0
            for (block, weight), g1, g2 in zip(groups, probs[0::4], probs[1::4]):
                matched += weight * (block[0] * g1 + block[1] * (1.0 - g2))
            if tau_g > p_harm + 1e-12:
                return f"trial {i}: effect {tau_g:.3g} exceeds P(S=1) {p_harm:.3g}"
            if abs(tau_g - (p_harm - matched)) > 1e-12:
                return f"trial {i}: mass accounting off by {tau_g - (p_harm - matched):.3g}"
        return None

    return check, lambda: []


@_property("s4")
def sweep_s4(trials: int, seed: int) -> _Checks:
    """Noise-only regimes: exact product identity and the clipped dominance."""
    rng = np.random.default_rng(seed + 1)
    counterexample: str | None = None

    def check(i: int, law: FullLaw, obs: ObservedLaw | None) -> str | None:
        nonlocal counterexample
        tau0 = law.marginal_potential_mean(1) - law.marginal_potential_mean(0)
        q = float(rng.uniform(0.0, 1.0))
        tau_g = regime_lower_bound(law, Regime.noise(q))
        if counterexample is None and tau0 < -1e-6 and q > 1e-6:
            # tau_g = tau0 (1 - q) > tau0 here, so the unclipped claim fails.
            counterexample = (f"unclipped dominance fails at trial {i}: "
                              f"tau0={tau0:.6f} < tau_g={tau_g:.6f} (noise q={q:.3f})")
        if (abs(tau_g - tau0 * (1.0 - q)) <= 1e-12
                and max(0.0, tau0) >= max(0.0, tau_g) - 1e-12):
            return None
        return f"trial {i}: tau_g={tau_g:.6g} tau0={tau0:.6g} q={q:.3g}"

    return check, lambda: [counterexample or
                           "no unclipped counterexample arose (no negative-effect law drawn)"]


@_property("s5")
def sweep_s5(trials: int, seed: int) -> _Checks:
    """Opposite-sign intention effects iff the observational block tightens the bound.

    When the signs strictly differ the tightening is at least the smaller
    effect scaled by its group probability, far above rounding; when they
    do not, the four-term bound coincides with the experimental one up to
    rounding.  Effects within ``S5_TIE_TOL`` of zero are genuine sign ties
    and are skipped.
    """
    skipped = 0

    def check(i: int, law: FullLaw, obs: ObservedLaw) -> str | None:
        nonlocal skipped
        for l in law.levels:
            test = improvement_test(obs, l, S5_TIE_TOL)
            _, _, tau0 = stratum_margins(law, l)
            gain = fused_lower_bound_s1(obs, l) - max(0.0, tau0)
            if min(abs(test.att), abs(test.atu)) <= S5_TIE_TOL:
                skipped += 1
                continue
            if test.improves != (gain > 1e-12):
                return f"trial {i} level {l}: improves={test.improves} but bound gain={gain:.3g}"
        return None

    return check, lambda: ([f"{skipped} level(s) skipped as sign ties within {S5_TIE_TOL:g}"]
                           if skipped else [])


# ---------------------------------------------------------------------------
# Linear-constraint oracle.  The identified set is the polytope of joint
# cell probabilities q(s, a) = P(S=s, A*=a | l) over the 8 cells, cut by the
# linear equalities the observed blocks impose; a linear functional attains
# its extrema at vertices, and every column basis of the system is tried.
# The two 0/1 coefficient structures are module constants, and each is
# eliminated once, by Gauss-Jordan over ``Fraction``, into rational maps
# brought to integers at their least common denominator (1 here: every
# basis inverse has entries in {-1, 0, 1}).  The maps' rows repeat across
# bases, so each distinct row is kept once and a basis is an index per cell
# into the values of those rows, plus one zero slot; the distinct rows are
# compiled once into one function returning all those values.  Per call,
# the right-hand sides and ``tol`` are integers at their common power-of-two
# denominator (every float is dyadic, so it is the largest of theirs), one
# call of that function gives every value, each vertex is read off by
# index, and each result is one correctly rounded ``int / int``: exact
# rational arithmetic bit for bit.
# This shares no code with the closed forms in bounds.py.
# ---------------------------------------------------------------------------

#: Variable order for the joint-cell polytope: (stratum, intention).
_Q_CELLS = tuple((s, astar) for s in STRATA for astar in (0, 1))


def _structure(cells_by_label: Mapping[str, set[tuple[int, int]]]
               ) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """0/1 coefficient rows over :data:`_Q_CELLS`, and their labels, one per entry."""
    return (tuple(tuple(int(c in cells) for c in _Q_CELLS) for cells in cells_by_label.values()),
            tuple(cells_by_label))


_MARGINS = {"margin Y under a=1": {c for c in _Q_CELLS if c[0] in (1, 3)},
            "margin Y under a=0": {c for c in _Q_CELLS if c[0] in (2, 3)}}
#: The observational cells ``(y, a)``, in the order of the fused system's rows.
_OBSERVED_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
#: ``(rows, row_labels)`` of the trial-only and the fused system.
_TRIAL_STRUCTURE = _structure({**_MARGINS, "normalization": set(_Q_CELLS)})
_FUSED_STRUCTURE = _structure({**_MARGINS, **{
    f"observational cell (Y={y}, A={a})": {(s, aa) for s, aa in _Q_CELLS
                                           if aa == a and potential_outcome(s, a) == y}
    for y, a in _OBSERVED_CELLS}})


@dataclass(frozen=True)
class _LinearConstraintSystem:
    """Equality constraints ``A q = b`` over the 8 joint cells, with ``q >= 0`` implicit.

    ``rows`` are integer rows over :data:`_Q_CELLS` and ``rhs`` the float
    right-hand sides.  ``row_labels`` name the constraints for error messages.
    """

    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[float, ...]
    row_labels: tuple[str, ...]


@dataclass(frozen=True)
class _Elimination:
    """The elimination of one coefficient structure, as integer maps over ``scale``.

    ``scale`` is the least common denominator of the rational maps, and
    ``rows`` are the distinct rows of every map times ``scale``.  For a
    right-hand side ``b``, a call needs only the values
    ``rows[k] . b / scale``, followed by one zero slot at index
    ``len(rows)``; ``evaluate(b)`` returns those dot products and the zero
    slot.  It is compiled from ``rows`` when the elimination is made, so a
    copy with other ``rows`` compiles its own.  Each entry of
    ``residuals`` pairs the index of a dependent constraint with the index
    of the value elimination leaves of its right-hand side.  Each entry of
    ``bases`` belongs to one invertible column basis and holds, per cell,
    the index of that cell's vertex coordinate (the zero slot for a
    non-basic cell); the same entry of ``picks`` reads that vertex off the
    values.
    """

    scale: int
    rows: tuple[tuple[int, ...], ...]
    residuals: tuple[tuple[int, int], ...]
    bases: tuple[tuple[int, ...], ...]
    picks: tuple[itemgetter, ...]
    evaluate: Callable[[Sequence[int]], list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # each row as one sum of signed terms, such as "-b[1]+b[3]+2*b[4]"
        terms = ("".join(("+" if c > 0 else "-") + ("" if abs(c) == 1 else f"{abs(c)}*") + f"b[{j}]"
                         for j, c in enumerate(row) if c) or "0" for row in self.rows)
        object.__setattr__(self, "evaluate", eval(f"lambda b: [{', '.join(terms)}, 0]", {}))


def strata_system(obs: ObservedLaw, l: str, fuse: bool = False) -> _LinearConstraintSystem:
    """Constraint system the observed blocks impose on the joint cells at level ``l``.

    Always includes the two trial-margin equalities and normalization.
    With ``fuse`` the four observational cells are added (normalization is
    then implied and omitted).
    """
    rhs = (exp_potential_mean(obs, 1, l), exp_potential_mean(obs, 0, l))
    if fuse:
        rows, labels = _FUSED_STRUCTURE
        rhs += tuple(obs.p_joint(y, a, l, 0) for y, a in _OBSERVED_CELLS)
    else:
        rows, labels = _TRIAL_STRUCTURE
        rhs += (1.0,)
    return _LinearConstraintSystem(rows=rows, rhs=rhs, row_labels=labels)


def stratum_target(s: int) -> dict[tuple[int, int], float]:
    """Linear functional selecting the marginal probability of stratum ``s``."""
    check_stratum(s)
    return {(s, 0): 1.0, (s, 1): 1.0}


def polytope_vertices(system: _LinearConstraintSystem,
                      tol: float = DEFAULT_TOL) -> tuple[list[tuple[int, ...]], int]:
    """All basic feasible solutions of the system, exactly.

    Returns integer vertices and their common denominator.  ``tol`` is the
    slack for (i) dropping dependent rows whose right-hand sides disagree
    by rounding, and (ii) accepting marginally negative vertex
    coordinates; both only matter for noisy plug-in inputs.
    """
    check_tol(tol)
    elimination = _eliminate(system.rows)
    rhs_scale, (*rhs, t) = _common_scale((*system.rhs, tol))
    slack = elimination.scale * t
    denominator = elimination.scale * rhs_scale
    values = elimination.evaluate(rhs)
    for k, j in elimination.residuals:
        if abs(values[j]) > slack:
            raise IncompatibleLawsError(
                f"incompatible observed law: constraint "
                f"{system.row_labels[k]!r} is off by {values[j] / denominator:.3g}")
    negative = {k for k, value in enumerate(values) if value < -slack}
    vertices = [pick(values) for slots, pick in zip(elimination.bases, elimination.picks)
                if negative.isdisjoint(slots)]
    if not vertices:
        raise IncompatibleLawsError("incompatible observed law: the constraint polytope is empty")
    return vertices, denominator


def sharp_bounds_lp(system: _LinearConstraintSystem,
                    target: Mapping[tuple[int, int], float],
                    tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Exact min and max of the linear functional ``target`` over the feasible polytope.

    It attains them at vertices of :func:`polytope_vertices`, where each
    value is exact in integers, so the results are correctly rounded.
    """
    unknown = set(target) - set(_Q_CELLS)
    if unknown:
        raise ValueError(f"target references unknown cells: {sorted(unknown)}")
    terms = [(_Q_CELLS.index(cell), c) for cell, c in target.items() if c]
    coef_scale, coef = _common_scale([c for _, c in terms])
    points, denominator = polytope_vertices(system, tol)
    values = [0] * len(points)
    for (j, _), c in zip(terms, coef):  # a stratum target has two nonzero terms
        values = [value + c * point[j] for value, point in zip(values, points)]
    denominator *= coef_scale
    return min(values) / denominator, max(values) / denominator


def _stratum_ranges(vertices: tuple[list[tuple[int, ...]], int]) -> list[tuple[float, float]]:
    """``sharp_bounds_lp(system, stratum_target(s))`` per stratum from ``system``'s vertices.

    In :data:`_Q_CELLS` order stratum ``s`` holds vertex columns ``2s-2`` and ``2s-1``.
    """
    points, denominator = vertices
    masses = zip(*[(p[0] + p[1], p[2] + p[3], p[4] + p[5], p[6] + p[7]) for p in points])
    return [(min(mass) / denominator, max(mass) / denominator) for mass in masses]


def _common_scale(values: Iterable[float]) -> tuple[int, list[int]]:
    """``values`` as integers over their common denominator, and that denominator.

    Every float's denominator is a power of two, so the common one is the largest.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    return scale, [n * (scale // d) for n, d in ratios]


@lru_cache(maxsize=16)
def _eliminate(rows: tuple[tuple[int, ...], ...]) -> _Elimination:
    """Eliminate one coefficient structure exactly, with its distinct map rows at one scale."""
    n = len(rows[0])
    # [A | I] reduces to [R | T] with R = T A: a right-hand side b becomes T b,
    # and a dependent row k leaves the residual t_k . b, which must vanish.
    reduced, dependent = _reduce([[*row, *(int(k == i) for k in range(len(rows)))]
                                  for i, row in enumerate(rows)], n)
    rank = len(reduced)
    bases = []  # (basis, rows of R_B^-1 T), which map b to the basic coordinates
    for basis in combinations(range(n), rank):
        inverse, singular = _reduce([[row[j] for j in basis] + row[n:] for row in reduced], rank)
        if not singular:
            bases.append((basis, [row[rank:] for row in inverse]))
    scale = lcm(*(v.denominator for _, tail in dependent for v in tail),
                *(v.denominator for _, matrix in bases for row in matrix for v in row))
    table: dict[tuple[int, ...], int] = {}  # distinct scaled row -> its index

    def index(row: Sequence[int | Fraction]) -> int:
        return table.setdefault(tuple(int(v * scale) for v in row), len(table))

    residuals = tuple((k, index(tail)) for k, tail in dependent)
    basic = [dict(zip(basis, map(index, matrix))) for basis, matrix in bases]
    slots = tuple(tuple(where.get(j, len(table)) for j in range(n)) for where in basic)
    return _Elimination(scale=scale, rows=tuple(table), residuals=residuals,
                        bases=slots, picks=tuple(itemgetter(*basis) for basis in slots))


def _reduce(rows: Iterable[list[int | Fraction]], n: int
            ) -> tuple[list[list[Fraction]], list[tuple[int, list[int | Fraction]]]]:
    """Exact Gauss-Jordan elimination of ``rows`` on their first ``n`` columns.

    Returns the independent rows, each with a unit pivot and zeros in the
    other pivot columns, in pivot-column order; and for each dependent row
    (its first ``n`` entries vanish) its index and its entries after them.
    """
    pivots: dict[int, list[Fraction]] = {}  # pivot column -> its row
    dependent = []
    for k, row in enumerate(rows):
        for j, pivot_row in pivots.items():
            if f := row[j]:
                row = [v - f * w for v, w in zip(row, pivot_row)]
        j = next((j for j in range(n) if row[j]), None)
        if j is None:
            dependent.append((k, row[n:]))
            continue
        pivot = Fraction(row[j])
        row = [v / pivot for v in row]
        for i, pivot_row in pivots.items():
            if f := pivot_row[j]:
                pivots[i] = [v - f * w for v, w in zip(pivot_row, row)]
        pivots[j] = row
    return [pivots[j] for j in sorted(pivots)], dependent


@_property("sharpness")
def sweep_sharpness(trials: int, seed: int) -> _Checks:
    """LP oracle against the closed forms, plus redundancy of the mixture terms."""
    def check(i: int, law: FullLaw, obs: ObservedLaw) -> str | None:
        for l in law.levels:
            closed = exp_bounds(obs, l)
            intervals = [closed.interval(s) for s in STRATA]
            try:  # a valid law's polytopes are never empty, so a refusal is the oracle's fault
                ranges = _stratum_ranges(polytope_vertices(strata_system(obs, l, fuse=False)))
                lp_lo, lp_hi = _stratum_ranges(
                    polytope_vertices(strata_system(obs, l, fuse=True)))[0]
            except IncompatibleLawsError as exc:
                return f"trial {i} level {l}: oracle refused: {exc}"
            for s, (lo, hi), (clo, chi) in zip(STRATA, ranges, intervals):
                if abs(lo - clo) > SHARPNESS_TOL or abs(hi - chi) > SHARPNESS_TOL:
                    return (f"trial {i} level {l}: LP [{lo:.6g}, {hi:.6g}] vs "
                            f"closed [{clo:.6g}, {chi:.6g}] for stratum {s}")

            fused_lb = fused_lower_bound_s1(obs, l)
            if abs(lp_lo - fused_lb) > SHARPNESS_TOL:
                return f"trial {i} level {l}: LP lower {lp_lo:.6g} vs four-term {fused_lb:.6g}"
            fused = fused_bounds(obs, l)
            if abs(fused.p_lo - lp_lo) > SHARPNESS_TOL or abs(fused.p_hi - lp_hi) > SHARPNESS_TOL:
                return (f"trial {i} level {l}: fused [{fused.p_lo:.6g}, "
                        f"{fused.p_hi:.6g}] vs LP [{lp_lo:.6g}, {lp_hi:.6g}]")

            # The trial marginal is a convex combination of the arm means, so
            # differences built from it cannot beat the retained terms.
            trial_marginal = obs.p_y(l, 1)
            redundant = max(trial_marginal - closed.p_y0, closed.p_y1 - trial_marginal)
            if redundant > fused_lb + SHARPNESS_TOL:
                return f"trial {i} level {l}: redundant term {redundant:.6g} sharpens"

            truth = law.strata_marginal(l)
            if not (lp_lo - SHARPNESS_TOL <= truth[0] <= lp_hi + SHARPNESS_TOL):
                return f"trial {i} level {l}: truth {truth[0]:.6g} escapes LP interval"
            for s, (clo, chi) in zip(STRATA, intervals):
                if not (clo - SHARPNESS_TOL <= truth[s - 1] <= chi + SHARPNESS_TOL):
                    return f"trial {i} level {l}: truth escapes stratum {s} interval"
        return None

    return check, lambda: []


@_property("fusion")
def sweep_fusion(trials: int, seed: int) -> _Checks:
    """Fused means recover the direct conditional means of the generating law."""
    def check(i: int, law: FullLaw, obs: ObservedLaw) -> str | None:
        for l in law.levels:
            p_astar = law.p_astar[l]
            for a in (0, 1):
                mix = 0.0
                for astar in (0, 1):
                    ident = fused_potential_mean(obs, a, astar, l)
                    direct = law.potential_mean_given_astar(a, astar, l)
                    if abs(ident - direct) > FUSION_TOL:
                        return (f"trial {i} level {l}: fused mean {ident:.9g} vs "
                                f"direct {direct:.9g} (a={a}, astar={astar})")
                    mix += ident * (p_astar if astar == 1 else 1.0 - p_astar)
                marginal = obs.p_y_given_a(a, l, 1)
                if abs(mix - marginal) > FUSION_TOL:
                    return f"trial {i} level {l}: mixture {mix:.9g} vs {marginal:.9g}"
        return None

    return check, lambda: []


@_property("excess")
def sweep_excess(trials: int, seed: int) -> _Checks:
    """Stratum-driven policies never beat the outcome minimizer on outcomes.

    Uses survival preferences with a random positive charge on treating
    stratum 1; notes the fraction of laws where the excess is strictly
    positive.
    """
    from .decide import excess_outcome
    from .utility import UtilitySpec, harm_penalized_gamma, survival_spec

    rng = np.random.default_rng(seed + 1)
    strict = 0

    def check(i: int, law: FullLaw, obs: ObservedLaw | None) -> str | None:
        nonlocal strict
        base = survival_spec()
        penalty = float(rng.uniform(0.5, 5.0))
        scale = float(rng.uniform(0.5, 3.0))
        shift = float(rng.uniform(-2.0, 2.0))
        gamma = {k: scale * v + shift
                 for k, v in harm_penalized_gamma(base.mu, penalty).items()}
        excess = excess_outcome(law, UtilitySpec(mu=base.mu, gamma=gamma), base)
        if excess > 1e-9:
            strict += 1
        return None if excess >= -1e-12 else f"trial {i}: excess {excess:.6g} negative"

    return check, lambda: [f"strictly positive excess on {strict}/{trials} laws "
                           f"({100.0 * strict / trials:.1f}%)"]
