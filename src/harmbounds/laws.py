"""Full and observed probability laws for a binary-treatment decision problem.

Variables and conventions used across the package:

* ``A``  binary treatment actually received, ``Y`` binary outcome,
  ``L``  discrete baseline covariate ("level", carried as a string label),
  ``R``  indicator of participation in a randomized trial,
  ``A*`` the treatment a patient (or their provider) would choose on their
  own; outside the trial the chosen and received treatments coincide.
* ``S``  principal stratum, the joint response type over both treatment
  arms.  The four codes are in bijection with the potential-outcome pairs:

      ==== ==============  =============
      code Y under a=1     Y under a=0
      ==== ==============  =============
      1    1               0
      2    0               1
      3    1               1
      4    0               0
      ==== ==============  =============

  With ``Y=1`` read as death, stratum 1 is "harmed by treatment" and
  stratum 2 is "saved by treatment".

A :class:`FullLaw` carries the complete counterfactual distribution:
``P(L)``, ``P(A*|L)``, ``P(S|L, A*)`` and the trial design
(``P(R=1|L)`` and the randomization probability ``P(A=1|L, R=1)``).
Strata are stored conditional on ``(L, A*)`` because the observational
side of the problem needs the joint law of ``(S, A*)``; a marginal-only
table cannot express confounding between intention and response type.

An :class:`ObservedLaw` carries only what a data collector sees: for each
``(L, R)`` block the joint distribution of ``(Y, A)``, plus the margins
``P(L)`` and ``P(R=1|L)``.

Pushing a full law forward to its observed law bakes in the structural
assumptions relating the two:

* consistency: ``Y`` is the potential outcome of the received treatment;
* inside the trial, ``A`` is assigned by an exogenous coin;
* trial participation is independent of ``(S, A*)`` within levels;
* outside the trial, ``A`` equals ``A*``.

All values are plain 64-bit floats; sum-to-one checks use ``SUM_TOL``
because inputs typically arrive as decimal text.  A law checks itself when
it is built and keeps read-only copies of its tables, so a law that exists
is valid; every function here is pure, so concurrent use needs no
coordination.  A full law computes its derived tables (``P(S | L)`` and
the potential-outcome means) on first use and keeps them; they are not
fields, so equality, pickling and ``dataclasses.replace`` see only the
tables the law was built from.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import FileFormatError, LawValidationError, PositivityError

#: Tolerance for sum-to-one and range checks on stored probabilities.
SUM_TOL = 1e-9

#: Stratum codes in canonical order.
STRATA = (1, 2, 3, 4)

#: code -> (outcome under a=1, outcome under a=0)
STRATUM_OUTCOMES = {1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (0, 0)}


def potential_outcome(s: int, a: int) -> int:
    """Outcome a member of stratum ``s`` realizes under treatment ``a``."""
    y1, y0 = STRATUM_OUTCOMES[s]
    return y1 if a == 1 else y0


def check_stratum(s: int) -> None:
    """Refuse a stratum code not in :data:`STRATA`."""
    if s not in STRATA:
        raise ValueError(f"stratum must be in {STRATA}, got {s!r}")


def _check_action(a: int, name: str = "a") -> None:
    if a not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {a!r}")


def _check_prob(value: float, what: str, *args: object) -> None:
    """Refuse ``value`` unless it is a probability; ``what.format(*args)`` names it."""
    if not (-SUM_TOL <= value <= 1.0 + SUM_TOL):
        raise LawValidationError(f"{what.format(*args)} = {value!r} is not a probability")


def _store(law: object, **tables: Mapping) -> None:
    """Set ``law.levels`` to a tuple and each table to a read-only copy."""
    object.__setattr__(law, "levels", tuple(law.levels))
    for name, table in tables.items():
        object.__setattr__(law, name, MappingProxyType(dict(table)))


def _reduce(law: object) -> tuple:
    """Pickle ``law`` as its constructor and plain-dict fields, so loading checks it again."""
    def plain(value: object) -> object:
        return {k: plain(v) for k, v in value.items()} if isinstance(value, Mapping) else value
    return type(law), tuple(plain(getattr(law, f.name)) for f in fields(law))


def _check_levels(levels: tuple[str, ...], what: str,
                  tables: tuple[tuple[Mapping[str, float], str], ...],
                  check_blocks: Callable[[str], None]) -> None:
    """Checks shared by both laws; ``tables`` are (per-level table, name), ``P(L)`` first."""
    if not levels:
        raise LawValidationError(f"{what} has no levels")
    if len(set(levels)) != len(levels):
        raise LawValidationError("duplicate level labels")
    total = 0.0
    for l in levels:
        for mapping, name in tables:
            if l not in mapping:
                raise LawValidationError(f"missing {name} entry for level {l!r}")
            _check_prob(mapping[l], "{} at level {!r}", name, l)
        total += tables[0][0][l]
        check_blocks(l)
    if abs(total - 1.0) > SUM_TOL:
        raise LawValidationError(f"P(L) sums to {total:g}")


def _outcome_mass(probs: tuple[float, float, float, float], a: int) -> float:
    """Mass of the strata with ``Y^a = 1``, clamped to [0, 1].

    A stratum block may sum to 1 within the validation tolerance, so the
    raw sum can leave [0, 1] by rounding.
    """
    mass = sum(probs[s - 1] for s in STRATA if potential_outcome(s, a) == 1)
    return min(1.0, max(0.0, mass))


@dataclass(frozen=True)
class FullLaw:
    """Complete counterfactual law plus trial design.

    ``p_strata[(l, astar)]`` is the 4-vector ``P(S=. | L=l, A*=astar)`` in
    stratum-code order.  ``p_treat[l]`` is the randomization probability
    ``P(A=1 | L=l, R=1)``; the trial allocation is unspecified by the
    decision problem itself, so builders default it to one half.
    """

    levels: tuple[str, ...]
    p_level: Mapping[str, float]
    p_astar: Mapping[str, float]
    p_strata: Mapping[tuple[str, int], tuple[float, float, float, float]]
    p_r1: Mapping[str, float]
    p_treat: Mapping[str, float]

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        """Store read-only copies of the tables, then check them; errors name the first fault."""
        _store(self, p_level=self.p_level, p_astar=self.p_astar, p_r1=self.p_r1,
               p_treat=self.p_treat, p_strata={k: tuple(b) for k, b in self.p_strata.items()})
        _check_levels(self.levels, "law",
                      ((self.p_level, "P(L)"), (self.p_astar, "P(A*=1|L)"),
                       (self.p_r1, "P(R=1|L)"), (self.p_treat, "P(A=1|L,R=1)")), self._check_strata)
        # the derived tables, filled on first use: P(S=. | l) by l, and the
        # potential means by (a, l), (a, astar, l) and, marginal, by a
        object.__setattr__(self, "_marginals", {})
        object.__setattr__(self, "_means", {})

    def _check_strata(self, l: str) -> None:
        for astar in (0, 1):
            key = (l, astar)
            if key not in self.p_strata:
                raise LawValidationError(f"missing stratum block (level {l!r}, astar={astar})")
            block = self.p_strata[key]
            if len(block) != 4:
                raise LawValidationError(
                    f"stratum block (level {l!r}, astar={astar}) has {len(block)} entries")
            for s in STRATA:
                _check_prob(block[s - 1], "P(S={} | level {!r}, astar={})", s, l, astar)
            block_sum = sum(block)
            if abs(block_sum - 1.0) > SUM_TOL:
                raise LawValidationError(
                    f"stratum block (level {l!r}, astar={astar}) sums to {block_sum:g}")

    def strata_marginal(self, l: str) -> tuple[float, float, float, float]:
        """``P(S=. | L=l)``, marginalizing the intention variable."""
        probs = self._marginals.get(l)
        if probs is None:
            self._require_level(l)
            pa = self.p_astar[l]
            c1 = self.p_strata[(l, 1)]
            c0 = self.p_strata[(l, 0)]
            probs = self._marginals[l] = tuple(pa * c1[i] + (1.0 - pa) * c0[i] for i in range(4))
        return probs

    def potential_mean(self, a: int, l: str) -> float:
        """``P(Y=1 | L=l)`` under an intervention fixing treatment to ``a``."""
        mean = self._means.get((a, l))
        if mean is None:
            probs = self.strata_marginal(l)
            _check_action(a)
            mean = self._means[(a, l)] = _outcome_mass(probs, a)
        return mean

    def potential_mean_given_astar(self, a: int, astar: int, l: str) -> float:
        """``P(Y=1 | L=l, A*=astar)`` under an intervention fixing ``a``."""
        mean = self._means.get((a, astar, l))
        if mean is None:
            self._require_level(l)
            _check_action(a)
            _check_action(astar, "astar")
            mean = self._means[(a, astar, l)] = _outcome_mass(self.p_strata[(l, astar)], a)
        return mean

    def marginal_potential_mean(self, a: int) -> float:
        """``P(Y=1)`` under an intervention fixing ``a``, marginal over levels."""
        mean = self._means.get(a)
        if mean is None:
            _check_action(a)
            mean = self._means[a] = sum(self.p_level[l] * self.potential_mean(a, l)
                                        for l in self.levels)
        return mean

    def marginal_stratum_prob(self, s: int) -> float:
        """``P(S=s)`` marginal over levels and intentions."""
        check_stratum(s)
        return sum(self.p_level[l] * self.strata_marginal(l)[s - 1] for l in self.levels)

    def _require_level(self, l: str) -> None:
        if l not in self.p_level:
            raise ValueError(f"unknown level {l!r}")


@dataclass(frozen=True)
class ObservedLaw:
    """Observed-data law: per ``(level, r)`` the joint ``P(Y=y, A=a | L=l, R=r)``.

    ``p_ya[(l, r)]`` maps ``(y, a)`` to a probability; each block is a
    distribution over the four cells.
    """

    levels: tuple[str, ...]
    p_level: Mapping[str, float]
    p_r1: Mapping[str, float]
    p_ya: Mapping[tuple[str, int], Mapping[tuple[int, int], float]]

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        """Store read-only copies of the tables, then check each ``(level, r)`` block."""
        _store(self, p_level=self.p_level, p_r1=self.p_r1,
               p_ya={k: MappingProxyType(dict(b)) for k, b in self.p_ya.items()})
        _check_levels(self.levels, "observed law",
                      ((self.p_level, "P(L)"), (self.p_r1, "P(R=1|L)")), self._check_blocks)

    def _check_blocks(self, l: str) -> None:
        for r in (0, 1):
            key = (l, r)
            if key not in self.p_ya:
                raise LawValidationError(f"missing block (level {l!r}, R={r})")
            block = self.p_ya[key]
            block_sum = 0.0
            for y in (0, 1):
                for a in (0, 1):
                    if (y, a) not in block:
                        raise LawValidationError(
                            f"missing cell (Y={y}, A={a}) in block (level {l!r}, R={r})")
                    _check_prob(block[(y, a)], "P(Y={},A={} | level {!r}, R={})", y, a, l, r)
                    block_sum += block[(y, a)]
            if abs(block_sum - 1.0) > SUM_TOL:
                raise LawValidationError(f"block (level {l!r}, R={r}) sums to {block_sum:g}")

    def p_joint(self, y: int, a: int, l: str, r: int) -> float:
        """``P(Y=y, A=a | L=l, R=r)``."""
        self._require_level(l)
        return self.p_ya[(l, r)][(y, a)]

    def p_a(self, a: int, l: str, r: int) -> float:
        """``P(A=a | L=l, R=r)``."""
        block = self._block(l, r)
        return block[(0, a)] + block[(1, a)]

    def p_y(self, l: str, r: int) -> float:
        """``P(Y=1 | L=l, R=r)``."""
        block = self._block(l, r)
        return block[(1, 0)] + block[(1, 1)]

    def p_y_given_a(self, a: int, l: str, r: int) -> float:
        """``P(Y=1 | A=a, L=l, R=r)``; raises on an empty arm rather than dividing by zero."""
        denom = self.p_a(a, l, r)
        if denom <= 0.0:
            raise PositivityError(f"empty arm (level {l!r}, R={r}, A={a})")
        return self.p_joint(1, a, l, r) / denom

    def _block(self, l: str, r: int) -> Mapping[tuple[int, int], float]:
        self._require_level(l)
        return self.p_ya[(l, r)]

    def _require_level(self, l: str) -> None:
        if l not in self.p_level:
            raise ValueError(f"unknown level {l!r}")


def observed_from_full(law: FullLaw) -> ObservedLaw:
    """Push a full law forward to the law of the observed data.

    Trial block (``R=1``): treatment is assigned by a coin independent of
    ``(S, A*)``, so ``P(Y=y, A=a | l, R=1) = P(A=a|l,R=1) P(Y^a=y | l)``.
    Observational block (``R=0``): received treatment equals intention, so
    ``P(Y=y, A=a | l, R=0) = P(A*=a|l) P(Y^a=y | l, A*=a)``.
    """
    p_ya: dict[tuple[str, int], dict[tuple[int, int], float]] = {}
    for l in law.levels:
        treat = law.p_treat[l]
        trial_block = {}
        for a in (0, 1):
            p_arm = treat if a == 1 else 1.0 - treat
            mean = law.potential_mean(a, l)
            trial_block[(1, a)] = p_arm * mean
            trial_block[(0, a)] = p_arm * (1.0 - mean)
        p_ya[(l, 1)] = trial_block

        pa = law.p_astar[l]
        obs_block = {}
        for a in (0, 1):
            p_arm = pa if a == 1 else 1.0 - pa
            mean = law.potential_mean_given_astar(a, a, l)
            obs_block[(1, a)] = p_arm * mean
            obs_block[(0, a)] = p_arm * (1.0 - mean)
        p_ya[(l, 0)] = obs_block

    return ObservedLaw(levels=law.levels, p_level=law.p_level, p_r1=law.p_r1, p_ya=p_ya)


def stratum_margins(law: FullLaw, l: str) -> tuple[float, float, float]:
    """Potential-outcome margins and effect at a level.

    Returns ``(P(Y=1|l) under a=1, P(Y=1|l) under a=0, difference)``.  The
    difference also equals ``P(S=1|l) - P(S=2|l)``: the strata 3 and 4
    contribute identically to both arms and cancel.
    """
    probs = law.strata_marginal(l)
    p_y1 = probs[0] + probs[2]
    p_y0 = probs[1] + probs[2]
    return p_y1, p_y0, p_y1 - p_y0


# ---------------------------------------------------------------------------
# Law specification files
#
# Line-oriented plain text, '#' starts a comment.  Four record kinds, all
# required for every declared level:
#
#   L     <label> <P(L=l)>
#   TRIAL <label> <P(R=1|l)> <P(A=1|l,R=1)>
#   ASTAR <label> <P(A*=1|l)>
#   S     <label> <astar in {0,1}> <p1> <p2> <p3> <p4>
# ---------------------------------------------------------------------------

def parse_law_text(text: str) -> FullLaw:
    """Parse a law specification; errors name the offending line."""
    p_level: dict[str, float] = {}
    p_astar: dict[str, float] = {}
    p_r1: dict[str, float] = {}
    p_treat: dict[str, float] = {}
    p_strata: dict[tuple[str, int], tuple[float, float, float, float]] = {}
    order: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0].upper()

        def want(n: int) -> None:
            if len(fields) != n:
                raise FileFormatError(
                    f"line {lineno}: {kind} record needs {n - 1} fields, got {len(fields) - 1}")

        def num(tok: str) -> float:
            try:
                return float(tok)
            except ValueError:
                raise FileFormatError(f"line {lineno}: {tok!r} is not a number") from None

        def new_label(seen: Mapping[str, float]) -> str:
            if fields[1] in seen:
                raise FileFormatError(f"line {lineno}: duplicate {kind} record for {fields[1]!r}")
            return fields[1]

        if kind == "L":
            want(3)
            label = new_label(p_level)
            p_level[label] = num(fields[2])
            order.append(label)
        elif kind == "TRIAL":
            want(4)
            label = new_label(p_r1)
            p_r1[label] = num(fields[2])
            p_treat[label] = num(fields[3])
        elif kind == "ASTAR":
            want(3)
            p_astar[new_label(p_astar)] = num(fields[2])
        elif kind == "S":
            want(7)
            label = fields[1]
            astar = fields[2]
            if astar not in ("0", "1"):
                raise FileFormatError(f"line {lineno}: astar must be 0 or 1, got {astar!r}")
            key = (label, int(astar))
            if key in p_strata:
                raise FileFormatError(
                    f"line {lineno}: duplicate S record for ({label!r}, astar={astar})")
            p_strata[key] = tuple(num(tok) for tok in fields[3:7])  # type: ignore[assignment]
        else:
            raise FileFormatError(f"line {lineno}: unknown record kind {fields[0]!r}")

    if not order:
        raise FileFormatError("no L records found")
    for label in order:
        for mapping, kind in ((p_r1, "TRIAL"), (p_astar, "ASTAR")):
            if label not in mapping:
                raise FileFormatError(f"missing {kind} record for level {label!r}")
        for astar in (0, 1):
            if (label, astar) not in p_strata:
                raise FileFormatError(f"missing S record for level {label!r}, astar={astar}")
    for label in set(p_r1) | set(p_astar) | {k[0] for k in p_strata}:
        if label not in p_level:
            raise FileFormatError(f"record references undeclared level {label!r}")

    return FullLaw(levels=tuple(order), p_level=p_level, p_astar=p_astar,
                   p_strata=p_strata, p_r1=p_r1, p_treat=p_treat)


def read_law_file(path: str) -> FullLaw:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_law_text(fh.read())
