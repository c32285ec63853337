"""Utility specifications over outcomes and over principal strata.

A :class:`UtilitySpec` always carries an outcome-level table
``mu(y, a)``.  It may additionally carry a stratum-level table
``gamma(s, a)``; specs without one are purely outcome-based and must never
be asked for stratum quantities.  The per-stratum treatment gain

    delta(s) = gamma(s, 1) - gamma(s, 0)

is always derived from ``gamma``, never stored.

Two structural properties of ``gamma`` matter downstream:

* gain equality, ``delta(1) + delta(2) == delta(3) + delta(4)``, which
  makes the expected stratum-utility difference a function of the two
  identifiable outcome margins alone;
* harm asymmetry, ``-delta(1) > delta(2)``: withholding treatment from a
  "would be harmed" patient is credited more than treating a "would be
  saved" patient.  This is a classification predicate, not a constraint.

Utilities are dimensionless finite reals with no range restriction; utility
files with a non-finite entry are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import FileFormatError, GainEqualityError, GammaMissingError
from .laws import STRATA, potential_outcome

GAIN_TOL = 1e-9

_MU_KEYS = tuple((y, a) for y in (0, 1) for a in (0, 1))
_GAMMA_KEYS = tuple((s, a) for s in STRATA for a in (0, 1))


@dataclass(frozen=True)
class UtilitySpec:
    mu: Mapping[tuple[int, int], float]
    gamma: Mapping[tuple[int, int], float] | None = None

    def __post_init__(self) -> None:
        if set(self.mu) != set(_MU_KEYS):
            raise ValueError("mu table must have exactly the four (y, a) entries")
        if self.gamma is not None and set(self.gamma) != set(_GAMMA_KEYS):
            raise ValueError("gamma table must have exactly the eight (s, a) entries")

    @property
    def has_gamma(self) -> bool:
        return self.gamma is not None

    @property
    def delta(self) -> tuple[float, float, float, float]:
        """Per-stratum gain for choosing treatment, ``gamma(s,1) - gamma(s,0)``."""
        g = self._require_gamma()
        return tuple(g[(s, 1)] - g[(s, 0)] for s in STRATA)  # type: ignore[return-value]

    def _require_gamma(self) -> Mapping[tuple[int, int], float]:
        if self.gamma is None:
            raise GammaMissingError(
                "utility spec has no stratum table; stratum-level operations do not apply")
        return self.gamma


def survival_spec() -> UtilitySpec:
    """The "survival" preset ``mu(y, a) = 1 - y`` (outcome 1 read as death)."""
    return UtilitySpec(mu={(y, a): 1.0 - y for (y, a) in _MU_KEYS})


def induced_gamma(mu: Mapping[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """The stratum table an outcome-only utility induces: ``gamma(s, a) = mu(Y^a(s), a)``."""
    return {(s, a): mu[(potential_outcome(s, a), a)] for (s, a) in _GAMMA_KEYS}


def harm_penalized_gamma(mu: Mapping[tuple[int, int], float],
                         penalty: float) -> dict[tuple[int, int], float]:
    """Induced stratum table with an extra charge for treating stratum 1.

    For ``penalty > 0`` the result is harm-asymmetric: the gain from
    withholding treatment in stratum 1 exceeds the gain from treating
    stratum 2 by exactly ``penalty``.
    """
    g = induced_gamma(mu)
    g[(1, 1)] -= penalty
    return g


def gain_equality_holds(spec: UtilitySpec) -> bool:
    """Whether ``delta(1) + delta(2) == delta(3) + delta(4)`` within ``GAIN_TOL``."""
    d = spec.delta
    return abs((d[0] + d[1]) - (d[2] + d[3])) <= GAIN_TOL


def expected_cf_utility_diff(spec: UtilitySpec, strata_probs: Sequence[float]) -> float:
    """``E[U^1] - E[U^0]`` for a stratum-level utility at known strata probabilities.

    Evaluates ``sum_s delta(s) P(S=s)``.
    """
    if len(strata_probs) != 4:
        raise ValueError("strata_probs must have four entries")
    total = sum(strata_probs)
    if abs(total - 1.0) > 1e-6 or min(strata_probs) < -1e-12:
        raise ValueError(f"strata_probs is not a distribution (sums to {total:g})")
    d = spec.delta
    return sum(d[i] * strata_probs[i] for i in range(4))


def gain_equality_diff(spec: UtilitySpec, p_y1: float, p_y0: float) -> float:
    """Margin-only fast path for ``E[U^1] - E[U^0]`` under gain equality.

    Valid because under gain equality the stratum distribution enters the
    difference only through its outcome margins:

        (delta(1) - delta(4)) P(Y^1 = 1) + (delta(3) - delta(1)) P(Y^0 = 1) + delta(4)

    Raises :class:`GainEqualityError` when the table does not satisfy gain
    equality, in which case the full stratum distribution is required.
    """
    if not 0.0 <= p_y1 <= 1.0 or not 0.0 <= p_y0 <= 1.0:
        raise ValueError("outcome margins must lie in [0, 1]")
    if not gain_equality_holds(spec):
        d = spec.delta
        raise GainEqualityError(
            f"gain equality fails: delta(1)+delta(2) = {d[0] + d[1]:g} "
            f"but delta(3)+delta(4) = {d[2] + d[3]:g}")
    d = spec.delta
    return (d[0] - d[3]) * p_y1 + (d[2] - d[0]) * p_y0 + d[3]


def expected_int_utility(spec: UtilitySpec, a: int, p_ya: float) -> float:
    """``E[mu(Y^a, a)]`` given the outcome mean ``P(Y^a = 1) = p_ya``."""
    if a not in (0, 1):
        raise ValueError(f"a must be 0 or 1, got {a!r}")
    if not 0.0 <= p_ya <= 1.0:
        raise ValueError("p_ya must lie in [0, 1]")
    return spec.mu[(1, a)] * p_ya + spec.mu[(0, a)] * (1.0 - p_ya)


# ---------------------------------------------------------------------------
# Utility specification files: `MU <y> <a> <value>` (all four required) and
# optional `GAMMA <s> <a> <value>` (all eight required if any appear).
# ---------------------------------------------------------------------------

def parse_utility_text(text: str) -> UtilitySpec:
    mu: dict[tuple[int, int], float] = {}
    gamma: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0].upper()
        if kind not in ("MU", "GAMMA"):
            raise FileFormatError(f"line {lineno}: unknown record kind {fields[0]!r}")
        if len(fields) != 4:
            raise FileFormatError(f"line {lineno}: {kind} record needs 3 fields")
        try:
            first, second = int(fields[1]), int(fields[2])
            value = float(fields[3])
        except ValueError:
            raise FileFormatError(f"line {lineno}: malformed {kind} record") from None
        if not math.isfinite(value):
            raise FileFormatError(f"line {lineno}: {kind} value {fields[3]!r} is not finite")
        if kind == "MU":
            if first not in (0, 1) or second not in (0, 1):
                raise FileFormatError(f"line {lineno}: MU indices must be 0 or 1")
            if (first, second) in mu:
                raise FileFormatError(f"line {lineno}: duplicate MU {first} {second}")
            mu[(first, second)] = value
        else:
            if first not in STRATA or second not in (0, 1):
                raise FileFormatError(f"line {lineno}: GAMMA needs s in 1..4 and a in 0..1")
            if (first, second) in gamma:
                raise FileFormatError(f"line {lineno}: duplicate GAMMA {first} {second}")
            gamma[(first, second)] = value
    if set(mu) != set(_MU_KEYS):
        raise FileFormatError("utility file must define all four MU entries")
    if gamma and set(gamma) != set(_GAMMA_KEYS):
        raise FileFormatError("utility file defines GAMMA but not all eight entries")
    return UtilitySpec(mu=mu, gamma=gamma or None)


def read_utility_file(path: str) -> UtilitySpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_utility_text(fh.read())
