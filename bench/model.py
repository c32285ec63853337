"""The benchmark's own model of a harmbounds law, written apart from the package.

Everything the output checks compare against is computed here from the
numbers the benchmark generated, with plain float arithmetic and none of
the package's code: the push-forward to observed cells, the direct
conditional means, the closed-form stratum intervals (the four-term lower
bound and the Tian & Pearl (2000) upper bound on ``P(S=1|l)``), the
treatment gain of a stratum utility table, and the population outcome of
a policy.

Strata are coded as in the package: 1 = (Y^1, Y^0) = (1, 0), 2 = (0, 1),
3 = (1, 1), 4 = (0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STRATA = (1, 2, 3, 4)
Y_UNDER = {1: {1: 1, 0: 0}, 2: {1: 0, 0: 1}, 3: {1: 1, 0: 1}, 4: {1: 0, 0: 0}}
CELLS = tuple((y, a) for y in (0, 1) for a in (0, 1))


@dataclass(frozen=True)
class Level:
    label: str
    p_level: float
    p_r1: float
    p_treat: float
    p_astar: float
    strata: dict  # astar -> (P(S=1|l,a*), ..., P(S=4|l,a*))

    def weight(self, astar: int) -> float:
        return self.p_astar if astar == 1 else 1.0 - self.p_astar

    def marginal(self) -> tuple[float, ...]:
        """P(S=s|l), marginal over the intention."""
        return tuple(self.weight(1) * self.strata[1][i] + self.weight(0) * self.strata[0][i]
                     for i in range(4))

    def cond_mean(self, a: int, astar: int) -> float:
        """E[Y^a | A*=astar, l] summed straight from the stratum table."""
        return sum(p for s, p in zip(STRATA, self.strata[astar]) if Y_UNDER[s][a] == 1)

    def mean(self, a: int) -> float:
        """E[Y^a | l]."""
        return sum(p for s, p in zip(STRATA, self.marginal()) if Y_UNDER[s][a] == 1)

    def cells(self, r: int) -> dict:
        """P(Y=y, A=a | l, R=r): a coin inside the trial, the intention outside it."""
        out = {}
        for y, a in CELLS:
            if r == 1:
                arm = self.p_treat if a == 1 else 1.0 - self.p_treat
                mean = self.mean(a)
            else:
                arm = self.weight(a)
                mean = self.cond_mean(a, a)
            out[(y, a)] = arm * (mean if y == 1 else 1.0 - mean)
        return out


@dataclass(frozen=True)
class Law:
    levels: tuple[Level, ...]

    def level(self, label: str) -> Level:
        for lv in self.levels:
            if lv.label == label:
                return lv
        raise KeyError(label)

    def text(self) -> str:
        """The law in the package's specification file format, at full precision."""
        lines = []
        for lv in self.levels:
            lines.append(f"L {lv.label} {lv.p_level!r}")
            lines.append(f"TRIAL {lv.label} {lv.p_r1!r} {lv.p_treat!r}")
            lines.append(f"ASTAR {lv.label} {lv.p_astar!r}")
            for astar in (1, 0):
                lines.append(f"S {lv.label} {astar} " + " ".join(repr(v) for v in lv.strata[astar]))
        return "\n".join(lines) + "\n"

    def cell_probs(self) -> dict:
        """P(L=l, R=r, Y=y, A=a) for every observed cell."""
        out = {}
        for lv in self.levels:
            for r in (0, 1):
                pr = lv.p_r1 if r == 1 else 1.0 - lv.p_r1
                for (y, a), p in lv.cells(r).items():
                    out[(lv.label, r, y, a)] = lv.p_level * pr * p
        return out


def make_law(rng: np.random.Generator, n_levels: int, zero_cells: bool = False,
             floor: float = 0.05) -> Law:
    """A random law; with ``zero_cells`` every stratum block has two exact zeros.

    Stratum weights are drawn from ``[floor, 1]`` before normalizing, and the
    intention, participation and allocation probabilities stay inside
    ``[0.2, 0.8]``, so no group the program conditions on is near-empty.

    Zero-cell blocks and their ``P(A*=1|l)`` are multiples of 1/64, so every
    outcome mean of the law is exact.  With other values a block that makes
    an outcome certain can sum to 1 + 2**-52; the package then rejects the
    law's own means (``identify`` exits 3) or a mean it passes to the
    utility (``decide --criterion interventionist`` exits 2), on some seeds only.
    """
    weights = rng.uniform(0.5, 1.0, size=n_levels)
    p_level = weights / weights.sum()
    levels = []
    for i in range(n_levels):
        strata = {}
        for astar in (1, 0):
            if zero_cells:
                w = np.zeros(4)
                first, second = rng.choice(4, size=2, replace=False)
                k = int(rng.integers(1, 64))
                w[first], w[second] = k / 64, (64 - k) / 64
            else:
                w = rng.uniform(floor, 1.0, size=4)
                w = w / w.sum()
            strata[astar] = tuple(float(v) for v in w)
        p_astar = (int(rng.integers(13, 52)) / 64 if zero_cells
                   else float(rng.uniform(0.2, 0.8)))
        levels.append(Level(label=f"l{i}", p_level=float(p_level[i]),
                            p_r1=float(rng.uniform(0.3, 0.7)),
                            p_treat=float(rng.uniform(0.3, 0.7)),
                            p_astar=p_astar, strata=strata))
    return Law(tuple(levels))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def experimental_interval(m1: float, m0: float) -> tuple[float, float]:
    """Range of p = P(S=1|l) allowed by the two trial margins alone."""
    return max(0.0, m1 - m0), min(m1, 1.0 - m0)


def fused_interval(m1: float, m0: float, obs: dict) -> tuple[float, float]:
    """Four-term lower bound and Tian & Pearl upper bound on p from both blocks.

    ``obs[(y, a)]`` is P(Y=y, A=a | l, R=0).
    """
    factual = obs[(1, 1)] + obs[(1, 0)]
    lo = max(0.0, m1 - m0, factual - m0, m1 - factual)
    hi = min(m1, 1.0 - m0, obs[(1, 1)] + obs[(0, 0)], m1 - m0 + obs[(1, 0)] + obs[(0, 1)])
    return lo, hi


def family(p: float, m1: float, m0: float) -> tuple[float, float, float, float]:
    """Stratum distribution at P(S=1|l) = p with margins m1, m0 fixed."""
    return (p, p - (m1 - m0), m1 - p, 1.0 - m0 - p)


def stratum_intervals(p_lo: float, p_hi: float, m1: float, m0: float) -> list:
    """Per-stratum [lo, hi] as projections of the family over [p_lo, p_hi], clipped to [0, 1]."""
    at_lo, at_hi = family(p_lo, m1, m0), family(p_hi, m1, m0)
    out = []
    for i in range(4):
        lo, hi = sorted((at_lo[i], at_hi[i]))
        out.append((min(1.0, max(0.0, lo)), min(1.0, max(0.0, hi))))
    return out


def delta(gamma: dict) -> tuple[float, float, float, float]:
    """Per-stratum gain of treating, gamma(s, 1) - gamma(s, 0)."""
    return tuple(gamma[(s, 1)] - gamma[(s, 0)] for s in STRATA)


def gain(d, probs) -> float:
    return sum(di * pi for di, pi in zip(d, probs))


def gain_interval(d, p_lo: float, p_hi: float, m1: float, m0: float) -> tuple[float, float]:
    """The gain is affine in p, so its range sits at the endpoints."""
    a = gain(d, family(p_lo, m1, m0))
    b = gain(d, family(p_hi, m1, m0))
    return min(a, b), max(a, b)


# ---------------------------------------------------------------------------
# Utility tables
# ---------------------------------------------------------------------------

SURVIVAL_MU = {(y, a): 1.0 - y for y in (0, 1) for a in (0, 1)}


def induced_gamma(mu: dict) -> dict:
    """gamma(s, a) = mu(Y^a(s), a): the stratum table an outcome utility implies."""
    return {(s, a): mu[(Y_UNDER[s][a], a)] for s in STRATA for a in (0, 1)}


def make_utilities(rng: np.random.Generator) -> tuple[dict, dict]:
    """A gain-equal and a harm-penalised stratum table over survival preferences.

    Both are positive affine images of their base table, which leaves every
    decision unchanged but keeps the printed gains away from the base values.
    """
    base = induced_gamma(SURVIVAL_MU)
    penalised = dict(base)
    penalised[(1, 1)] -= float(rng.uniform(0.5, 5.0))
    tables = []
    for table in (base, penalised):
        scale, shift = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2.0, 2.0))
        tables.append({k: scale * v + shift for k, v in table.items()})
    return tables[0], tables[1]


def utility_text(mu: dict, gamma: dict) -> str:
    lines = [f"MU {y} {a} {mu[(y, a)]!r}" for y in (0, 1) for a in (0, 1)]
    lines += [f"GAMMA {s} {a} {gamma[(s, a)]!r}" for s in STRATA for a in (0, 1)]
    return "\n".join(lines) + "\n"
