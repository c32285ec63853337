"""Random law generation, dataset sampling, and the dataset CSV writer.

All randomness flows through numpy's PCG64 generator seeded explicitly, so
every artifact is reproducible from ``(seed, arguments)`` alone; datasets
record the seed they were drawn with.  A sampled dataset is a function of
``(law, n, seed, oracle)`` alone.

Sampling follows the causal ordering of the model: level, then trial
participation, then intention (independent of participation within a
level), then stratum, then assignment (a coin inside the trial, the
intention outside), then the outcome the stratum dictates for the
received treatment.  Each step is one generator call over all rows, in
that order: ``choice`` for the level, then ``random`` for R, A*, the
stratum uniform and the coin.

The stratum is read from a ``(2k, 3)`` table of cut points: row
``level * 2 + astar`` holds the first three cumulative sums of that
group's stratum vector, and a row's stratum is one plus the number of
cut points its uniform reaches.  The fourth sum is left out: the sums
never decrease, so a uniform that reaches it has reached the first three,
and its row is in stratum 4 either way.  The outcome is read from a table indexed
by received treatment and stratum, so no per-row temporary is wider
than one column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# The data-mode reader and estimator live in ``data``, which loads no numpy;
# they stay importable from here, where ``bench/tracing.py`` looks them up.
from .data import _CODED, CellCounts, estimate_observed_law, parse_dataset_csv, read_dataset_file
from .laws import FullLaw


def random_law(seed: int, n_levels: int = 1) -> FullLaw:
    """A random valid full law, deterministic in ``seed``.

    Stratum vectors are four independent positive weights normalized to
    sum to one, kept away from the simplex boundary so conditional
    quantities stay well defined in sweeps; intention, participation and
    allocation probabilities are likewise floored so no group a plug-in
    estimator conditions on is ever near-empty.  Each level draws its
    A* = 1 stratum vector, then its A* = 0 one, so intention confounds the
    response type.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    rng = np.random.default_rng(seed)
    levels = tuple(f"l{i}" for i in range(n_levels))

    weights = rng.uniform(0.1, 1.0, size=n_levels)
    p_level = {l: float(w / weights.sum()) for l, w in zip(levels, weights)}

    p_astar = {l: float(rng.uniform(0.2, 0.8)) for l in levels}
    p_r1 = {l: float(rng.uniform(0.35, 0.65)) for l in levels}
    p_treat = {l: float(rng.uniform(0.35, 0.65)) for l in levels}

    def strata_vector() -> tuple[float, float, float, float]:
        w = rng.uniform(0.05, 1.0, size=4)
        w = w / w.sum()
        return tuple(float(v) for v in w)  # type: ignore[return-value]

    p_strata: dict[tuple[str, int], tuple[float, float, float, float]] = {}
    for l in levels:
        p_strata[(l, 1)] = strata_vector()
        p_strata[(l, 0)] = strata_vector()

    return FullLaw(levels=levels, p_level=p_level, p_astar=p_astar,
                   p_strata=p_strata, p_r1=p_r1, p_treat=p_treat)


@dataclass(frozen=True)
class Dataset:
    """Sampled rows ``(R, L, A, Y)`` with optional oracle columns ``(A*, S)``.

    Levels are carried as an index array plus the label tuple; oracle
    columns exist only when the dataset was drawn in oracle mode.
    ``seed`` is the PCG64 seed a sampled dataset was drawn with, or
    ``None``.  The rows serve the CSV writer; a file is read back as
    :class:`~harmbounds.data.CellCounts`, which :meth:`cell_counts` also gives.
    """

    levels: tuple[str, ...]
    r: np.ndarray
    level_idx: np.ndarray
    a: np.ndarray
    y: np.ndarray
    astar: np.ndarray | None
    s: np.ndarray | None
    seed: int | None

    @property
    def n(self) -> int:
        return int(self.r.shape[0])

    @property
    def has_oracle(self) -> bool:
        return self.astar is not None

    def cell_counts(self) -> CellCounts:
        """Rows per coded cell, keyed as the CSV reader keys them, from one ``np.bincount``."""
        columns = [self.r, self.level_idx, self.a, self.y]
        shape = [2, len(self.levels), 2, 2]
        if self.has_oracle:
            columns += [self.astar, self.s]
            shape += [2, 5]  # S is 1-4; index 0 stays empty
        counts = np.bincount(np.ravel_multi_index(columns, shape), minlength=math.prod(shape))
        cells = itertools.product(*map(range, shape))
        return CellCounts(levels=self.levels, has_oracle=self.has_oracle,
                          counts={cell: c for cell, c in zip(cells, counts.tolist()) if c})


#: Outcome ``Y`` at flat index ``a * 5 + s``: ``Y^1`` is 1 in strata 1 and 3,
#: ``Y^0`` in strata 2 and 3 (index ``s = 0`` is unused).
_OUTCOME = np.array([0, 0, 1, 1, 0,
                     0, 1, 0, 1, 0], dtype=np.int8)


def sample_dataset(law: FullLaw, n: int, seed: int, oracle: bool = False) -> Dataset:
    """Draw ``n`` independent rows from the observed-data law of ``law``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    levels = law.levels
    k = len(levels)

    p_level = np.array([law.p_level[l] for l in levels])
    p_level = p_level / p_level.sum()
    p_r1 = np.array([law.p_r1[l] for l in levels])
    p_astar = np.array([law.p_astar[l] for l in levels])
    p_treat = np.array([law.p_treat[l] for l in levels])
    # first three cumulative stratum cut points of each group level * 2 + astar
    cut = np.cumsum([law.p_strata[(l, astar)] for l in levels for astar in (0, 1)],
                    axis=1)[:, :3]

    li = rng.choice(k, size=n, p=p_level)
    trial = rng.random(n) < p_r1[li]
    astar = (rng.random(n) < p_astar[li]).view(np.int8)
    u_s = rng.random(n)
    group = li * 2 + astar
    s = np.ones(n, dtype=np.int8)
    for cut_j in cut.T:
        s += u_s >= cut_j[group]
    del u_s, group  # freed before the coin draw, so the peak holds two columns fewer
    coin = (rng.random(n) < p_treat[li]).view(np.int8)
    a = np.where(trial, coin, astar)
    y = _OUTCOME[a * 5 + s]

    return Dataset(levels=levels, r=trial.view(np.int8), level_idx=li, a=a, y=y,
                   astar=astar if oracle else None, s=s if oracle else None, seed=seed)


# ---------------------------------------------------------------------------
# CSV writer, in the format ``data`` reads.  A dataset has few distinct lines
# (at most 8 per level, 64 in oracle mode), so the writer builds a table of
# those lines and moves rows into the text with one numpy gather.
# ---------------------------------------------------------------------------


def format_dataset_csv(data: Dataset) -> str:
    """CSV text of ``data``: each row is a cell code into a table of line strings.

    The code is mixed-radix over ``(R, level, A, Y[, ASTAR, S])`` in column
    order, so the table holds one line per possible cell.
    """
    columns = (data.r, data.level_idx, data.a, data.y)
    if data.has_oracle:
        columns += (data.astar, data.s)
    fields = [_CODED[0], ("L", range(len(data.levels))), *_CODED[1:]][:len(columns)]
    code = np.zeros(data.n, dtype=np.intp)
    for (name, values), column in zip(fields, columns):
        if np.any((column < values[0]) | (column > values[-1])):
            raise ValueError(f"column {name} contains values outside {tuple(values)}")
        code *= len(values)
        code += column
        code -= values[0]
    texts = [[str(v) for v in values] for _, values in fields]
    texts[1] = data.levels
    table = np.array([",".join(cell) + "\n" for cell in itertools.product(*texts)],
                     dtype=object)

    head = f"# pcg64 seed={data.seed} n={data.n}\n" if data.seed is not None else ""
    head += ",".join(name for name, _ in fields) + "\n"
    return head + "".join(table[code].tolist())
