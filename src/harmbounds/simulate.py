"""Random law generation, dataset sampling, and plug-in estimation.

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
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, PositivityError
from .laws import FullLaw, ObservedLaw


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
    ``seed`` is the PCG64 seed a sampled dataset was drawn with, and
    ``None`` for a dataset read from a file.
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


def estimate_observed_law(data: Dataset, smoothing: float = 0.0) -> ObservedLaw:
    """Plug-in observed law from cell frequencies.

    ``smoothing`` adds that count to every ``(y, a)`` cell within each
    ``(level, r)`` block before normalizing.  With zero smoothing, an
    empty block or an empty trial arm is an error naming the cell.
    """
    if not (math.isfinite(smoothing) and smoothing >= 0.0):
        raise ValueError("smoothing must be finite and non-negative")
    levels = data.levels
    k = len(levels)
    # flat code over (level, r, y, a)
    code = ((data.level_idx * 2 + data.r) * 2 + data.y) * 2 + data.a
    counts = np.bincount(code, minlength=k * 8).reshape(k, 2, 2, 2).astype(float)

    p_level = {}
    p_r1 = {}
    p_ya: dict[tuple[str, int], dict[tuple[int, int], float]] = {}
    n = data.n
    for i, l in enumerate(levels):
        level_total = counts[i].sum()
        p_level[l] = level_total / n
        p_r1[l] = (counts[i, 1].sum() / level_total) if level_total > 0 else 0.0
        for r in (0, 1):
            block = counts[i, r] + smoothing
            total = block.sum()
            if total <= 0.0:
                raise PositivityError(f"empty block (level {l!r}, R={r})")
            if r == 1 and smoothing == 0.0:
                for a in (0, 1):
                    if block[:, a].sum() == 0.0:
                        raise PositivityError(f"empty arm (level {l!r}, R=1, A={a})")
            p_ya[(l, r)] = {(y, a): float(block[y, a] / total)
                            for y in (0, 1) for a in (0, 1)}

    return ObservedLaw(levels=levels, p_level=p_level, p_r1=p_r1, p_ya=p_ya)


# ---------------------------------------------------------------------------
# CSV round-trip.  Header `R,L,A,Y` (+`,ASTAR,S` in oracle mode); a sampled
# dataset's file starts with the comment `# pcg64 seed=S n=N`, which the
# reader skips.  A dataset has few distinct lines (at most 8 per level, 64
# in oracle mode), so both directions work on a table of those lines and
# move rows with one numpy gather per column.
# ---------------------------------------------------------------------------

#: Integer-coded columns in file order and the values each allows.
_CODED = (("R", (0, 1)), ("A", (0, 1)), ("Y", (0, 1)), ("ASTAR", (0, 1)), ("S", (1, 2, 3, 4)))


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


def parse_dataset_csv(text: str) -> Dataset:
    """Parse dataset CSV text.

    Blank lines and lines starting with ``#`` are skipped wherever they
    occur, and fields are whitespace-stripped.  Error line numbers count
    the other lines, the header being line 1.  Each distinct line is split
    and checked once, and a row is kept as the id of its line.
    """
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__  # a line not seen before gets the next id
    lines = text.splitlines()
    row_ids = np.fromiter(map(ids.__getitem__, lines), dtype=np.intp, count=len(lines))
    distinct = list(ids)
    skip = np.array([not ln.strip() or ln.startswith("#") for ln in distinct], dtype=bool)
    kept = row_ids[~skip[row_ids]]
    if kept.size == 0:
        raise FileFormatError("dataset file has no header")
    header_line = distinct[kept[0]]
    header = [h.strip().upper() for h in header_line.split(",")]
    if header[:4] != ["R", "L", "A", "Y"]:
        raise FileFormatError("dataset header must start with R,L,A,Y")
    oracle = header == ["R", "L", "A", "Y", "ASTAR", "S"]
    if not oracle and header != ["R", "L", "A", "Y"]:
        raise FileFormatError(f"unrecognized dataset header {header_line!r}")
    rows = kept[1:]
    if rows.size == 0:
        raise FileFormatError("dataset file has no rows")

    width = 6 if oracle else 4
    parsed: dict[int, tuple[str, list[int]]] = {}
    errors: dict[int, str] = {}
    for i in np.flatnonzero(np.bincount(rows, minlength=len(distinct))).tolist():
        parts = [p.strip() for p in distinct[i].split(",")]
        if len(parts) != width:
            errors[i] = f"expected {width} fields, got {len(parts)}"
            continue
        try:
            coded = [int(p) for j, p in enumerate(parts) if j != 1]
        except ValueError:
            errors[i] = "non-integer coded field"
            continue
        if not parts[1]:
            errors[i] = "empty level label"
            continue
        parsed[i] = (parts[1], coded)
    if errors:
        first = int(np.flatnonzero(np.isin(rows, list(errors)))[0])
        raise FileFormatError(f"line {first + 2}: {errors[int(rows[first])]}")
    for j, (name, values) in enumerate(_CODED[:width - 1]):
        if any(coded[j] not in values for _, coded in parsed.values()):
            raise FileFormatError(f"column {name} contains values outside {values}")

    levels = tuple(sorted({label for label, _ in parsed.values()}))
    index = {l: i for i, l in enumerate(levels)}
    level_of = np.zeros(len(distinct), dtype=np.int64)
    coded_of = np.zeros((width - 1, len(distinct)), dtype=np.int8)
    for i, (label, coded) in parsed.items():
        level_of[i] = index[label]
        coded_of[:, i] = coded
    r, a, y, *oracle_cols = (column[rows] for column in coded_of)
    astar, s = oracle_cols or (None, None)
    return Dataset(levels=levels, r=r, level_idx=level_of[rows], a=a, y=y,
                   astar=astar, s=s, seed=None)


def read_dataset_file(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dataset_csv(fh.read())
