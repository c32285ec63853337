"""Random law generation, dataset sampling, and the dataset CSV writer.

All randomness flows through numpy's PCG64 generator seeded explicitly, so
every artifact is reproducible from ``(seed, arguments)`` alone; a dataset
file records its seed.  A sampled dataset is a function of ``(law, n,
seed, oracle)`` alone, kept as :class:`~harmbounds.data.CellCounts`
(:func:`sample_dataset`) or written as CSV (:func:`format_dataset_csv`).

Sampling follows the causal ordering of the model: level, then trial
participation, then intention (independent of participation within a
level), then stratum, then assignment (a coin inside the trial, the
intention outside), then the outcome the stratum dictates for the
received treatment.  Those five draws are five columns of the one PCG64
stream seeded with ``seed``: ``choice`` for the level, then ``random``
for R, A*, the stratum uniform and the coin, each taking one 64-bit
output per row, so column ``j`` takes outputs ``j * n`` to
``(j + 1) * n - 1``.  Each column has its own generator, started there
with ``PCG64.advance``, and rows are drawn in chunks of at most
``CHUNK_ROWS``; the rows do not depend on the chunk size, and the
``simulate`` writer holds one chunk at a time however large ``n`` is.

The stratum is read from a ``(2k, 3)`` table of cut points: row
``level * 2 + astar`` holds the first three cumulative sums of that
group's stratum vector, and a row's stratum is one plus the number of
cut points its uniform reaches.  The fourth sum is left out: the sums
never decrease, so a uniform that reaches it has reached the first three,
and its row is in stratum 4 either way.  The outcome is read from a table indexed
by received treatment and stratum, so no per-row temporary is wider
than one column.

A dataset has one distinct line per coded cell (at most 8 per level, 64
in oracle mode), so the CSV writer builds a table of those lines and
turns a chunk of the cell codes ``sample_dataset`` bins into text with
one gather from it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

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
    k = n_levels
    levels = tuple(f"l{i}" for i in range(k))
    # One draw of 12k uniforms, each mapped to lo + (hi - lo) * u as Generator.uniform
    # maps it, gives what one call per table drew: k P(L) weights, k each of P(A*=1|L),
    # P(R=1|L) and P(A=1|L,R=1), then four stratum weights per level and A* = 1, 0.
    lo, hi = np.repeat([[0.1, 0.2, 0.35, 0.35, 0.05], [1.0, 0.8, 0.65, 0.65, 1.0]],
                       (k, k, k, k, 8 * k), axis=1)
    u = lo + (hi - lo) * np.random.default_rng(seed).random(12 * k)
    weights, strata = u[:k], u[4 * k:].reshape(2 * k, 4)
    p_level, p_astar, p_r1, p_treat = (dict(zip(levels, table)) for table in (
        (weights / weights.sum()).tolist(), *u[k:4 * k].reshape(3, k).tolist()))
    blocks = map(tuple, (strata / strata.sum(axis=1, keepdims=True)).tolist())
    p_strata = dict(zip([(l, astar) for l in levels for astar in (1, 0)], blocks))

    return FullLaw(levels=levels, p_level=p_level, p_astar=p_astar,
                   p_strata=p_strata, p_r1=p_r1, p_treat=p_treat)


#: Outcome ``Y`` at flat index ``a * 5 + s``: ``Y^1`` is 1 in strata 1 and 3,
#: ``Y^0`` in strata 2 and 3 (index ``s = 0`` is unused).
_OUTCOME = np.array([0, 0, 1, 1, 0,
                     0, 1, 0, 1, 0], dtype=np.int8)

#: Rows drawn, and written, at a time.
CHUNK_ROWS = 2**16


def _sample_chunks(law: FullLaw, n: int, seed: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Columns ``(R, level index, A, Y, A*, S)`` of ``n`` rows, in chunks of at most ``CHUNK_ROWS``.

    ``n`` is checked at once; the rows are drawn as the chunks are taken.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # Column j takes draws j * n, j * n + 1, ... of the stream seeded with ``seed``.
    level_rng, r_rng, astar_rng, stratum_rng, coin_rng = (
        np.random.Generator(np.random.PCG64(seed).advance(j * n)) for j in range(5))
    levels = law.levels
    k = len(levels)
    # a law may hold P(L) down to -SUM_TOL, which choice() refuses; such a level gets no rows
    p_level = np.array([max(0.0, law.p_level[l]) for l in levels])
    p_level = p_level / p_level.sum()
    p_r1 = np.array([law.p_r1[l] for l in levels])
    p_astar = np.array([law.p_astar[l] for l in levels])
    p_treat = np.array([law.p_treat[l] for l in levels])
    # first three cumulative stratum cut points of each group level * 2 + astar
    cut = np.cumsum([law.p_strata[(l, astar)] for l in levels for astar in (0, 1)],
                    axis=1)[:, :3]

    def draw(m: int) -> tuple[np.ndarray, ...]:
        li = level_rng.choice(k, size=m, p=p_level)
        trial = r_rng.random(m) < p_r1[li]
        astar = (astar_rng.random(m) < p_astar[li]).view(np.int8)
        u_s = stratum_rng.random(m)
        group = li * 2 + astar
        s = np.ones(m, dtype=np.int8)
        for cut_j in cut.T:
            s += u_s >= cut_j[group]
        coin = (coin_rng.random(m) < p_treat[li]).view(np.int8)
        a = np.where(trial, coin, astar)
        return trial.view(np.int8), li, a, _OUTCOME[a * 5 + s], astar, s

    return map(draw, (min(CHUNK_ROWS, n - start) for start in range(0, n, CHUNK_ROWS)))


def _coded_fields(n_levels: int, oracle: bool) -> list[tuple[str, Sequence[int]]]:
    """Each file column's name and the values it codes, in file order."""
    return [_CODED[0], ("L", range(n_levels)), *_CODED[1:]][:6 if oracle else 4]


def _cell_code(fields: list[tuple[str, Sequence[int]]], columns: tuple) -> np.ndarray:
    """Each row's cell code, mixed-radix over ``fields``; columns past the fields are ignored."""
    code = np.zeros(len(columns[0]), dtype=np.intp)
    for (_, values), column in zip(fields, columns):
        code *= len(values)
        code += column
        code -= values[0]
    return code


def sample_dataset(law: FullLaw, n: int, seed: int, oracle: bool = False) -> CellCounts:
    """Draw ``n`` rows of the observed-data law of ``law``, counted by cell a chunk at a time."""
    fields = _coded_fields(len(law.levels), oracle)
    cells = list(itertools.product(*(values for _, values in fields)))
    counts = sum(np.bincount(_cell_code(fields, chunk), minlength=len(cells))
                 for chunk in _sample_chunks(law, n, seed))
    return CellCounts(levels=law.levels, has_oracle=oracle,
                      counts={cell: c for cell, c in zip(cells, counts.tolist()) if c})


# ---------------------------------------------------------------------------
# CSV writer, in the format ``data`` reads.
# ---------------------------------------------------------------------------


class _LineTable:
    """Every line a dataset of ``levels`` can hold, as one fixed-width table of UTF-8 lines.

    A row's line sits at its cell code.  Lines are right-padded to a
    common width with ``0xFF``, a byte UTF-8 never contains, so the text
    of many rows is one gather from the table with the padding deleted.
    """

    def __init__(self, levels: tuple[str, ...], oracle: bool):
        for label in levels:
            if "," in label:
                raise ValueError(f"level label {label!r} contains ',', "
                                 "which a dataset CSV field cannot hold")
        self.fields = _coded_fields(len(levels), oracle)
        texts = [[str(v) for v in values] for _, values in self.fields]
        texts[1] = levels
        lines = [(",".join(cell) + "\n").encode("utf-8") for cell in itertools.product(*texts)]
        width = max(map(len, lines))
        self.table = np.array([line.ljust(width, b"\xff") for line in lines], dtype=f"S{width}")
        self.padded = any(len(line) < width for line in lines)

    def header(self, seed: int, n: int) -> str:
        """The seed comment, then the column names."""
        return f"# pcg64 seed={seed} n={n}\n" + ",".join(name for name, _ in self.fields) + "\n"

    def text(self, columns: tuple[np.ndarray, ...]) -> str:
        """The lines of the rows whose file columns are ``columns``; later columns are ignored."""
        raw = self.table.take(_cell_code(self.fields, columns)).tobytes()
        return (raw.translate(None, b"\xff") if self.padded else raw).decode("utf-8")


def dataset_csv_chunks(law: FullLaw, n: int, seed: int, oracle: bool = False) -> Iterator[str]:
    """CSV text of the rows ``sample_dataset(law, n, seed, oracle)`` counts, in pieces.

    The header comes first, then the lines of each chunk of at most
    ``CHUNK_ROWS`` rows, drawn as it is taken, so memory does not grow
    with ``n``.  An ``n`` below 1 or a level label the CSV format cannot
    hold raises here, before any piece is taken.
    """
    lines = _LineTable(law.levels, oracle)
    chunks = _sample_chunks(law, n, seed)
    # Not map(): freeing each chunk before the next is drawn cost 5.7x the minor page faults.
    return itertools.chain([lines.header(seed, n)], (lines.text(chunk) for chunk in chunks))


def format_dataset_csv(law: FullLaw, n: int, seed: int, oracle: bool = False) -> str:
    """The whole of :func:`dataset_csv_chunks` as one string."""
    return "".join(dataset_csv_chunks(law, n, seed, oracle))
