"""Data mode: dataset CSV files as per-cell row counts, and the plug-in law they estimate.

A plug-in estimate of the observed law needs only how many rows fall in
each coded cell, and a dataset has few distinct lines (at most 8 per
level, 64 in oracle mode).  So the reader counts distinct lines and keeps
no rows: its memory does not grow with the row count.  A sampled dataset
(``simulate.sample_dataset``) is a :class:`CellCounts` too.  Nothing here
loads numpy, so the ``--data`` commands start without it.

File format: header ``R,L,A,Y`` (``,ASTAR,S`` appended in oracle mode); a
sampled dataset's file starts with the comment ``# pcg64 seed=S n=N``.
Blank lines and lines starting with ``#`` are skipped wherever they occur,
and fields are whitespace-stripped.  Lines end at every line break
``str.splitlines`` honours.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .errors import FileFormatError, PositivityError
from .laws import ObservedLaw, _reduce

#: Integer-coded columns in file order and the values each allows.
_CODED = (("R", (0, 1)), ("A", (0, 1)), ("Y", (0, 1)), ("ASTAR", (0, 1)), ("S", (1, 2, 3, 4)))


@dataclass(frozen=True)
class CellCounts:
    """How many rows of a dataset fall in each coded cell, read from a file or sampled.

    ``counts`` maps a cell ``(r, level index, a, y)``, with ``(astar, s)``
    appended in oracle mode, to its number of rows; cells without rows are
    left out.  The level index points into ``levels``.
    """

    levels: tuple[str, ...]
    counts: Mapping[tuple[int, ...], int]
    has_oracle: bool

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))

    @property
    def n(self) -> int:
        return sum(self.counts.values())


def estimate_observed_law(data: CellCounts, smoothing: float = 0.0) -> ObservedLaw:
    """Plug-in observed law from cell frequencies.

    ``smoothing`` adds that count to every ``(y, a)`` cell within each
    ``(level, r)`` block before normalizing.  With zero smoothing, an empty
    block or an empty trial arm is an error naming the cell.
    """
    if not (math.isfinite(smoothing) and smoothing >= 0.0):
        raise ValueError("smoothing must be finite and non-negative")
    levels = data.levels
    counts = [[[[0, 0], [0, 0]] for _r in (0, 1)] for _l in levels]  # [level][r][y][a]
    for (r, i, a, y, *_oracle), count in data.counts.items():
        counts[i][r][y][a] += count

    p_level = {}
    p_r1 = {}
    p_ya: dict[tuple[str, int], dict[tuple[int, int], float]] = {}
    n = data.n
    for l, by_r in zip(levels, counts):
        rows = [sum(by_r[r][0]) + sum(by_r[r][1]) for r in (0, 1)]
        level_total = rows[0] + rows[1]
        p_level[l] = level_total / n
        p_r1[l] = rows[1] / level_total if level_total > 0 else 0.0
        for r in (0, 1):
            block = [[count + smoothing for count in row] for row in by_r[r]]
            (b00, b01), (b10, b11) = block
            # Added left to right: sum() rounds differently on Python 3.12 and later.
            total = ((b00 + b01) + b10) + b11
            if total <= 0.0:
                raise PositivityError(f"empty block (level {l!r}, R={r})")
            if r == 1 and smoothing == 0.0:
                for a in (0, 1):
                    if block[0][a] + block[1][a] == 0.0:
                        raise PositivityError(f"empty arm (level {l!r}, R=1, A={a})")
            p_ya[(l, r)] = {(y, a): block[y][a] / total for y in (0, 1) for a in (0, 1)}

    return ObservedLaw(levels=levels, p_level=p_level, p_r1=p_r1, p_ya=p_ya)


def _count_cells(lines: Mapping[str, int], walk: Callable[[], Iterable[str]]) -> CellCounts:
    """Cell counts from the number of times each distinct line occurs.

    ``lines`` holds the distinct lines in the order they first occur, so
    its first kept line is the header.  Each distinct line is split and
    checked once.  ``walk()`` yields every line in file order; it runs
    only to number the first bad line, the header being line 1 and blank
    and ``#`` lines not counted.
    """
    kept = {line: count for line, count in lines.items()
            if line.strip() and not line.startswith("#")}
    if not kept:
        raise FileFormatError("dataset file has no header")
    header_line = next(iter(kept))
    header = [h.strip().upper() for h in header_line.split(",")]
    if header[:4] != ["R", "L", "A", "Y"]:
        raise FileFormatError("dataset header must start with R,L,A,Y")
    oracle = header == ["R", "L", "A", "Y", "ASTAR", "S"]
    if not oracle and header != ["R", "L", "A", "Y"]:
        raise FileFormatError(f"unrecognized dataset header {header_line!r}")
    kept[header_line] -= 1  # a repeat of the header is a row
    if not any(kept.values()):
        raise FileFormatError("dataset file has no rows")

    width = 6 if oracle else 4
    cells: Counter[tuple] = Counter()  # (label, *coded fields) -> rows
    errors: dict[str, str] = {}
    for line, count in kept.items():
        if not count:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != width:
            errors[line] = f"expected {width} fields, got {len(parts)}"
            continue
        try:
            coded = [int(p) for j, p in enumerate(parts) if j != 1]
        except ValueError:
            errors[line] = "non-integer coded field"
            continue
        if not parts[1]:
            errors[line] = "empty level label"
            continue
        cells[(parts[1], *coded)] += count
    if errors:
        rows = (line for line in walk() if line.strip() and not line.startswith("#"))
        next(rows)  # the header
        for number, line in enumerate(rows, 2):
            if line in errors:
                raise FileFormatError(f"line {number}: {errors[line]}")
        raise FileFormatError("dataset file changed while it was read")
    for j, (name, values) in enumerate(_CODED[:width - 1], 1):
        if any(cell[j] not in values for cell in cells):
            raise FileFormatError(f"column {name} contains values outside {values}")

    levels = tuple(sorted({cell[0] for cell in cells}))
    index = {l: i for i, l in enumerate(levels)}
    return CellCounts(levels=levels, has_oracle=oracle,
                      counts={(r, index[label], *rest): count
                              for (label, r, *rest), count in cells.items()})


def parse_dataset_csv(text: str) -> CellCounts:
    """Count the rows of dataset CSV text by cell.

    Error line numbers count the lines that are neither blank nor ``#``
    comments, the header being line 1.
    """
    return _count_cells(Counter(text.splitlines()), text.splitlines)


def read_dataset_file(path: str) -> CellCounts:
    """Count the rows of a UTF-8 dataset CSV file by cell, as :func:`parse_dataset_csv` would.

    The file is streamed as bytes, which split only at ``b"\\n"``; each
    distinct byte line is decoded once and split at the other line breaks,
    so only the distinct lines are held.
    """
    with open(path, "rb") as fh:
        raw = Counter(fh)
    lines: Counter[str] = Counter()
    try:
        for line, count in raw.items():
            for piece in line.decode("utf-8").splitlines():
                lines[piece] += count
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            fh.read().decode("utf-8")  # the same error, its position counted from the file start
        raise

    def walk() -> Iterable[str]:
        with open(path, "rb") as fh:
            for line in fh:
                yield from line.decode("utf-8").splitlines()

    return _count_cells(lines, walk)
