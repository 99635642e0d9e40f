"""In-memory spans and the statistics rules the benchmark reports.

A :class:`SpanRecorder` keeps every span of a traced iteration in memory
as ``[name, layer, start, end, parent, op]`` rows (``parent`` is the
index of the enclosing span or -1, ``op`` the id of the operation — one
library call or CLI invocation — the span belongs to) and writes them
out as JSON lines once the iteration ends. Layer figures are computed
from the rows:

* ``self`` time of a span is its duration minus the part of its interval
  covered by its direct children;
* ``busy`` time of a layer is the length of the union of its spans'
  intervals (a span nested in a span of the same layer adds nothing).

Percentiles use the nearest-rank rule: ``percentile(samples, 90)`` over
100 samples is the 90th smallest, so exactly 10 samples lie beyond it.
"""

from __future__ import annotations

import csv
import math
import time
from pathlib import Path
from typing import Iterable, Sequence

NAME, LAYER, START, END, PARENT, OP = range(6)


class SpanRecorder:
    """Spans of one process, nested by a call stack, tagged by operation."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.rows: list[list] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []

    def begin_op(self) -> int:
        """Start a new operation; later spans carry its id."""
        self.op += 1
        return self.op

    def open(self, name: str, layer: str) -> int:
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, layer, self.clock(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.rows[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    def write(self, path: Path) -> None:
        """Tab-separated, one span a line; ``id`` is the row index."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
            writer.writerow(("id", "name", "layer", "start", "end", "parent", "op"))
            writer.writerows((index, *row) for index, row in enumerate(self.rows))


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(rows: Sequence[Sequence]) -> list[float]:
    """Per span: duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for row in rows:
        if row[PARENT] >= 0:
            parent = rows[row[PARENT]]
            start = max(row[START], parent[START])
            end = min(row[END], parent[END])
            if end > start:
                children.setdefault(row[PARENT], []).append((start, end))
    return [
        (row[END] - row[START]) - _union_length(children.get(index, ()))
        for index, row in enumerate(rows)
    ]


def layer_self(rows: Sequence[Sequence]) -> dict[str, float]:
    """Summed self time per layer."""
    totals: dict[str, float] = {}
    for row, own in zip(rows, self_times(rows)):
        totals[row[LAYER]] = totals.get(row[LAYER], 0.0) + own
    return totals


def layer_busy(rows: Sequence[Sequence]) -> dict[str, float]:
    """Length of the union of each layer's span intervals."""
    intervals: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        intervals.setdefault(row[LAYER], []).append((row[START], row[END]))
    return {layer: _union_length(spans) for layer, spans in intervals.items()}


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= q% at or below."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
