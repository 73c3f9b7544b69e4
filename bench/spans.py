"""In-memory span recorder and the statistics the benchmark reports.

A span is (name, start, end, parent, op): parent is the index of the
enclosing span or None, op the id of the benchmark operation it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records spans and per-layer counts of one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")


class NullTracer:
    """Tracer of the untraced run: records nothing."""

    op = None

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part of
    its interval that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks; agrees with
    statistics.quantiles(method="inclusive")."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
