"""In-memory span and counter recorder for the traced benchmark run.

Spans are recorded from outside the library, around each call into one of
its public functions.  A span holds its name, start and end times
(``time.perf_counter`` seconds), the index of the span that was open when
it started, and the id of the operation it belongs to (None for work
outside an operation, such as scene generation).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += int(amount)

    def self_ms(self) -> dict[str, float]:
        """Summed self time per span name, in ms.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap in a single thread.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + seconds * 1e3
        return totals

    def total_ms(self, name: str) -> float:
        """Summed wall duration of every span called name, in ms."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name) * 1e3

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op_id"],
                "spans": self.spans,
                "counts": dict(self.counts),
                "self_ms": self.self_ms(),
            }, fh)
