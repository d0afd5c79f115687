"""In-memory spans and the per-layer self times derived from them.

A span is ``[id, parent_id, name, start_ns, end_ns]``; the layer of a span
is the part of its name before the first dot (``corpus.extract`` belongs
to ``corpus``).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[list] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id,
                       "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1][0] if tracer._stack else None
        record = [len(tracer.spans), parent, self.name, perf_counter_ns(), 0]
        tracer.spans.append(record)
        tracer._stack.append(record)

    def __exit__(self, *exc):
        self.tracer._stack.pop()[4] = perf_counter_ns()


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def span_totals(spans: list[list]) -> dict[str, int]:
    """Summed duration per span name, in nanoseconds."""
    totals: dict[str, int] = defaultdict(int)
    for _, _, name, start, end in spans:
        totals[name] += end - start
    return totals


def self_times(spans: list[list]) -> dict[str, int]:
    """Per layer, span durations minus the time their child spans cover.

    One thread runs every span, so children never overlap and their
    durations can simply be subtracted.  Over a complete tree the values
    sum to the duration of the root span.
    """
    covered: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    result: dict[str, int] = defaultdict(int)
    for span_id, _, name, start, end in spans:
        result[layer(name)] += end - start - covered[span_id]
    return result
