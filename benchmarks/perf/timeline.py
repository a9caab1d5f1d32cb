"""Host-time recording: spans, a host-stamping trace sink, and the
repeat filter that makes a run on a shared host repeatable.

Everything here observes the program from outside: spans are opened by
the harness around its calls into a layer, and the sink stamps the
repo's own trace events with ``perf_counter`` as they pass.
"""

from __future__ import annotations

import json
import statistics
from bisect import bisect_right
from contextlib import contextmanager
from time import perf_counter

from repro.obs.sinks import TraceSink


class Recorder:
    """Spans of one round: ``[name, start, end, parent]``, kept in memory.

    ``name`` is ``<layer>.<what>``; ``parent`` is an index into the same
    list (-1 for the root). Spans are appended in start order for the
    ones the harness opens, and in bulk (``add``) for per-operation
    spans whose start and end the hot loop already stored.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.current()])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def current(self) -> int:
        """Index of the innermost open span (-1 outside any)."""
        return self._open[-1] if self._open else -1

    def add(self, name: str, start: float, end: float) -> None:
        """A closed child of the innermost open span."""
        self.spans.append([name, start, end, self.current()])

    def add_under(self, parents: list[tuple[float, float, int]], name: str, at: float) -> None:
        """A zero-length mark, parented to whichever ``(start, end,
        index)`` span in ``parents`` contains ``at`` (else the open one)."""
        # parents are sorted by start and do not overlap
        before = bisect_right(parents, (at, float("inf")))
        parent = self.current()
        if before and parents[before - 1][1] >= at:
            parent = parents[before - 1][2]
        self.spans.append([name, at, at, parent])

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its direct children cover."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def layer_self_seconds(rounds: list[Recorder]) -> dict[str, float]:
    """Self time per layer, each span filtered by :func:`fastest`
    across rounds (the rounds do identical work, span for span)."""
    names = [s[0] for s in rounds[0].spans]
    for rec in rounds[1:]:
        if [s[0] for s in rec.spans] != names:
            raise ValueError("rounds recorded different span sequences")
    own = fastest([rec.self_times() for rec in rounds])
    totals: dict[str, float] = {}
    for name, seconds in zip(names, own):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def write_spans(path: str, rounds: list[Recorder]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, rec in enumerate(rounds):
            for index, (name, start, end, parent) in enumerate(rec.spans):
                fh.write(json.dumps({
                    "round": number, "id": index, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


class HostStampSink(TraceSink):
    """Keeps ``(event type, host time, event)`` for every trace event.

    The repo's tracer stamps virtual time only; this is the host half
    of the same stream, taken without touching the program.
    """

    def __init__(self) -> None:
        self.stamps: list[tuple[str, float, object]] = []

    def emit(self, event) -> None:
        self.stamps.append((event.TYPE, perf_counter(), event))


# ------------------------------------------------------------ the filter

def fastest(rounds: list[list[float]]) -> list[float]:
    """Element-wise minimum over rounds of identical work.

    Every round of a run executes the same operations on the same
    inputs, so element *i* is the same work in each. What differs is the
    host: on the 2-core shared box a neighbour slows stretches of 0.2 to
    several seconds by 30-50%, and such noise only ever adds time. The
    minimum over rounds therefore estimates the undisturbed cost of each
    element, where a median of whole rounds moves 10-40% between runs.
    """
    if len({len(r) for r in rounds}) != 1:
        raise ValueError("rounds differ in length")
    return [min(column) for column in zip(*rounds)]


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted list."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def tail_mean(sorted_values: list[float], share: float = 0.01) -> float:
    """Mean of the slowest ``share`` of the values, at least five: the
    tail as one number that does not hinge on a single order statistic.
    (Over ten seeds the two slowest of ``tune``'s ~40 units spread 22%,
    the five slowest 8%.)"""
    if not sorted_values:
        return 0.0
    worst = sorted_values[-max(5, int(len(sorted_values) * share)):]
    return sum(worst) / len(worst)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance check computes them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3
