"""The tracer: one publication point for the whole system.

Producers (engine, bench runner, service, tuning loop) call
:meth:`Tracer.emit`; subscribed sinks receive every event, stamped with
the bound *virtual* clock. Two extra facilities make this the system's
spine rather than just a logger:

* **Nestable spans** — :meth:`Tracer.span` wraps a region of work in
  ``span.begin``/``span.end`` events whose duration is virtual-clock
  time, so traces show where simulated time went.
* **An abort channel** — any sink may call :meth:`request_abort`
  (the benchmark monitor does, when throughput collapses); the producer
  driving the loop polls :meth:`take_abort` and winds down cleanly.

When no sinks are attached, :meth:`emit` is a cheap no-op and producers
can skip even *constructing* events by checking :attr:`enabled` — that
is the null-sink fast path the engine microbench budget relies on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.events import SpanBegin, SpanEnd, TraceEvent
from repro.obs.sinks import TraceSink


class Tracer:
    """Publishes events to attached sinks with virtual-time stamps."""

    __slots__ = ("_sinks", "_now", "_abort_reason", "_span_stack")

    def __init__(self, *sinks: TraceSink) -> None:
        self._sinks: list[TraceSink] = []
        self._now: Callable[[], float] | None = None
        self._abort_reason: str | None = None
        self._span_stack: list[str] = []
        for sink in sinks:
            self.add_sink(sink)

    # -- subscription ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when at least one sink will see emitted events."""
        return bool(self._sinks)

    def add_sink(self, sink: TraceSink) -> TraceSink:
        sink.attach(self)
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)
            sink.detach()

    def close(self) -> None:
        """Close every sink (files flushed) and unsubscribe them."""
        for sink in self._sinks:
            sink.close()
            sink.detach()
        self._sinks.clear()

    # -- clock -------------------------------------------------------------

    def bind_clock(self, now_us: Callable[[], float]) -> None:
        """Stamp subsequent events from this virtual-clock reader.

        The engine binds its :class:`~repro.sim.clock.SimClock` here at
        open; each bench run rebinds, so timestamps are per-run virtual
        time — deterministic, never host wall-clock.
        """
        self._now = now_us

    def now_us(self) -> float:
        return self._now() if self._now is not None else 0.0

    # -- publication -------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        """Stamp ``event`` with virtual time and fan out to all sinks."""
        sinks = self._sinks
        if not sinks:
            return
        if self._now is not None:
            event.t_us = self._now()
        for sink in sinks:
            sink.emit(event)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Bracket a region of work in begin/end events.

        Spans nest: ``depth`` records the nesting level at entry, and
        ``span.end`` carries the virtual microseconds spent inside.
        Disabled tracers skip event construction entirely.
        """
        if not self._sinks:
            yield
            return
        depth = len(self._span_stack)
        self._span_stack.append(name)
        start_us = self.now_us()
        self.emit(SpanBegin(name, depth))
        try:
            yield
        finally:
            self._span_stack.pop()
            self.emit(SpanEnd(name, depth, self.now_us() - start_us))

    # -- control channel ---------------------------------------------------

    def request_abort(self, reason: str) -> None:
        """Ask the producer driving the current loop to stop early."""
        if self._abort_reason is None:
            self._abort_reason = reason

    @property
    def abort_requested(self) -> bool:
        return self._abort_reason is not None

    def take_abort(self) -> str | None:
        """Consume a pending abort request (None when there is none)."""
        reason = self._abort_reason
        self._abort_reason = None
        return reason


#: Shared disabled tracer: the default for every producer, so "no
#: observability" costs one truthiness check per would-be event.
NULL_TRACER = Tracer()
