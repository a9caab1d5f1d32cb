"""Trace sinks: pluggable consumers of the event stream.

A sink receives every event the :class:`~repro.obs.tracer.Tracer`
publishes. Built-ins cover the two standing needs — in-memory
capture (:class:`RingSink`) and durable JSONL (:class:`JsonlSink`) —
and anything with an
``emit(event)`` method can subscribe (the benchmark monitor is a sink).
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING

from repro.obs.events import TraceEvent, to_jsonl_line

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer


class TraceSink:
    """Subscriber base class.

    ``attach`` is called when the sink joins a tracer, giving it the
    control channel (e.g. :meth:`~repro.obs.tracer.Tracer.request_abort`
    for the benchmark monitor). Sinks must not re-enter ``tracer.emit``
    from inside :meth:`emit`.
    """

    tracer: "Tracer | None" = None

    def attach(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def detach(self) -> None:
        self.tracer = None

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (flush files, etc.)."""


class RingSink(TraceSink):
    """Keeps every event in memory.

    The tuners' default capture: a session's trace lands here and is
    copied onto ``TuningSession.trace_events``, which rides back from a
    worker process inside the pickled session.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink(TraceSink):
    """Streams events as JSON Lines to a file path or text stream.

    A path is opened (and owned) by the sink; a stream is borrowed and
    only flushed on :meth:`close`. One event per line, sorted keys, so
    traces diff cleanly.
    """

    def __init__(self, destination: str | io.TextIOBase) -> None:
        if isinstance(destination, str):
            self._stream: io.TextIOBase = open(  # noqa: SIM115 - owned
                destination, "w", encoding="utf-8"
            )
            self._owns_stream = True
        else:
            self._stream = destination
            self._owns_stream = False
        self.events_written = 0

    def emit(self, event: TraceEvent) -> None:
        self._stream.write(to_jsonl_line(event) + "\n")
        self.events_written += 1

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
