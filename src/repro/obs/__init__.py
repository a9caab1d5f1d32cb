"""repro.obs — the structured observability spine.

One event vocabulary (:mod:`repro.obs.events`), one publication point
(:class:`Tracer`), pluggable consumers (:mod:`repro.obs.sinks`), and a
replay path (:mod:`repro.obs.replay`) that reconstructs a tuning
session from its trace alone. Engine internals, the bench runner, the
service, the tuning loop, and the crash/chaos sweeps all publish here;
the CLIs' ``--trace-out`` and ``--quiet`` flags consume it.
"""

from repro.obs import console
from repro.obs.events import (
    TraceError,
    TraceEvent,
    event_from_dict,
    event_to_dict,
    event_types,
    from_jsonl_line,
    sample_events,
    to_jsonl_line,
)
from repro.obs.replay import (
    IterationTrace,
    SessionTrace,
    read_trace,
    summarize_session,
)
from repro.obs.sinks import JsonlSink, RingSink, TraceSink
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "NULL_TRACER",
    "IterationTrace",
    "JsonlSink",
    "RingSink",
    "SessionTrace",
    "TraceError",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "console",
    "event_from_dict",
    "event_to_dict",
    "event_types",
    "from_jsonl_line",
    "read_trace",
    "sample_events",
    "summarize_session",
    "to_jsonl_line",
]
