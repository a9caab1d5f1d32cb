"""Benchmark Monitor (Figure 2, "First 30s" early-stop check).

Watches a run's progress stream; if, after a warmup window, throughput
sits far below the best configuration's, the run is aborted so the
flagger can revert without paying for a full benchmark.

The monitor is a :class:`~repro.obs.sinks.TraceSink`: attached to the
benchmark's tracer it consumes ``bench.progress`` (or
``service.progress``) events and requests an abort through the
tracer's control channel.
"""

from __future__ import annotations

from repro.obs.events import BenchProgress, ServiceProgress, TraceEvent
from repro.obs.sinks import TraceSink

#: The paper checks after the first 30 seconds of a minutes-long run;
#: scaled runs check after the equivalent fraction of their ops.
_WARMUP_FRACTION = 0.2
#: Abort when throughput falls below this share of the reference.
_ABORT_RATIO = 0.5


class BenchmarkMonitor(TraceSink):
    """Early-stop policy as a trace subscriber."""

    def __init__(self, reference_ops_per_sec: float | None) -> None:
        super().__init__()
        self.reference = reference_ops_per_sec
        self.fired = False

    def emit(self, event: TraceEvent) -> None:
        """Sink protocol: watch progress samples, request aborts.

        ``service.progress`` carries the same first four fields as
        ``bench.progress``, so service benchmarks get the same
        early-stop policy.
        """
        if (
            type(event) not in (BenchProgress, ServiceProgress)
            or self.fired
            or self.reference is None
            or event.ops_done < event.total_ops * _WARMUP_FRACTION
            or event.ops_per_sec >= self.reference * _ABORT_RATIO
        ):
            return
        self.fired = True
        if self.tracer is not None:
            self.tracer.request_abort(
                f"throughput {event.ops_per_sec:.0f} ops/s below "
                f"{_ABORT_RATIO:.0%} of reference "
                f"{self.reference:.0f} ops/s"
            )
