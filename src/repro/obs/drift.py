"""Workload drift detection over the progress stream.

The :class:`DriftDetector` characterizes the current workload phase in
rolling windows of ``service.progress`` samples — read/write mix from
reads-done deltas, and a key-skew proxy from the block-cache hit rate
(a zipfian phase concentrates on hot blocks and lifts the rate; a
uniform phase dilutes it). When a window's characterization moves past
a threshold against the previous window, the detector produces a
``workload.drift`` event.

The one way to consume it is :meth:`DriftDetector.observe`, called
from a progress callback (the online tuner's): it returns the drift
event, if any, for the caller to act on and emit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import ServiceProgress, TraceEvent, WorkloadDrift

#: Absolute read-mix delta between windows that counts as drift.
_READ_MIX_THRESHOLD = 0.15
#: Absolute cache-hit-rate delta between windows that counts as drift
#: (the key-skew proxy).
_HIT_RATE_THRESHOLD = 0.10


@dataclass(frozen=True)
class DriftConfig:
    """Windowing and sensitivity knobs."""

    #: Ops per characterization window (boundaries land on multiples).
    window_ops: int = 4000
    #: Hysteresis: minimum completed ops between two emitted drift
    #: events. The detector adopts each window as the new baseline, so
    #: without a cooldown an alternating A/B/A/B workload fires at
    #: *every* window boundary forever — a wake storm for the online
    #: tuner. Default: two default windows. 0 disables the cooldown.
    min_ops_between_emits: int = 8000

    def __post_init__(self) -> None:
        if self.window_ops < 1:
            raise ValueError("window_ops must be positive")
        if self.min_ops_between_emits < 0:
            raise ValueError("min_ops_between_emits cannot be negative")


class DriftDetector:
    """Rolling-window phase characterization over progress samples."""

    def __init__(self, config: DriftConfig | None = None) -> None:
        self.config = config if config is not None else DriftConfig()
        self._last_ops = 0
        self._last_reads = 0
        self._prev_mix: float | None = None
        self._prev_hit: float | None = None
        self._next_boundary = self.config.window_ops
        self._last_emit_ops: int | None = None

    def observe(self, event: TraceEvent) -> WorkloadDrift | None:
        """Feed one event; returns a drift event when a window closes
        with a characterization shift, else None."""
        if type(event) is not ServiceProgress:
            return None
        if event.ops_done < self._next_boundary:
            return None
        window_ops = event.ops_done - self._last_ops
        window_reads = event.reads_done - self._last_reads
        mix = window_reads / window_ops if window_ops > 0 else 0.0
        hit = event.cache_hit_rate
        # Hysteresis: inside the cooldown the window still rolls (the
        # baseline keeps tracking the live mix) but nothing is emitted.
        in_cooldown = (
            self._last_emit_ops is not None
            and event.ops_done - self._last_emit_ops
            < self.config.min_ops_between_emits
        )
        drift: WorkloadDrift | None = None
        if in_cooldown:
            pass
        elif (
            self._prev_mix is not None
            and abs(mix - self._prev_mix) >= _READ_MIX_THRESHOLD
        ):
            drift = WorkloadDrift("read_fraction", self._prev_mix, mix, window_ops)
        elif (
            self._prev_hit is not None
            and abs(hit - self._prev_hit) >= _HIT_RATE_THRESHOLD
        ):
            drift = WorkloadDrift("cache_hit_rate", self._prev_hit, hit, window_ops)
        self._prev_mix = mix
        self._prev_hit = hit
        self._last_ops = event.ops_done
        self._last_reads = event.reads_done
        self._next_boundary = (
            event.ops_done // self.config.window_ops + 1
        ) * self.config.window_ops
        if drift is not None:
            drift.t_us = event.t_us
            self._last_emit_ops = event.ops_done
        return drift

