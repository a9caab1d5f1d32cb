"""Write controller: slowdown and stop decisions.

Mirrors RocksDB's write-stall state machine: L0 file count and pending
compaction debt move the DB between NORMAL, DELAYED (writes are paced at
``delayed_write_rate``), and STOPPED (writers wait for background work).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lsm.options import Options
from repro.obs.events import WriteStateChange

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer


class WriteState(str, enum.Enum):
    NORMAL = "normal"
    DELAYED = "delayed"
    STOPPED = "stopped"


@dataclass(frozen=True)
class StallDecision:
    """The controller's verdict for the current write."""

    state: WriteState
    #: Why the state was entered (for stats/prompt text).
    reason: str = ""
    #: Bytes/sec pacing when DELAYED.
    delayed_rate: int = 0


_NORMAL = StallDecision(WriteState.NORMAL)


class WriteController:
    """Policy object: inputs in, decision out.

    The stall thresholds are resolved from the options once at
    construction — this runs before every single write. When the live
    configuration changes (``DB.set_options``), the owner calls
    :meth:`refresh_thresholds` to re-derive the snapshot; the last
    decided write state survives the refresh so state *transitions*
    keep publishing to the trace spine correctly.
    """

    def __init__(
        self, options: Options, tracer: "Tracer | None" = None
    ) -> None:
        self._options = options
        # Tracing is resolved once: this runs before every write, so
        # a disabled tracer must cost a single None check.
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._last_state = WriteState.NORMAL
        self.refresh_thresholds()

    def refresh_thresholds(self) -> None:
        """Re-derive every cached threshold from the bound options.

        Idempotent and transition-safe: ``_last_state`` is untouched, so
        a stall entered under the old thresholds still publishes its
        return to NORMAL under the new ones.
        """
        options = self._options
        self._max_bufs = options.get("max_write_buffer_number")
        self._l0_stop = options.get("level0_stop_writes_trigger")
        self._l0_slowdown = options.get("level0_slowdown_writes_trigger")
        self._hard_pending = options.get("hard_pending_compaction_bytes_limit")
        self._soft_pending = options.get("soft_pending_compaction_bytes_limit")
        self._delayed_rate = options.get("delayed_write_rate")
        # `clear()` thresholds: NORMAL holds iff every input sits strictly
        # below these. Immutable-memtable pressure delays one buffer
        # early when three or more are configured; zero pending limits
        # mean "unlimited".
        self._imm_clear_below = (
            self._max_bufs - 1 if self._max_bufs >= 3 else self._max_bufs
        )
        self._l0_clear_below = min(self._l0_stop, self._l0_slowdown)
        pending_limits = [
            limit for limit in (self._hard_pending, self._soft_pending) if limit
        ]
        self._pending_clear_below = (
            min(pending_limits) if pending_limits else float("inf")
        )

    def clear(
        self,
        l0_files: int,
        immutable_memtables: int,
        pending_compaction_bytes: int,
    ) -> bool:
        """Fast-path verdict: True iff :meth:`decide` would say NORMAL.

        Positional, three comparisons, no decision object — this runs
        before every write. Returns False (forcing the full
        :meth:`decide` path) whenever a stall applies *or* a traced
        state transition back to NORMAL still needs to be published.
        """
        if (
            immutable_memtables >= self._imm_clear_below
            or l0_files >= self._l0_clear_below
            or pending_compaction_bytes >= self._pending_clear_below
        ):
            return False
        return self._tracer is None or self._last_state is WriteState.NORMAL

    def decide(
        self,
        *,
        l0_files: int,
        immutable_memtables: int,
        pending_compaction_bytes: int,
    ) -> StallDecision:
        decision = self._decide(
            l0_files=l0_files,
            immutable_memtables=immutable_memtables,
            pending_compaction_bytes=pending_compaction_bytes,
        )
        if self._tracer is not None and decision.state is not self._last_state:
            self._last_state = decision.state
            self._tracer.emit(
                WriteStateChange(decision.state.value, decision.reason)
            )
        return decision

    def _decide(
        self,
        *,
        l0_files: int,
        immutable_memtables: int,
        pending_compaction_bytes: int,
    ) -> StallDecision:
        max_bufs = self._max_bufs
        if immutable_memtables >= max_bufs:
            # Every buffer is immutable: writers must wait for a flush.
            return StallDecision(WriteState.STOPPED, "memtable limit")
        if l0_files >= self._l0_stop:
            return StallDecision(WriteState.STOPPED, "level0 stop trigger")
        hard = self._hard_pending
        if hard and pending_compaction_bytes >= hard:
            return StallDecision(WriteState.STOPPED, "pending compaction bytes (hard)")
        rate = self._delayed_rate
        if l0_files >= self._l0_slowdown:
            return StallDecision(
                WriteState.DELAYED, "level0 slowdown trigger", delayed_rate=rate
            )
        soft = self._soft_pending
        if soft and pending_compaction_bytes >= soft:
            return StallDecision(
                WriteState.DELAYED, "pending compaction bytes (soft)",
                delayed_rate=rate,
            )
        # RocksDB only *delays* on immutable-memtable pressure when there
        # are three or more buffers; with two, pressure resolves as a
        # hard wait at rotation time instead.
        if max_bufs >= 3 and immutable_memtables >= max_bufs - 1:
            return StallDecision(
                WriteState.DELAYED, "too many immutable memtables",
                delayed_rate=rate,
            )
        return _NORMAL

    def delay_us_for(self, decision: StallDecision, write_bytes: int) -> float:
        """Pacing delay charged to one write while DELAYED."""
        if decision.state is not WriteState.DELAYED or decision.delayed_rate <= 0:
            return 0.0
        return write_bytes / decision.delayed_rate * 1e6
