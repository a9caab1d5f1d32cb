"""Active Flagger (Figure 2).

Compares each iteration's benchmark metrics against the best-so-far,
keeps only beneficial changes, reverts otherwise, and composes the
intermediate "deterioration" feedback for the next prompt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bench_parser import BenchMetrics
from repro.obs.events import FlagDecisionEvent
from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class FlagDecision:
    """Keep-or-revert verdict for one iteration."""

    keep: bool
    improved: bool
    reason: str


class ActiveFlagger:
    """Throughput-first keep/revert policy with a p99 tiebreaker."""

    def __init__(
        self,
        *,
        min_gain: float = 0.0,
        p99_tiebreak_band: float = 0.02,
        tracer: Tracer | None = None,
    ) -> None:
        """``min_gain``: fractional throughput gain required to call a
        change an improvement. ``p99_tiebreak_band``: if throughput is
        within this band, a clear p99 win still counts as keepable."""
        if min_gain < 0:
            raise ValueError("min_gain cannot be negative")
        self.min_gain = min_gain
        self.p99_tiebreak_band = p99_tiebreak_band
        self.tracer = tracer

    def decide(self, best: BenchMetrics, candidate: BenchMetrics) -> FlagDecision:
        decision = self._decide(best, candidate)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                FlagDecisionEvent(
                    keep=decision.keep,
                    improved=decision.improved,
                    reason=decision.reason,
                    best_ops_per_sec=best.ops_per_sec,
                    candidate_ops_per_sec=candidate.ops_per_sec,
                )
            )
        return decision

    def _decide(self, best: BenchMetrics, candidate: BenchMetrics) -> FlagDecision:
        if candidate.aborted:
            return FlagDecision(
                keep=False,
                improved=False,
                reason="run aborted early: throughput collapsed under the "
                       "new configuration",
            )
        if candidate.better_than(best, tolerance=self.min_gain):
            return FlagDecision(
                keep=True,
                improved=True,
                reason=(
                    f"throughput improved from {best.ops_per_sec:.0f} to "
                    f"{candidate.ops_per_sec:.0f} ops/sec"
                ),
            )
        # Throughput within noise: accept a clear tail-latency win.
        within_band = candidate.ops_per_sec >= best.ops_per_sec * (
            1.0 - self.p99_tiebreak_band
        )
        if within_band and self._p99_improved(best, candidate):
            return FlagDecision(
                keep=True,
                improved=True,
                reason="throughput was steady while p99 latency improved",
            )
        return FlagDecision(
            keep=False,
            improved=False,
            reason=(
                f"throughput regressed from {best.ops_per_sec:.0f} to "
                f"{candidate.ops_per_sec:.0f} ops/sec; reverting to the "
                "previous configuration"
            ),
        )

    @staticmethod
    def _p99_improved(best: BenchMetrics, candidate: BenchMetrics) -> bool:
        pairs = [
            (best.p99_write_us, candidate.p99_write_us),
            (best.p99_read_us, candidate.p99_read_us),
        ]
        improved = False
        for old, new in pairs:
            if old is None or new is None:
                continue
            if new > old * 1.02:
                return False  # any clear regression disqualifies
            if new < old * 0.95:
                improved = True
        return improved
