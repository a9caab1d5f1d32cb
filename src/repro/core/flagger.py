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


#: If throughput is within this band of the best, a clear p99 win
#: still counts as keepable.
_P99_TIEBREAK_BAND = 0.02


class ActiveFlagger:
    """Throughput-first keep/revert policy with a p99 tiebreaker.

    Any throughput gain is an improvement. The tuner attaches its
    tracer, so each decision lands in the session trace.
    """

    def __init__(self) -> None:
        self.tracer: Tracer | None = None

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
        if candidate.better_than(best):
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
            1.0 - _P99_TIEBREAK_BAND
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
