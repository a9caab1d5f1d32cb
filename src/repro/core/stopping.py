"""Stopping criteria for the tuning loop.

The paper stops on "minimal performance improvement or a maximum number
of iterations"; both are modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bench_parser import BenchMetrics


@dataclass(frozen=True)
class StoppingCriteria:
    """When ELMo-Tune declares the session finished."""

    #: Hard cap on tuning iterations (the paper runs 7).
    max_iterations: int = 7
    #: Stop early after this many consecutive non-improving iterations
    #: (None disables the patience rule).
    patience: int | None = None
    #: Fractional gain below which an improvement counts as "minimal".
    minimal_gain: float = 0.01

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be positive when set")


class StopTracker:
    """Evaluates the criteria as iterations complete.

    ``minimal_gain`` participates in the patience rule: an iteration
    only resets the no-improvement streak when the flagger called it an
    improvement *and* the best throughput actually rose by at least the
    minimal fractional gain over the previous best. Marginal wins
    (kept, but below the threshold) therefore still count toward
    "minimal performance improvement" stopping, as the paper describes.
    """

    def __init__(self, criteria: StoppingCriteria) -> None:
        self.criteria = criteria
        self._no_improvement_streak = 0
        self._iterations_done = 0
        self._minimal_only = False
        #: Best ops/sec at the *previous* record (None until seeded).
        self._best_ops: float | None = None

    def seed(self, baseline: BenchMetrics) -> None:
        """Anchor gain accounting at the baseline throughput."""
        self._best_ops = baseline.ops_per_sec

    def record(self, improved: bool, best: BenchMetrics) -> None:
        self._iterations_done += 1
        previous = self._best_ops
        meaningful = improved
        if improved and previous is not None and previous > 0:
            gain = (best.ops_per_sec - previous) / previous
            meaningful = gain >= self.criteria.minimal_gain
        if meaningful:
            self._no_improvement_streak = 0
            self._minimal_only = False
        else:
            self._no_improvement_streak += 1
            self._minimal_only = improved or self._minimal_only
        self._best_ops = best.ops_per_sec

    def should_stop(self) -> str | None:
        """Return the stop reason, or None to continue."""
        c = self.criteria
        if self._iterations_done >= c.max_iterations:
            return f"reached max iterations ({c.max_iterations})"
        if c.patience is not None and self._no_improvement_streak >= c.patience:
            qualifier = (
                f" above the minimal gain ({c.minimal_gain:.0%})"
                if self._minimal_only
                else ""
            )
            return (
                f"no improvement{qualifier} for {self._no_improvement_streak} "
                "consecutive iterations"
            )
        return None
