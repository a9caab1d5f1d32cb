"""Tuning session history.

Everything an experiment needs afterwards lives here: per-iteration
metrics (Figures 3-4 series), the option-change trajectory (Table 5),
and the final configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.bench_parser import BenchMetrics
from repro.core.safeguard import Rejection
from repro.lsm.options import Options


@dataclass
class IterationRecord:
    """One loop turn (iteration 0 is the untouched baseline)."""

    iteration: int
    options: Options
    metrics: BenchMetrics
    report_text: str
    kept: bool
    llm_response: str | None = None
    accepted_changes: list[tuple[str, Any]] = field(default_factory=list)
    rejections: list[Rejection] = field(default_factory=list)
    aborted_early: bool = False
    parse_failures: int = 0
    note: str = ""


@dataclass
class TuningSession:
    """Complete record of one ELMo-Tune run."""

    workload_name: str
    profile_name: str
    iterations: list[IterationRecord] = field(default_factory=list, init=False)
    stop_reason: str = ""
    #: The session's trace (populated when the tuner captures one; rides
    #: back from a worker process in pickled form).
    trace_events: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def add(self, record: IterationRecord) -> None:
        self.iterations.append(record)

    # -- views --------------------------------------------------------------

    @property
    def baseline(self) -> IterationRecord:
        return self.iterations[0]

    @property
    def best(self) -> IterationRecord:
        kept = [r for r in self.iterations if r.kept]
        return max(kept, key=lambda r: r.metrics.ops_per_sec)

    @property
    def final_options(self) -> Options:
        return self.best.options

    def throughput_series(self) -> list[float]:
        """ops/sec per iteration (Figures 3a / 4a)."""
        return [r.metrics.ops_per_sec for r in self.iterations]

    def p99_write_series(self) -> list[float | None]:
        """p99 write latency per iteration (Figures 3b / 4b)."""
        return [r.metrics.p99_write_us for r in self.iterations]

    def p99_read_series(self) -> list[float | None]:
        """p99 read latency per iteration (Figures 3c / 4c)."""
        return [r.metrics.p99_read_us for r in self.iterations]

    def improvement_factor(self) -> float:
        base = self.baseline.metrics.ops_per_sec
        return self.best.metrics.ops_per_sec / base if base else 0.0

    def option_trajectory(self) -> dict[str, list[tuple[int, Any]]]:
        """Table 5 data: option -> [(iteration, new value), ...].

        Only *kept* iterations contribute (a reverted change never made
        it into the running configuration).
        """
        trajectory: dict[str, list[tuple[int, Any]]] = {}
        previous = self.baseline.options
        for record in self.iterations[1:]:
            if not record.kept:
                continue
            for name, (_old, new) in previous.diff(record.options).items():
                trajectory.setdefault(name, []).append(
                    (record.iteration, new)
                )
            previous = record.options
        return trajectory

    def options_touched(self) -> int:
        """How many distinct options the session ended up changing."""
        return len(self.option_trajectory())

    def total_rejections(self) -> int:
        return sum(len(r.rejections) for r in self.iterations)

    def describe(self) -> str:
        lines = [
            f"Tuning session: {self.workload_name} on {self.profile_name}",
            f"Iterations: {len(self.iterations) - 1} (+1 baseline)",
            f"Stop reason: {self.stop_reason or 'n/a'}",
        ]
        for record in self.iterations:
            flag = "kept" if record.kept else "reverted"
            if record.iteration == 0:
                flag = "baseline"
            lines.append(
                f"  it{record.iteration}: {record.metrics.describe()} [{flag}]"
            )
        lines.append(
            f"Best: it{self.best.iteration} "
            f"({self.improvement_factor():.2f}x over baseline), "
            f"{self.options_touched()} options changed, "
            f"{self.total_rejections()} suggestions vetoed"
        )
        return "\n".join(lines)
