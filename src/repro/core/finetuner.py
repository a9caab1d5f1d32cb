"""Fine-tuning: local search on top of the LLM's jumpstart.

The paper's discussion (§6) observes that "the LLM model is particularly
good at providing a jumpstart to configuration" but has "limited ability
to achieve fine-tuning", and proposes combining it "with fine-tuning
mechanisms" as future work. This module implements that proposal:

* :class:`FineTuner` — benchmark-guided coordinate descent over numeric
  options: probe x0.5 / x2 (and +/-1 for small integers) around the
  current value, keep improvements, within a fixed probe budget.
* :class:`HybridTuner` — ELMo-Tune for the jumpstart, then the
  fine-tuner to polish the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bench_parser import BenchMetrics, parse_report
from repro.core.safeguard import default_blacklist
from repro.core.session import TuningSession
from repro.core.tuner import ElmoTune, TunerConfig
from repro.errors import OptionError
from repro.llm.client import LLMClient
from repro.lsm.options import OptKind, Options, spec_for
from repro.service.service import run_benchmark

#: Options worth polishing even when the LLM never touched them.
_ALWAYS_CANDIDATES = (
    "write_buffer_size",
    "max_write_buffer_number",
    "max_background_jobs",
    "block_cache_size",
    "bloom_filter_bits_per_key",
    "level0_file_num_compaction_trigger",
    "compaction_readahead_size",
)

#: Multiplicative steps tried per option (order matters: the first
#: improving step is taken and the option is revisited later).
_STEPS = (2.0, 0.5)

#: Fractional throughput gain needed to accept a probe.
_MIN_GAIN = 0.005


@dataclass(frozen=True)
class FineTuneConfig:
    """Budget and step policy for the local search."""

    #: Total benchmark probes the fine-tuner may spend.
    max_probes: int = 12

    def __post_init__(self) -> None:
        if self.max_probes < 1:
            raise ValueError("need at least one probe")


@dataclass
class ProbeRecord:
    """One fine-tuning probe."""

    option: str
    old_value: object
    new_value: object
    ops_per_sec: float
    accepted: bool


@dataclass
class FineTuneResult:
    """Outcome of a fine-tuning pass."""

    start_metrics: BenchMetrics
    final_metrics: BenchMetrics
    final_options: Options
    probes: list[ProbeRecord] = field(default_factory=list)

    @property
    def improvement_factor(self) -> float:
        if self.start_metrics.ops_per_sec == 0:
            return 0.0
        return self.final_metrics.ops_per_sec / self.start_metrics.ops_per_sec

    @property
    def accepted_probes(self) -> int:
        return sum(p.accepted for p in self.probes)

    def describe(self) -> str:
        lines = [
            f"Fine-tuning: {len(self.probes)} probes, "
            f"{self.accepted_probes} accepted, "
            f"{self.improvement_factor:.3f}x over the starting point",
        ]
        for p in self.probes:
            flag = "kept" if p.accepted else "discarded"
            lines.append(
                f"  {p.option}: {p.old_value} -> {p.new_value} "
                f"({p.ops_per_sec:.0f} ops/sec) [{flag}]"
            )
        return "\n".join(lines)


class FineTuner:
    """Benchmark-guided coordinate descent around a starting config."""

    def __init__(
        self,
        config: TunerConfig,
        fine_config: FineTuneConfig | None = None,
    ) -> None:
        self.config = config
        self.fine = fine_config if fine_config is not None else FineTuneConfig()
        self._blacklist = default_blacklist()

    # -- plumbing -----------------------------------------------------------

    def _bench(self, options: Options) -> BenchMetrics:
        """Measure ``options`` by the tuning loop's own runner rule."""
        cfg = self.config
        _result, report = run_benchmark(
            cfg.workload, options, cfg.profile, byte_scale=cfg.byte_scale
        )
        return parse_report(report)

    def _candidates(self, start: Options) -> list[str]:
        """The options the LLM touched, then the always-candidates."""
        names = list(start.overrides()) + [
            n for n in _ALWAYS_CANDIDATES if n not in start.overrides()
        ]
        out = []
        for name in names:
            spec = spec_for(name)
            if spec.kind not in (OptKind.INT, OptKind.FLOAT):
                continue
            if spec.deprecated or name in self._blacklist:
                continue
            out.append(name)
        return out

    @staticmethod
    def _stepped(spec, value, step: float):
        """Apply one multiplicative step, clamped to the option's range.

        Small integers move by at least 1 so x2/x0.5 always has effect.
        """
        if value is None:
            return None
        if isinstance(value, bool):
            return None
        if isinstance(value, float):
            new = value * step
        else:
            if value <= 0:
                return None  # -1 (auto) and 0 (off) are modes, not sizes
            new = int(value * step)
            if new == value:
                new = value + (1 if step > 1 else -1)
        if spec.min is not None:
            new = max(spec.min, new)
        if spec.max is not None:
            new = min(spec.max, new)
        if isinstance(value, int):
            new = int(new)
        return None if new == value else new

    # -- search -------------------------------------------------------------

    def run(
        self,
        start_options: Options,
        start_metrics: BenchMetrics | None = None,
    ) -> FineTuneResult:
        """Polish ``start_options``; returns the improved configuration."""
        current = start_options.copy()
        if start_metrics is None:
            start_metrics = self._bench(current)
        best = start_metrics
        probes: list[ProbeRecord] = []
        budget = self.fine.max_probes
        candidates = self._candidates(current)
        made_progress = True
        while budget > 0 and made_progress:
            made_progress = False
            for name in candidates:
                if budget <= 0:
                    break
                spec = spec_for(name)
                value = current.get(name)
                for step in _STEPS:
                    if budget <= 0:
                        break
                    new_value = self._stepped(spec, value, step)
                    if new_value is None:
                        continue
                    trial = current.copy()
                    try:
                        trial.set(name, new_value)
                    except OptionError:  # clamped value raced a bound
                        continue
                    if trial.memory_budget_bytes() > \
                            self.config.profile.memory_bytes * 0.60:
                        continue  # same memory discipline as the expert
                    metrics = self._bench(trial)
                    budget -= 1
                    accepted = metrics.better_than(best, tolerance=_MIN_GAIN)
                    probes.append(ProbeRecord(
                        option=name, old_value=value, new_value=new_value,
                        ops_per_sec=metrics.ops_per_sec, accepted=accepted,
                    ))
                    if accepted:
                        current = trial
                        best = metrics
                        made_progress = True
                        break  # move on; revisit this option next sweep
        return FineTuneResult(
            start_metrics=start_metrics,
            final_metrics=best,
            final_options=current,
            probes=probes,
        )


@dataclass
class HybridResult:
    """Jumpstart session + fine-tuning polish, with combined accounting."""

    llm_session: TuningSession
    fine_result: FineTuneResult

    @property
    def final_options(self) -> Options:
        return self.fine_result.final_options

    @property
    def total_factor(self) -> float:
        base = self.llm_session.baseline.metrics.ops_per_sec
        final = self.fine_result.final_metrics.ops_per_sec
        return final / base if base else 0.0

    def describe(self) -> str:
        llm_factor = self.llm_session.improvement_factor()
        return (
            f"Hybrid tuning: LLM jumpstart {llm_factor:.2f}x, "
            f"fine-tune polish {self.fine_result.improvement_factor:.3f}x, "
            f"total {self.total_factor:.2f}x over out-of-box\n"
            + self.fine_result.describe()
        )


class HybridTuner:
    """The paper's §6 proposal: LLM jumpstart + fine-tuning mechanisms."""

    def __init__(
        self,
        config: TunerConfig,
        llm: LLMClient | None = None,
        fine_config: FineTuneConfig | None = None,
    ) -> None:
        self.config = config
        self.llm = llm
        self.fine_config = fine_config

    def run(self) -> HybridResult:
        elmo = ElmoTune(self.config, self.llm)
        session = elmo.run()
        fine = FineTuner(self.config, self.fine_config)
        result = fine.run(
            session.final_options.copy(),
            start_metrics=session.best.metrics,
        )
        return HybridResult(llm_session=session, fine_result=result)
