"""ElmoTune: the feedback-loop orchestrator (Figure 2).

Per iteration: build prompt -> LLM -> parse -> safeguard -> benchmark
(with early-stop monitoring) -> flag keep/revert -> feed back. The user
provides only the expected workload, exactly as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.runner import BenchResult
from repro.bench.spec import DEFAULT_BYTE_SCALE, WorkloadSpec
from repro.core.bench_parser import BenchMetrics, parse_report
from repro.core.flagger import ActiveFlagger
from repro.core.monitor import BenchmarkMonitor
from repro.core.parser import extract_changes
from repro.core.prompt import FeedbackContext, PromptGenerator, PromptSections
from repro.core.safeguard import SafeguardEnforcer
from repro.core.session import IterationRecord, TuningSession
from repro.core.stopping import StoppingCriteria, StopTracker
from repro.errors import LLMResponseError
from repro.hardware.profile import HardwareProfile, make_profile
from repro.llm.client import ChatMessage, LLMClient, Transcript
from repro.llm.simulated import SimulatedExpert
from repro.lsm.options import Options
from repro.lsm.options_file import apply_changes, diff_as_text, serialize_options
from repro.obs.events import (
    Feedback,
    IterationEnd,
    IterationStart,
    LLMExchange,
    Revert,
    SessionEnd,
    SessionStart,
    Stop,
)
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
from repro.service.service import run_benchmark

_FORMAT_REMINDER = (
    "Your previous reply contained no parseable option changes. Please "
    "answer again with explicit `name=value` lines in a code block."
)
#: Re-ask the LLM at most this many times on unparseable output.
_FORMAT_RETRIES = 1


@dataclass
class TunerConfig:
    """Everything configurable about one tuning session."""

    workload: WorkloadSpec
    profile: HardwareProfile = field(default_factory=lambda: make_profile(4, 4))
    byte_scale: float = DEFAULT_BYTE_SCALE
    stopping: StoppingCriteria = field(default_factory=StoppingCriteria)
    prompt_sections: PromptSections = field(default_factory=PromptSections)
    #: Disable the flagger's revert behaviour (ablation: keep everything).
    always_keep: bool = False


class ElmoTune:
    """One tuning session: construct, :meth:`run`, read the session."""

    def __init__(
        self,
        config: TunerConfig,
        llm: LLMClient | None = None,
        *,
        safeguard: SafeguardEnforcer | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        self.llm = llm if llm is not None else SimulatedExpert(seed=config.workload.seed)
        self.safeguard = safeguard if safeguard is not None else SafeguardEnforcer()
        self.flagger = ActiveFlagger()
        self.transcript = Transcript()
        # With no tracer supplied, capture the session into a ring so the
        # finished TuningSession always carries its own trace.
        if tracer is None:
            self._ring: RingSink | None = RingSink()
            self.tracer = Tracer(self._ring)
        else:
            self._ring = None
            self.tracer = tracer
        if self.safeguard.tracer is None:
            self.safeguard.tracer = self.tracer
        self.flagger.tracer = self.tracer
        self._prompter = PromptGenerator(
            config.profile, config.workload, sections=config.prompt_sections
        )

    # -- benchmarking -------------------------------------------------------

    def _run_bench(
        self, options: Options, reference_ops: float | None
    ) -> tuple[BenchResult, BenchMetrics, str, bool]:
        """One benchmark run, measured by
        :func:`~repro.service.service.run_benchmark`'s runner rule,
        under the early-stop monitor."""
        cfg = self.config
        monitor = BenchmarkMonitor(reference_ops)
        # The monitor subscribes to the trace for the duration of the
        # run; it requests aborts through the tracer's control channel.
        self.tracer.add_sink(monitor)
        try:
            result, report = run_benchmark(
                cfg.workload, options, cfg.profile,
                byte_scale=cfg.byte_scale, tracer=self.tracer,
            )
        finally:
            self.tracer.remove_sink(monitor)
        return result, parse_report(report), report, monitor.fired

    # -- LLM round-trip -------------------------------------------------------

    def _ask_llm(
        self, options: Options, snapshot, feedback: FeedbackContext
    ) -> tuple[str | None, list, int]:
        """Returns (response, proposals, parse_failures)."""
        messages = self._prompter.build(options, snapshot, feedback)
        failures = 0
        response: str | None = None
        for _attempt in range(1 + _FORMAT_RETRIES):
            response = self.llm.complete(messages)
            self.transcript.record(messages, response)
            try:
                return response, extract_changes(response), failures
            except LLMResponseError:
                failures += 1
                messages = messages + [
                    ChatMessage("assistant", response),
                    ChatMessage("user", _FORMAT_REMINDER),
                ]
        return response, [], failures

    # -- main loop -------------------------------------------------------------

    def run(self) -> TuningSession:
        """Execute the full feedback loop; returns the session record."""
        cfg = self.config
        tracer = self.tracer
        trace = tracer.enabled
        session = TuningSession(
            workload_name=cfg.workload.name, profile_name=cfg.profile.name
        )
        if trace:
            tracer.emit(SessionStart(cfg.workload.name, cfg.profile.name))
            tracer.emit(IterationStart(0))
        best_options = Options()
        result, metrics, report, _ = self._run_bench(best_options, None)
        session.add(
            IterationRecord(
                iteration=0,
                options=best_options.copy(),
                metrics=metrics,
                report_text=report,
                kept=True,
                note="baseline (out-of-box configuration)",
            )
        )
        if trace:
            tracer.emit(
                IterationEnd(0, True, metrics.ops_per_sec, changes=[])
            )
        best_metrics = metrics
        last_feedback = FeedbackContext(iteration=1, previous_report=report)
        last_snapshot = result.snapshot
        tracker = StopTracker(cfg.stopping)
        tracker.seed(best_metrics)

        iteration = 0
        while True:
            reason = tracker.should_stop()
            if reason is not None:
                session.stop_reason = reason
                if trace:
                    tracer.emit(Stop(reason))
                break
            iteration += 1
            if trace:
                tracer.emit(IterationStart(iteration))
            response, proposals, failures = self._ask_llm(
                best_options, last_snapshot, last_feedback
            )
            if trace:
                tracer.emit(LLMExchange(len(proposals), failures))
            vet = self.safeguard.vet(proposals, best_options)
            if not vet.accepted:
                # Nothing usable this round: configuration unchanged.
                session.add(
                    IterationRecord(
                        iteration=iteration,
                        options=best_options.copy(),
                        metrics=best_metrics,
                        report_text=report,
                        kept=True,
                        llm_response=response,
                        rejections=vet.rejected,
                        parse_failures=failures,
                        note="no acceptable changes; configuration unchanged",
                    )
                )
                tracker.record(False, best_metrics)
                if trace:
                    tracer.emit(
                        IterationEnd(
                            iteration, True, best_metrics.ops_per_sec,
                            changes=[],
                        )
                    )
                    tracer.emit(Feedback(False, False))
                last_feedback = FeedbackContext(
                    iteration=iteration + 1,
                    previous_report=report,
                    deteriorated=False,
                )
                continue
            candidate = apply_changes(best_options, vet.accepted)
            result, metrics, report, fired = self._run_bench(
                candidate, best_metrics.ops_per_sec
            )
            decision = self.flagger.decide(best_metrics, metrics)
            keep = decision.keep or cfg.always_keep
            session.add(
                IterationRecord(
                    iteration=iteration,
                    options=candidate.copy() if keep else best_options.copy(),
                    metrics=metrics,
                    report_text=report,
                    kept=keep,
                    llm_response=response,
                    accepted_changes=list(vet.accepted),
                    rejections=vet.rejected,
                    aborted_early=fired,
                    parse_failures=failures,
                    note=decision.reason,
                )
            )
            if keep:  # under always_keep, adopted despite a regression
                reverted_diff = None
                deteriorated = False
                best_options, best_metrics = candidate, metrics
            else:
                reverted_diff = diff_as_text(best_options, candidate)
                deteriorated = True
            tracker.record(decision.improved, best_metrics)
            if trace:
                tracer.emit(
                    IterationEnd(
                        iteration, keep, metrics.ops_per_sec,
                        changes=[[n, v] for n, v in vet.accepted],
                    )
                )
                if reverted_diff is not None:
                    tracer.emit(Revert(reverted_diff))
                tracer.emit(Feedback(deteriorated, fired))
            last_snapshot = result.snapshot
            last_feedback = FeedbackContext(
                iteration=iteration + 1,
                previous_report=report,
                deteriorated=deteriorated,
                reverted_diff=reverted_diff,
                aborted_early=fired,
            )
        if trace:
            best = session.best
            tracer.emit(
                SessionEnd(
                    iterations=len(session.iterations) - 1,
                    best_iteration=best.iteration,
                    best_ops_per_sec=best.metrics.ops_per_sec,
                )
            )
        if self._ring is not None:
            session.trace_events = self._ring.events
            self._ring.clear()
        return session

    def final_options_text(self, session: TuningSession) -> str:
        """The optimized OPTIONS file ELMo-Tune outputs at the end."""
        return serialize_options(session.final_options)
