"""OnlineTuner: mid-flight reconfiguration of a running service.

Where :class:`~repro.core.tuner.ElmoTune` restarts the store between
iterations (tune → reopen → re-benchmark), the online tuner keeps one
long-running :class:`~repro.service.service.ShardedService` alive and
reconfigures it *in place* through ``set_options`` — no shard is ever
reopened. The loop:

1. watch the service's ``service.progress`` stream (the tuner rides the
   service's ``on_progress`` hook, on the virtual clock);
2. wake when the :class:`~repro.obs.drift.DriftDetector` flags a phase
   change — or on a fixed op cadence, if configured;
3. ask the LLM for a diff, vet it through the Safeguard Enforcer, and
   drop anything immutable (a live store cannot take a topology or
   format change);
4. apply the surviving diff via ``service.set_options`` and keep
   serving;
5. score the next window against the window before the change with the
   Active Flagger; a deteriorating diff is reverted through a second
   ``set_options`` (unless the ``always_keep`` ablation is on).

Everything runs on the virtual clock with seeded randomness, so two
online sessions with the same config produce byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.bench.spec import DEFAULT_BYTE_SCALE, WorkloadSpec
from repro.core.bench_parser import BenchMetrics
from repro.core.flagger import ActiveFlagger
from repro.core.parser import extract_changes
from repro.core.safeguard import SafeguardEnforcer
from repro.errors import LLMResponseError
from repro.hardware.profile import HardwareProfile, make_profile
from repro.llm.client import ChatMessage, LLMClient, Transcript
from repro.llm.simulated import SimulatedExpert
from repro.lsm.options import Options, spec_for
from repro.lsm.options_file import apply_changes, diff_as_text, serialize_options
from repro.obs.drift import DriftConfig, DriftDetector
from repro.obs.events import (
    Revert,
    ServiceProgress,
    SessionEnd,
    SessionStart,
    WorkloadDrift,
)
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import ServiceResult, ShardedService

#: Cap on changes applied per wake (beyond the safeguard's own cap).
_MAX_CHANGES = 4


@dataclass
class OnlineTunerConfig:
    """Everything configurable about one online tuning session."""

    workload: WorkloadSpec
    profile: HardwareProfile = field(
        default_factory=lambda: make_profile(4, 4), init=False
    )
    base_options: Options = field(default_factory=Options)
    byte_scale: float = DEFAULT_BYTE_SCALE
    drift: DriftConfig = field(default_factory=DriftConfig)
    #: Ops the candidate configuration gets before it is scored against
    #: the window that preceded it.
    score_window_ops: int = 4000
    #: Also wake every this-many ops even without drift (0 = drift-only).
    cadence_ops: int = 0
    #: Ablation: keep every diff, even ones the flagger would revert.
    always_keep: bool = False
    #: Open-loop client arrival rate; None = the service default.
    client_ops_per_sec: float | None = None

    def __post_init__(self) -> None:
        if self.score_window_ops < 1:
            raise ValueError("score_window_ops must be positive")
        if self.cadence_ops < 0:
            raise ValueError("cadence_ops cannot be negative")


@dataclass
class OnlineAction:
    """One wake of the online loop and what came of it."""

    ops_at: int
    trigger: str  # "drift" | "cadence"
    #: Diff actually applied: ``{name: (old, new)}`` in paper units.
    applied: dict[str, tuple] = field(default_factory=dict)
    #: None until scored (or never, if nothing was applied).
    kept: bool | None = None
    improved: bool = False
    reason: str = ""
    before_ops_per_sec: float = 0.0
    after_ops_per_sec: float = 0.0
    #: Vetted-but-immutable proposals dropped by the online filter.
    dropped_immutable: list = field(default_factory=list, init=False)
    #: Safeguard rejections (hallucinated names, bad values, ...).
    rejections: list = field(default_factory=list)


@dataclass
class OnlineSession:
    """Complete record of one online tuning session."""

    workload_name: str
    profile_name: str
    actions: list[OnlineAction] = field(default_factory=list, init=False)
    drift_count: int = 0
    final_options: Options | None = None
    result: "ServiceResult | None" = None
    trace_events: list = field(default_factory=list)

    @property
    def applied_actions(self) -> list[OnlineAction]:
        return [a for a in self.actions if a.applied]


class OnlineTuner:
    """One online session: construct, :meth:`run`, read the session."""

    def __init__(
        self,
        config: OnlineTunerConfig,
        llm: LLMClient | None = None,
    ) -> None:
        self.config = config
        self.llm = llm if llm is not None else SimulatedExpert(
            seed=config.workload.seed
        )
        self.safeguard = SafeguardEnforcer(max_changes_per_iteration=_MAX_CHANGES)
        self.flagger = ActiveFlagger()
        self.transcript = Transcript()
        # The session captures its own trace into a ring, so the
        # finished OnlineSession always carries it.
        self._ring = RingSink()
        self.tracer = Tracer(self._ring)
        self.safeguard.tracer = self.tracer
        self.flagger.tracer = self.tracer
        self.detector = DriftDetector(config.drift)
        #: Optional hook called with the freshly built ShardedService
        #: before the run starts (harness oracles, e.g. a write audit).
        self.service_hook: object | None = None

    # -- loop state (reset per run) ----------------------------------------

    def _reset(self) -> None:
        self._session = OnlineSession(
            workload_name=self.config.workload.name,
            profile_name=self.config.profile.name,
        )
        self._current = self.config.base_options.copy()
        #: Snapshot of the last closed window: (ops, elapsed_s, reads).
        self._window_base: tuple[int, float, int] = (0, 0.0, 0)
        self._window_metrics: BenchMetrics | None = None
        self._pending_drift: WorkloadDrift | None = None
        self._scoring: OnlineAction | None = None
        self._score_at = 0
        self._score_base: tuple[int, float, int] = (0, 0.0, 0)
        self._last_wake_ops = 0

    # -- windows -----------------------------------------------------------

    def _window(
        self, base: tuple[int, float, int], event: ServiceProgress
    ) -> BenchMetrics:
        """Characterize the window between ``base`` and ``event``."""
        ops = max(0, event.ops_done - base[0])
        secs = max(0.0, event.elapsed_virtual_s - base[1])
        ops_per_sec = ops / secs if secs > 0 else 0.0
        payload = ops * (16 + self.config.workload.value_size)
        return BenchMetrics(
            benchmark=self.config.workload.name,
            micros_per_op=secs * 1e6 / ops if ops else 0.0,
            ops_per_sec=ops_per_sec,
            mb_per_sec=payload / 1e6 / secs if secs > 0 else 0.0,
            p99_write_us=None,
            p99_read_us=None,
            stall_percent=0.0,
            stall_count=0,
            cache_hit_rate=event.cache_hit_rate,
            bloom_useful_rate=0.0,
            aborted=False,
        )

    # -- the progress hook -------------------------------------------------

    def _on_progress(
        self, service: "ShardedService", event: ServiceProgress
    ) -> None:
        trace = self.tracer.enabled
        drift = self.detector.observe(event)
        if drift is not None:
            self._session.drift_count += 1
            self._pending_drift = drift
            if trace:
                self.tracer.emit(drift)
        if self._scoring is not None:
            if event.ops_done >= self._score_at:
                self._finish_scoring(service, event)
            return
        trigger: str | None = None
        if self._pending_drift is not None:
            trigger = "drift"
        elif (
            self.config.cadence_ops > 0
            and event.ops_done - self._last_wake_ops >= self.config.cadence_ops
        ):
            trigger = "cadence"
        if trigger is not None:
            self._wake(service, event, trigger)

    def _wake(
        self, service: "ShardedService", event: ServiceProgress, trigger: str
    ) -> None:
        """Ask the LLM for a diff and apply whatever survives vetting."""
        drift, self._pending_drift = self._pending_drift, None
        self._last_wake_ops = event.ops_done
        before = self._window(self._window_base, event)
        action = OnlineAction(
            ops_at=event.ops_done,
            trigger=trigger,
            before_ops_per_sec=before.ops_per_sec,
        )
        self._session.actions.append(action)
        messages = self._build_prompt(service, event, before, drift)
        response = self.llm.complete(messages)
        self.transcript.record(messages, response)
        try:
            proposals = extract_changes(response)
        except LLMResponseError:
            action.reason = "no parseable changes in the LLM response"
            return
        vet = self.safeguard.vet(proposals, self._current)
        action.rejections = list(vet.rejected)
        mutable_pairs: list[tuple[str, Any]] = []
        for name, value in vet.accepted:
            # A live store cannot take topology/format changes: beyond
            # the safeguard, the online path accepts mutable keys only.
            # Exception: shard_count under a resharding routing policy,
            # where the service applies it as a live split/merge.
            if spec_for(name).mutable or (
                name == "shard_count" and service.supports_resharding
            ):
                mutable_pairs.append((name, value))
            else:
                action.dropped_immutable.append(name)
        if not mutable_pairs:
            action.reason = "no mutable changes survived vetting"
            return
        applied = service.set_options(mutable_pairs)
        if not applied:
            action.reason = "diff was a no-op against the live configuration"
            return
        action.applied = dict(applied)
        self._scoring = action
        self._score_at = event.ops_done + self.config.score_window_ops
        self._score_base = (
            event.ops_done, event.elapsed_virtual_s, event.reads_done
        )
        self._window_metrics = before

    def _finish_scoring(
        self, service: "ShardedService", event: ServiceProgress
    ) -> None:
        """Score the applied diff's window; revert if it deteriorated."""
        action = self._scoring
        assert action is not None and self._window_metrics is not None
        candidate = self._window(self._score_base, event)
        decision = self.flagger.decide(self._window_metrics, candidate)
        keep = decision.keep or self.config.always_keep
        action.kept = keep
        action.improved = decision.improved
        action.reason = decision.reason
        action.after_ops_per_sec = candidate.ops_per_sec
        changed = apply_changes(
            self._current, [(n, new) for n, (_old, new) in action.applied.items()]
        )
        if keep:
            self._current = changed
        else:
            service.set_options(
                {name: old for name, (old, _new) in action.applied.items()}
            )
            if self.tracer.enabled:
                self.tracer.emit(Revert(diff_as_text(self._current, changed)))
        self._scoring = None
        self._window_metrics = None
        # The scored window becomes the baseline for the next wake.
        self._window_base = (
            event.ops_done, event.elapsed_virtual_s, event.reads_done
        )
        self._last_wake_ops = event.ops_done

    # -- prompting ---------------------------------------------------------

    def _build_prompt(
        self,
        service: "ShardedService",
        event: ServiceProgress,
        window: BenchMetrics,
        drift: WorkloadDrift | None,
    ) -> list[ChatMessage]:
        """A compact mid-flight prompt.

        Same information layout the offline prompt generator uses
        (hardware, workload, current OPTIONS, latest numbers), but the
        workload mix is the *observed* one — the whole point of the
        online loop is that the spec's nominal mix has drifted away.
        """
        spec = self.config.workload
        window_ops = max(1, event.ops_done - self._window_base[0])
        window_reads = event.reads_done - self._window_base[2]
        read_pct = round(100.0 * window_reads / window_ops)
        lines = [
            "You are tuning a live LSM key-value store. The store stays "
            "online: propose only changes that can be applied without a "
            "restart, as `name=value` lines in a code block.",
            "",
            "## Hardware",
            self.config.profile.describe(),
            "",
            "## Workload (observed)",
            f"{spec.name}: {spec.num_ops} ops, {read_pct}% reads, key space "
            f"{spec.num_keys}, value ~{spec.value_size}B, {spec.threads} "
            f"thread(s), {spec.distribution} key distribution",
            f"Iteration: {len(self._session.actions)}",
        ]
        if drift is not None:
            lines += [
                "",
                "## Drift",
                f"Workload drift detected: {drift.metric} moved from "
                f"{drift.previous:.2f} to {drift.current:.2f} over the last "
                f"{drift.window_ops} operations.",
            ]
        # Topology context only exists beyond the default static
        # layout; omitting it otherwise keeps legacy prompts (and
        # everything seeded off them) byte-identical.
        if service.supports_resharding:
            ctx = service.topology_context()
            depths = ", ".join(
                f"shard {sid}: {depth}"
                for sid, depth in sorted(ctx["queue_depths"].items())
            )
            lines += [
                "",
                "## Service topology",
                f"Routing policy: {ctx['routing_policy']}; "
                f"{ctx['active_shards']} active shard(s).",
                f"Queue depths: {depths}.",
            ]
            lines.append(
                "shard_count is live-tunable: raising it splits the "
                "most loaded shard, lowering it merges the newest "
                "shard back."
            )
            if ctx["resharding"]:
                lines.append("A topology change is currently in flight.")
        lines += [
            "",
            "## Last window",
            f"{spec.name} : {window.micros_per_op:.3f} micros/op "
            f"{window.ops_per_sec:.0f} ops/sec; {window.mb_per_sec:.1f} MB/s "
            f"over {window_ops} ops",
            f"Block cache hit rate: {window.cache_hit_rate * 100.0:.1f}%",
            "",
            "## Current configuration",
            serialize_options(self._current),
        ]
        return [ChatMessage("user", "\n".join(lines))]

    # -- run ---------------------------------------------------------------

    def run(self) -> OnlineSession:
        """Serve the whole workload, tuning mid-flight; returns the
        session record (including the service result)."""
        from repro.service.service import ShardedService

        cfg = self.config
        self._reset()
        kwargs: dict[str, Any] = {}
        if cfg.client_ops_per_sec is not None:
            kwargs["client_ops_per_sec"] = cfg.client_ops_per_sec
        service = ShardedService(
            cfg.workload,
            cfg.base_options.copy(),
            cfg.profile,
            byte_scale=cfg.byte_scale,
            tracer=self.tracer,
            **kwargs,
        )
        service.on_progress = self._on_progress
        # Harness hook: oracles (e.g. the reshard bench's write audit)
        # configure the service before the run starts.
        if self.service_hook is not None:
            self.service_hook(service)
        trace = self.tracer.enabled
        if trace:
            self.tracer.emit(
                SessionStart(cfg.workload.name, cfg.profile.name)
            )
        result = service.run()
        session = self._session
        session.final_options = self._current
        session.result = result
        if trace:
            best = max(
                (a.after_ops_per_sec for a in session.actions if a.kept),
                default=result.aggregate.ops_per_sec,
            )
            self.tracer.emit(
                SessionEnd(
                    iterations=len(session.actions),
                    best_iteration=len(session.applied_actions),
                    best_ops_per_sec=best,
                )
            )
        session.trace_events = self._ring.events
        self._ring.clear()
        return session
