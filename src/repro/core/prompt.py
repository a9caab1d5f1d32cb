"""Prompt Generator (Figure 2, "Automatic prompt generation").

Interlaces system information (psutil-like snapshot + fio-like device
characterization), workload statistics, the current OPTIONS file, and
the latest benchmark report into one calibrated prompt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.spec import WorkloadSpec
from repro.hardware.fio import FioProbe
from repro.hardware.monitor import SystemSnapshot
from repro.hardware.profile import HardwareProfile
from repro.llm.client import ChatMessage
from repro.lsm.options import Options
from repro.lsm.options_file import serialize_options

SYSTEM_MESSAGE = (
    "You are an expert database performance engineer specializing in "
    "LSM-tree based key-value stores (RocksDB and derivatives). Given "
    "hardware, workload, and benchmark information, respond with "
    "improved configuration option values. Present option changes as "
    "`name=value` lines (an OPTIONS-file fragment or fenced code block "
    "is ideal). Only propose options that exist; do not touch "
    "journaling or data-integrity settings."
)


@dataclass(frozen=True)
class FeedbackContext:
    """What happened on the previous iteration."""

    iteration: int
    previous_report: str | None = None
    deteriorated: bool = False
    reverted_diff: str | None = None
    aborted_early: bool = False


@dataclass(frozen=True)
class PromptSections:
    """Feature switches for prompt ablations (what information first /
    how much information is enough — the paper's §3 questions)."""

    include_hardware: bool = True
    include_fio: bool = True
    include_options: bool = True
    include_report: bool = True
    include_feedback: bool = True


class PromptGenerator:
    """Builds the chat messages for one tuning iteration."""

    def __init__(
        self,
        profile: HardwareProfile,
        workload: WorkloadSpec,
        *,
        sections: PromptSections | None = None,
    ) -> None:
        self.profile = profile
        self.workload = workload
        self.sections = sections if sections is not None else PromptSections()
        self._fio_report = FioProbe(profile.device).run()

    def build(
        self,
        options: Options,
        snapshot: SystemSnapshot | None,
        feedback: FeedbackContext,
    ) -> list[ChatMessage]:
        """Assemble the system+user messages for this iteration."""
        s = self.sections
        parts: list[str] = []
        if s.include_hardware:
            parts.append("## System Information")
            if snapshot is not None:
                parts.append(snapshot.describe())
            else:
                parts.append(self._static_hardware_text())
            if s.include_fio:
                parts.append(self._fio_report.describe())
        parts.append("## Workload")
        parts.append(self.workload.describe())
        if s.include_options:
            parts.append("## Current Configuration (OPTIONS)")
            parts.append(serialize_options(options))
        if s.include_report and feedback.previous_report:
            parts.append("## Last Benchmark Report")
            parts.append(feedback.previous_report)
        if s.include_feedback:
            parts.append("## Feedback")
            parts.append(f"Iteration: {feedback.iteration}")
            if feedback.aborted_early:
                parts.append(
                    "The last run was aborted early because throughput was "
                    "far below the previous configuration."
                )
            if feedback.deteriorated:
                parts.append(
                    "Performance deteriorated with the previous suggestion; "
                    "the configuration was reverted. The rejected change was:"
                )
                if feedback.reverted_diff:
                    parts.append(feedback.reverted_diff)
            elif feedback.iteration > 1:
                parts.append("Performance improved with the last change.")
        parts.append(
            "## Task\nSuggest the next set of option changes (a handful of "
            "high-impact options) for better throughput and tail latency."
        )
        user = "\n\n".join(parts)
        return [
            ChatMessage("system", SYSTEM_MESSAGE),
            ChatMessage("user", user),
        ]

    def _static_hardware_text(self) -> str:
        p = self.profile
        device_kind = "(rotational)" if p.device.rotational else "(flash)"
        return (
            f"CPU: {p.cpu_cores} cores, utilization n/a\n"
            f"Memory: {p.memory_bytes / 2**30:.2f} GiB total\n"
            f"Storage device: {p.device.name} {device_kind}"
        )
