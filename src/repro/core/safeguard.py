"""Safeguard Enforcer (Figure 2).

Two mechanisms, exactly as the paper describes: a configurable
*blacklist* that keeps critical options (journaling, integrity checks)
out of the LLM's reach, and a *format/validity checker* that rejects
hallucinated option names, deprecated options, mistyped values, and
semantically inconsistent combinations before they reach the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.parser import ProposedChange
from repro.errors import (
    DeprecatedOptionError,
    InvalidOptionValueError,
    UnknownOptionError,
)
from repro.lsm.options import (
    Options,
    known_option,
    sensitive_option_names,
    spec_for,
)
from repro.obs.events import Veto
from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class Rejection:
    """One vetoed change and why."""

    name: str
    raw_value: str
    reason: str
    category: str  # "unknown" | "deprecated" | "blacklist" | "value" | "semantic"


@dataclass
class VetResult:
    """Outcome of vetting one LLM response's proposals."""

    accepted: list[tuple[str, Any]] = field(default_factory=list)
    rejected: list[Rejection] = field(default_factory=list, init=False)

    def describe(self) -> str:
        lines = [f"accepted {len(self.accepted)}, rejected {len(self.rejected)}"]
        for rejection in self.rejected:
            lines.append(
                f"  rejected {rejection.name}={rejection.raw_value}: "
                f"{rejection.reason} [{rejection.category}]"
            )
        return "\n".join(lines)


def default_blacklist() -> frozenset[str]:
    """The paper's examples — journaling/integrity — plus everything the
    option catalog marks sensitive."""
    return frozenset(sensitive_option_names())


class SafeguardEnforcer:
    """Vets proposed changes against the catalog and the blacklist."""

    def __init__(
        self,
        blacklist: frozenset[str] | None = None,
        *,
        allow_deprecated: bool = False,
        max_changes_per_iteration: int | None = None,
    ) -> None:
        self.blacklist = blacklist if blacklist is not None else default_blacklist()
        self.allow_deprecated = allow_deprecated
        self.max_changes = max_changes_per_iteration
        #: The tuner that owns this safeguard attaches its tracer.
        self.tracer: Tracer | None = None

    def vet(
        self, proposals: list[ProposedChange], base: Options
    ) -> VetResult:
        """Validate every proposal; never raises for bad LLM output."""
        result = VetResult()
        for change in proposals:
            verdict = self._vet_one(change)
            if isinstance(verdict, Rejection):
                result.rejected.append(verdict)
            else:
                result.accepted.append(verdict)
        self._vet_semantics(result, base)
        if self.max_changes is not None and len(result.accepted) > self.max_changes:
            for name, value in result.accepted[self.max_changes:]:
                result.rejected.append(
                    Rejection(name, str(value),
                              "per-iteration change budget exceeded", "semantic")
                )
            result.accepted = result.accepted[: self.max_changes]
        if self.tracer is not None and self.tracer.enabled:
            for rejection in result.rejected:
                self.tracer.emit(
                    Veto(
                        rejection.name,
                        rejection.raw_value,
                        rejection.reason,
                        rejection.category,
                    )
                )
        return result

    def _vet_one(self, change: ProposedChange) -> tuple[str, Any] | Rejection:
        name = change.name
        if not known_option(name):
            return Rejection(name, change.raw_value,
                             "option does not exist (likely hallucinated)",
                             "unknown")
        if name in self.blacklist:
            return Rejection(name, change.raw_value,
                             "option is blacklisted from tuning", "blacklist")
        spec = spec_for(name)
        if spec.deprecated and not self.allow_deprecated:
            return Rejection(name, change.raw_value,
                             "option is deprecated", "deprecated")
        try:
            value = spec.validate(change.raw_value)
        except InvalidOptionValueError as exc:
            return Rejection(name, change.raw_value, exc.reason, "value")
        except (UnknownOptionError, DeprecatedOptionError) as exc:
            return Rejection(name, change.raw_value, str(exc), "unknown")
        return name, value

    def _vet_semantics(self, result: VetResult, base: Options) -> None:
        """Cross-option consistency checks over (base + accepted)."""
        merged: dict[str, Any] = dict(result.accepted)

        def effective(name: str) -> Any:
            return merged.get(name, base.get(name))

        def reject(name: str, reason: str) -> None:
            value = merged.pop(name)
            result.accepted = [(n, v) for n, v in result.accepted if n != name]
            result.rejected.append(Rejection(name, str(value), reason, "semantic"))

        if "level0_slowdown_writes_trigger" in merged or (
            "level0_stop_writes_trigger" in merged
        ):
            slow = int(effective("level0_slowdown_writes_trigger"))
            stop = int(effective("level0_stop_writes_trigger"))
            trigger = int(effective("level0_file_num_compaction_trigger"))
            if slow >= stop:
                victim = ("level0_slowdown_writes_trigger"
                          if "level0_slowdown_writes_trigger" in merged
                          else "level0_stop_writes_trigger")
                reject(victim, "slowdown trigger must stay below stop trigger")
            elif slow <= trigger:
                if "level0_slowdown_writes_trigger" in merged:
                    reject("level0_slowdown_writes_trigger",
                           "slowdown trigger must exceed the compaction trigger")
        if "min_write_buffer_number_to_merge" in merged or (
            "max_write_buffer_number" in merged
        ):
            min_merge = int(effective("min_write_buffer_number_to_merge"))
            max_bufs = int(effective("max_write_buffer_number"))
            if min_merge >= max_bufs and max_bufs > 1:
                victim = ("min_write_buffer_number_to_merge"
                          if "min_write_buffer_number_to_merge" in merged
                          else "max_write_buffer_number")
                reject(victim,
                       "must keep min_write_buffer_number_to_merge below "
                       "max_write_buffer_number")
