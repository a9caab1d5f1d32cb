"""Option Evaluator (response parsing).

LLM responses arrive as "text, a singular code block, or an interleaving
combination of both" (§3). This parser extracts proposed option changes
from all three shapes:

* fenced code blocks containing ``name=value`` lines,
* bare ini-style lines in the prose,
* bullet phrasing like ``Set `x` to `y```.

Values stay raw strings here — typing/validation is the Safeguard
Enforcer's job.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import LLMResponseError

_FENCE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.DOTALL)
_KV_LINE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^\s#;]+)\s*$")
_BULLET = re.compile(
    r"[Ss]et\s+`?([A-Za-z_][A-Za-z0-9_]*)`?\s+to\s+`?([^`\s.,]+)`?"
)
_SECTION = re.compile(r"^\s*\[.*\]\s*$")


@dataclass(frozen=True)
class ProposedChange:
    """One raw (unvalidated) option change from the LLM."""

    name: str
    raw_value: str
    source: str  # "fence" | "inline" | "bullet"


def extract_changes(response: str) -> list[ProposedChange]:
    """Parse every proposed change from ``response``.

    Later mentions of the same option override earlier ones (the model
    sometimes corrects itself mid-response). Raises
    :class:`LLMResponseError` when no changes can be found at all —
    the format-checker path.
    """
    found: dict[str, ProposedChange] = {}

    def add(name: str, value: str, source: str) -> None:
        found[name] = ProposedChange(name=name, raw_value=value, source=source)

    fenced_spans: list[tuple[int, int]] = []
    for match in _FENCE.finditer(response):
        fenced_spans.append(match.span())
        for line in match.group(1).splitlines():
            if _SECTION.match(line):
                continue
            if kv := _KV_LINE.match(line):
                add(kv.group(1), kv.group(2), "fence")

    def in_fence(pos: int) -> bool:
        return any(lo <= pos < hi for lo, hi in fenced_spans)

    for line_match in re.finditer(r"^.*$", response, re.MULTILINE):
        if in_fence(line_match.start()):
            continue
        line = line_match.group(0)
        if _SECTION.match(line):
            continue
        if kv := _KV_LINE.match(line):
            add(kv.group(1), kv.group(2), "inline")

    for bullet in _BULLET.finditer(response):
        if in_fence(bullet.start()):
            continue
        add(bullet.group(1), bullet.group(2), "bullet")

    if not found:
        raise LLMResponseError(
            "no option changes found in LLM response (prose-only or "
            "malformed output)"
        )
    return list(found.values())
