"""SimulatedExpert: the offline stand-in for the GPT-4 API.

It genuinely *reads the prompt*: hardware, workload, current options,
benchmark feedback — everything it acts on is parsed from the prompt
text with the same fragility a real model has (information the prompt
omits is information the expert does not know). It then consults the
knowledge base, assembles a bounded set of option changes, respects the
memory budget, optionally injects calibrated imperfections, and renders
the answer as natural language with embedded config in varying formats.
"""

from __future__ import annotations

import random
import re
from typing import Any

from repro.errors import OptionError, OptionsFileError
from repro.llm.client import ChatMessage, LLMClient
from repro.llm.hallucination import HallucinationInjector, HallucinationProfile
from repro.llm.knowledge import (
    PromptFacts,
    fit_to_memory,
    matching_rules,
)
from repro.llm.render import render_prose_only, render_response
from repro.lsm.options_file import parse_options_text

_RE_CORES = re.compile(r"CPU:\s*(\d+)\s*cores")
_RE_MEMORY = re.compile(r"Memory:\s*([\d.]+)\s*GiB total")
_RE_READS = re.compile(r"(\d+)%\s*reads")
_RE_THREADS = re.compile(r"(\d+)\s*thread")
_RE_ITERATION = re.compile(r"Iteration:\s*(\d+)")
_RE_OPS = re.compile(r"([\d.]+)\s*micros/op\s*(\d+)\s*ops/sec")
_RE_STALL = re.compile(r"Cumulative stall:.*?,\s*([\d.]+)\s*percent")
_RE_CACHE = re.compile(r"Block cache hit rate:\s*([\d.]+)%")
_RE_BLOOM = re.compile(r"Bloom filter useful:\s*([\d.]+)%")
_RE_P99_WRITE = re.compile(
    r"Microseconds per write:.*?P99:\s*([\d.]+)", re.DOTALL
)
_RE_P99_READ = re.compile(
    r"Microseconds per read:.*?P99:\s*([\d.]+)", re.DOTALL
)
_RE_WORKLOAD_LINE = re.compile(r"^\s*(\w+):\s*\d+\s*ops,", re.MULTILINE)


def parse_prompt(text: str) -> PromptFacts:
    """Extract :class:`PromptFacts` from prompt text (best effort)."""
    facts = PromptFacts()
    if m := _RE_CORES.search(text):
        facts.cpu_cores = int(m.group(1))
    if m := _RE_MEMORY.search(text):
        facts.memory_gib = float(m.group(1))
    facts.rotational = "(rotational)" in text or "sata-hdd" in text
    if m := _RE_READS.search(text):
        facts.read_fraction = int(m.group(1)) / 100.0
    if m := _RE_THREADS.search(text):
        facts.threads = int(m.group(1))
    if m := _RE_ITERATION.search(text):
        facts.iteration = int(m.group(1))
    facts.deteriorated = "deteriorated" in text.lower()
    if m := _RE_OPS.search(text):
        facts.throughput_ops = float(m.group(2))
    if m := _RE_STALL.search(text):
        facts.stall_percent = float(m.group(1))
    if m := _RE_CACHE.search(text):
        facts.cache_hit_rate = float(m.group(1)) / 100.0
    if m := _RE_BLOOM.search(text):
        facts.bloom_useful_rate = float(m.group(1)) / 100.0
    if m := _RE_P99_WRITE.search(text):
        facts.p99_write_us = float(m.group(1))
    if m := _RE_P99_READ.search(text):
        facts.p99_read_us = float(m.group(1))
    if m := _RE_WORKLOAD_LINE.search(text):
        facts.workload_name = m.group(1)
    facts.current = _parse_current_options(text)
    return facts


def _parse_current_options(text: str) -> dict[str, Any]:
    """Pull the embedded OPTIONS file out of the prompt, if present."""
    marker = "[Version]"
    idx = text.find(marker)
    if idx < 0:
        return {}
    # The options section runs until the next markdown heading.
    end = text.find("\n## ", idx)
    section = text[idx:] if end < 0 else text[idx:end]
    try:
        options, _warnings = parse_options_text(section, strict=False)
    except (OptionsFileError, OptionError):  # a real model shrugs at bad input
        return {}
    return options.as_dict()


class SimulatedExpert(LLMClient):
    """Rule-based LSM tuning expert with LLM-like output behaviour."""

    def __init__(
        self,
        *,
        seed: int = 0,
        hallucination: HallucinationProfile | None = None,
        max_changes: int = 6,
    ) -> None:
        if max_changes < 1:
            raise ValueError("expert must be allowed at least one change")
        self._seed = seed
        self._profile = (
            hallucination if hallucination is not None else HallucinationProfile()
        )
        self.max_changes = max_changes
        self._calls = 0
        #: Audit trail of injected imperfections (for tests/ablations).
        self.injections: list[str] = []

    # -- core ---------------------------------------------------------------

    def complete(self, messages: list[ChatMessage]) -> str:
        prompt = self._last_user_content(messages)
        facts = parse_prompt(prompt)
        self._calls += 1
        rng = random.Random((self._seed << 16) ^ self._calls)
        injector = HallucinationInjector(self._profile, rng)
        lore: list[str] = []
        if injector.wants_prose_only():
            self.injections += injector.injected
            return render_prose_only(lore, rng)
        proposal, rationales, lore = self._build_proposal(facts, rng)
        proposal = fit_to_memory(facts, proposal)
        proposal = injector.mutate_proposal(proposal)
        self.injections += injector.injected
        if not proposal:
            return render_prose_only(lore, rng)
        return render_response(
            proposal, rationales, lore, rng, deteriorated=facts.deteriorated
        )

    @staticmethod
    def _last_user_content(messages: list[ChatMessage]) -> str:
        for message in reversed(messages):
            if message.role == "user":
                return message.content
        return "\n".join(m.content for m in messages)

    def _build_proposal(
        self, facts: PromptFacts, rng: random.Random
    ) -> tuple[dict[str, Any], dict[str, str], list[str]]:
        proposal: dict[str, Any] = {}
        rationales: dict[str, str] = {}
        lore: list[str] = []
        budget = self.max_changes
        if facts.deteriorated:
            # After a regression the expert moves more cautiously.
            budget = max(1, budget // 2)
        # Spread the budget across rules rather than letting the top rule
        # consume it: at most ~a third per rule, and rotate which of a
        # rule's moves lead so successive iterations explore different
        # parts of the option space (visible in the paper's Table 5).
        per_rule = max(1, self.max_changes // 3)
        for rule in matching_rules(facts):
            if budget <= 0:
                break
            rule_used = False
            rotation = facts.iteration % max(1, len(rule.moves))
            rotated = rule.moves[rotation:] + rule.moves[:rotation]
            rule_budget = per_rule
            for move in rotated:
                if budget <= 0 or rule_budget <= 0:
                    break
                value = move.value(facts)
                current = facts.option(move.option)
                if current is not None and _values_equal(current, value):
                    continue
                proposal[move.option] = value
                rationales[move.option] = move.rationale
                budget -= 1
                rule_budget -= 1
                rule_used = True
            if rule_used and rule.lore:
                lore.append(rule.lore)
        # Occasional exploration: revisit one option with a perturbed value
        # (this is what produces Table 5's back-and-forth trajectories).
        if proposal and rng.random() < 0.35:
            name = rng.choice(sorted(proposal))
            value = proposal[name]
            if isinstance(value, bool):
                pass  # nothing sensible to perturb
            elif isinstance(value, int) and value >= 4:
                proposal[name] = value // 2 if rng.random() < 0.5 else value * 2
            elif isinstance(value, float) and value > 2:
                proposal[name] = value + rng.choice([-2.0, 2.0])
        return proposal, rationales, lore


def _values_equal(current: Any, proposed: Any) -> bool:
    if isinstance(current, bool) or isinstance(proposed, bool):
        return bool(current) == bool(proposed)
    try:
        return float(current) == float(proposed)
    except (TypeError, ValueError):
        return str(current) == str(proposed)
