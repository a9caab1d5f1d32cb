"""LLM client interface.

The paper drives the GPT-4 chat completion API. This module defines the
equivalent interface; :mod:`repro.llm.simulated` provides the offline
implementation. Plugging a real API client into ELMo-Tune means
implementing :class:`LLMClient.complete` — nothing else changes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ChatMessage:
    """One chat turn."""

    role: str  # "system" | "user" | "assistant"
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role {self.role!r}")


@dataclass
class Exchange:
    """A request/response pair kept for auditability."""

    messages: list[ChatMessage]
    response: str


@dataclass
class Transcript:
    """Complete record of a tuning session's LLM traffic."""

    exchanges: list[Exchange] = field(default_factory=list, init=False)

    def record(self, messages: list[ChatMessage], response: str) -> None:
        self.exchanges.append(Exchange(list(messages), response))


class LLMClient(abc.ABC):
    """Minimal chat-completion interface."""

    @abc.abstractmethod
    def complete(self, messages: list[ChatMessage]) -> str:
        """Return the assistant's response text for ``messages``."""


class ScriptedLLM(LLMClient):
    """Replays a fixed list of responses (testing aid).

    Raises when exhausted unless ``cycle`` is set.
    """

    def __init__(self, responses: list[str], *, cycle: bool = False) -> None:
        if not responses:
            raise ValueError("need at least one scripted response")
        self._responses = list(responses)
        self._cycle = cycle
        self._next = 0
        self.calls: list[list[ChatMessage]] = []

    def complete(self, messages: list[ChatMessage]) -> str:
        self.calls.append(list(messages))
        if self._next >= len(self._responses):
            if not self._cycle:
                raise RuntimeError("ScriptedLLM ran out of responses")
            self._next = 0
        response = self._responses[self._next]
        self._next += 1
        return response
