"""Tests for the LLM client interface."""

import pytest

from repro.llm import ChatMessage, ScriptedLLM, Transcript


class TestChatMessage:
    def test_valid_roles(self):
        for role in ("system", "user", "assistant"):
            assert ChatMessage(role, "x").role == role

    def test_invalid_role(self):
        with pytest.raises(ValueError):
            ChatMessage("tool", "x")


class TestScriptedLLM:
    def test_replays_in_order(self):
        llm = ScriptedLLM(["one", "two"])
        assert llm.complete([ChatMessage("user", "q")]) == "one"
        assert llm.complete([ChatMessage("user", "q")]) == "two"

    def test_exhaustion_raises(self):
        llm = ScriptedLLM(["only"])
        llm.complete([])
        with pytest.raises(RuntimeError):
            llm.complete([])

    def test_cycle(self):
        llm = ScriptedLLM(["a"], cycle=True)
        assert [llm.complete([]) for _ in range(3)] == ["a", "a", "a"]

    def test_records_calls(self):
        llm = ScriptedLLM(["a"])
        messages = [ChatMessage("user", "hello")]
        llm.complete(messages)
        assert llm.calls == [messages]

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            ScriptedLLM([])


class TestTranscript:
    def test_accounting(self):
        t = Transcript()
        t.record([ChatMessage("user", "abcd")], "efgh")
        t.record([ChatMessage("user", "xy")], "z")
        assert [ex.response for ex in t.exchanges] == ["efgh", "z"]
        assert [m.content for ex in t.exchanges for m in ex.messages] == [
            "abcd", "xy"
        ]
