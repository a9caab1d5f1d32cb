"""Additional core-framework tests: reporting edges, prompt/parser
round trips with the real expert, safeguard interplay."""

import pytest

from repro.bench.spec import WorkloadSpec
from repro.core import (
    PromptGenerator,
    SafeguardEnforcer,
    extract_changes,
)
from repro.core.bench_parser import BenchMetrics
from repro.core.prompt import FeedbackContext
from repro.core.reporting import improvement_summary
from repro.core.session import IterationRecord, TuningSession
from repro.hardware import SATA_HDD, make_profile
from repro.llm import ChatMessage, HallucinationProfile, SimulatedExpert
from repro.llm.simulated import parse_prompt
from repro.lsm.options import Options

SPEC = WorkloadSpec(
    name="mixgraph", num_ops=2000, num_keys=2000, preload_keys=2000,
    read_fraction=0.5, distribution="mixgraph", seed=4,
)


def metrics(ops, p99w=None, p99r=None):
    return BenchMetrics(
        benchmark="x", micros_per_op=1e6 / ops, ops_per_sec=ops,
        mb_per_sec=1.0, p99_write_us=p99w, p99_read_us=p99r,
        stall_percent=0.0, stall_count=0, cache_hit_rate=0.0,
        bloom_useful_rate=0.0, aborted=False,
    )


class TestPromptExpertRoundTrip:
    """The generator's output must be fully legible to the expert's
    parser — the two sides of the NL interface stay in sync."""

    def test_expert_parses_generated_prompt_faithfully(self):
        profile = make_profile(2, 4, SATA_HDD)
        generator = PromptGenerator(profile, SPEC)
        messages = generator.build(
            Options({"write_buffer_size": 123456789}),
            None,
            FeedbackContext(iteration=3, deteriorated=True),
        )
        facts = parse_prompt(messages[-1].content)
        assert facts.cpu_cores == 2
        assert facts.memory_gib == pytest.approx(4.0)
        assert facts.rotational
        assert facts.read_fraction == pytest.approx(0.5)
        assert facts.iteration == 3
        assert facts.deteriorated
        assert facts.current.get("write_buffer_size") == 123456789

    def test_expert_response_to_generated_prompt_is_parseable(self):
        profile = make_profile(4, 8)
        generator = PromptGenerator(profile, SPEC)
        messages = generator.build(Options(), None, FeedbackContext(iteration=1))
        expert = SimulatedExpert(
            seed=11, hallucination=HallucinationProfile.none()
        )
        response = expert.complete(messages)
        changes = extract_changes(response)
        assert changes
        # And everything the disciplined expert proposes passes vetting.
        result = SafeguardEnforcer().vet(changes, Options())
        assert not result.rejected, result.describe()

    def test_disciplined_expert_is_clean_across_many_seeds(self):
        profile = make_profile(4, 4)
        generator = PromptGenerator(profile, SPEC)
        messages = generator.build(Options(), None, FeedbackContext(iteration=2))
        enforcer = SafeguardEnforcer()
        for seed in range(8):
            expert = SimulatedExpert(
                seed=seed, hallucination=HallucinationProfile.none()
            )
            response = expert.complete(messages)
            changes = extract_changes(response)
            assert not enforcer.vet(changes, Options()).rejected, seed


class TestReportingEdges:
    def test_improvement_summary_without_p99(self):
        session = TuningSession("w", "p")
        session.add(IterationRecord(0, Options(), metrics(100), "", True))
        session.add(IterationRecord(1, Options(), metrics(150), "", True))
        text = improvement_summary({"w": session})
        assert "1.50x" in text
        assert "p99" not in text  # nothing to report

    def test_session_with_only_baseline(self):
        session = TuningSession("w", "p")
        session.add(IterationRecord(0, Options(), metrics(100), "", True))
        assert session.best.iteration == 0
        assert session.improvement_factor() == 1.0
        assert session.option_trajectory() == {}


class TestSafeguardExpertInterplay:
    def test_unsafe_injection_always_caught(self):
        """Whatever the severe model emits, vetted output contains no
        blacklisted option."""
        from repro.core.safeguard import default_blacklist
        from repro.core.parser import extract_changes

        blacklist = default_blacklist()
        enforcer = SafeguardEnforcer()
        profile = make_profile(4, 4)
        generator = PromptGenerator(profile, SPEC)
        messages = generator.build(Options(), None, FeedbackContext(iteration=1))
        for seed in range(12):
            expert = SimulatedExpert(
                seed=seed, hallucination=HallucinationProfile.severe()
            )
            response = expert.complete(messages)
            changes = extract_changes(response)
            result = enforcer.vet(changes, Options())
            accepted_names = {name for name, _ in result.accepted}
            assert not accepted_names & blacklist, (seed, accepted_names)
