"""Tests for the simulated expert: prompt parsing and proposal quality."""

import pytest

from repro.core.parser import try_extract_changes
from repro.llm import ChatMessage, HallucinationProfile, SimulatedExpert
from repro.llm.simulated import parse_prompt
from repro.lsm.options import Options
from repro.lsm.options_file import serialize_options

HDD_WRITE_PROMPT = """## System Information
CPU: 2 cores, utilization 40.0%
Memory: 4.00 GiB total, 0.50 GiB used (12.5%)
Storage device: sata-hdd (rotational)

## Workload
fillrandom: 50000 ops, 0% reads (write-intensive), key space 50000, value ~100B, 1 thread(s), uniform key distribution

## Last Benchmark Report
fillrandom   :      9.720 micros/op 102828 ops/sec;  11.9 MB/s
Microseconds per write:
Count: 50000 Average: 9.7 StdDev: 2
Min: 2 Median: 8 Max: 100
Percentiles: P50: 8.00 P95: 20.00 P99: 34.39 P99.9: 60.00
Cumulative stall: 00:00:00.100 H:M:S, 17.5 percent
Block cache hit rate: 3.0%
Bloom filter useful: 0.0%

## Feedback
Iteration: 2
"""

NVME_READ_PROMPT = """## System Information
CPU: 4 cores, utilization 10.0%
Memory: 8.00 GiB total
Storage device: nvme-ssd (flash)

## Workload
readrandom: 10000 ops, 100% reads (read-intensive), key space 25000, value ~100B, 1 thread(s), uniform key distribution

## Feedback
Iteration: 1
Performance deteriorated with the previous suggestion; the configuration was reverted.
"""


def ask(prompt, seed=1, **kw):
    expert = SimulatedExpert(
        seed=seed, hallucination=HallucinationProfile.none(), **kw
    )
    return expert.complete([ChatMessage("user", prompt)])


class TestParsePrompt:
    def test_hardware_extraction(self):
        facts = parse_prompt(HDD_WRITE_PROMPT)
        assert facts.cpu_cores == 2
        assert facts.memory_gib == 4.0
        assert facts.rotational

    def test_workload_extraction(self):
        facts = parse_prompt(HDD_WRITE_PROMPT)
        assert facts.read_fraction == 0.0
        assert facts.threads == 1
        assert facts.workload_name == "fillrandom"

    def test_metrics_extraction(self):
        facts = parse_prompt(HDD_WRITE_PROMPT)
        assert facts.throughput_ops == 102828
        assert facts.stall_percent == pytest.approx(17.5)
        assert facts.cache_hit_rate == pytest.approx(0.03)
        assert facts.p99_write_us == pytest.approx(34.39)
        assert facts.iteration == 2

    def test_deterioration_flag(self):
        assert parse_prompt(NVME_READ_PROMPT).deteriorated
        assert not parse_prompt(HDD_WRITE_PROMPT).deteriorated

    def test_current_options_from_embedded_file(self):
        prompt = (
            NVME_READ_PROMPT
            + "\n## Current Configuration (OPTIONS)\n"
            + serialize_options(Options({"write_buffer_size": 123456789}))
        )
        facts = parse_prompt(prompt)
        assert facts.current.get("write_buffer_size") == 123456789

    def test_empty_prompt_gives_defaults(self):
        facts = parse_prompt("hello")
        assert facts.cpu_cores == 4
        assert facts.current == {}

    def test_malformed_options_block_reads_as_no_options(self):
        prompt = NVME_READ_PROMPT + "\n[Version]\nnot a key value line\n"
        assert parse_prompt(prompt).current == {}


class TestExpertProposals:
    def test_read_heavy_gets_bloom_and_cache(self):
        response = ask(NVME_READ_PROMPT)
        changes = {c.name: c.raw_value for c in try_extract_changes(response)}
        assert "bloom_filter_bits_per_key" in changes or \
            "block_cache_size" in changes

    def test_write_heavy_hdd_gets_write_path_options(self):
        response = ask(HDD_WRITE_PROMPT)
        changes = {c.name for c in try_extract_changes(response)}
        write_path = {"write_buffer_size", "max_write_buffer_number",
                      "max_background_jobs", "compaction_readahead_size",
                      "min_write_buffer_number_to_merge",
                      "max_background_compactions"}
        assert changes & write_path

    def test_max_changes_respected(self):
        response = ask(HDD_WRITE_PROMPT, max_changes=3)
        assert len(try_extract_changes(response)) <= 3

    def test_deterministic_for_same_seed(self):
        assert ask(HDD_WRITE_PROMPT, seed=5) == ask(HDD_WRITE_PROMPT, seed=5)

    def test_varies_across_seeds(self):
        responses = {ask(HDD_WRITE_PROMPT, seed=s) for s in range(6)}
        assert len(responses) > 1

    def test_varies_across_iterations(self):
        it1 = HDD_WRITE_PROMPT
        it5 = HDD_WRITE_PROMPT.replace("Iteration: 2", "Iteration: 5")
        assert ask(it1) != ask(it5)

    def test_memory_budget_respected(self):
        response = ask(NVME_READ_PROMPT)
        changes = {c.name: c.raw_value for c in try_extract_changes(response)}
        if "block_cache_size" in changes:
            assert int(changes["block_cache_size"]) <= 8 * (1 << 30) * 0.6

    def test_cautious_after_deterioration(self):
        calm = ask(NVME_READ_PROMPT, max_changes=8)
        # Deteriorated prompts halve the change budget.
        assert len(try_extract_changes(calm)) <= 4

    def test_invalid_max_changes(self):
        with pytest.raises(ValueError):
            SimulatedExpert(max_changes=0)

    def test_budget_spread_across_rules(self):
        """No single rule may consume the whole change budget: a 6-change
        response on a write-heavy HDD prompt must span multiple concerns
        (buffers AND parallelism/readahead/sync), like the paper's
        Table 5 iterations do."""
        from repro.llm.knowledge import RULES

        owner_by_option = {}
        for rule in RULES:
            for move in rule.moves:
                owner_by_option.setdefault(move.option, set()).add(rule.name)
        response = ask(HDD_WRITE_PROMPT, max_changes=6)
        changed = [c.name for c in try_extract_changes(response)]
        rules_touched = set()
        for name in changed:
            rules_touched |= owner_by_option.get(name, set())
        assert len(rules_touched) >= 2, changed

    def test_rotation_changes_lead_moves(self):
        """Across iterations the same rule leads with different moves."""
        seen_first_options = set()
        for iteration in range(1, 5):
            prompt = HDD_WRITE_PROMPT.replace(
                "Iteration: 2", f"Iteration: {iteration}")
            response = ask(prompt, max_changes=2)
            changes = try_extract_changes(response)
            if changes:
                seen_first_options.add(changes[0].name)
        assert len(seen_first_options) >= 2

    def test_model_name(self):
        assert "expert" in SimulatedExpert().model_name

    def test_a_failing_move_propagates(self, monkeypatch):
        """A knowledge-base bug surfaces instead of silently shrinking
        the proposal."""
        from repro.llm import simulated
        from repro.llm.knowledge import Move, TuningRule

        broken = TuningRule(
            name="broken",
            priority=100,
            applies=lambda f: True,
            moves=(Move("write_buffer_size", lambda f: 1 // 0, "bug"),),
        )
        monkeypatch.setattr(simulated, "matching_rules", lambda facts: [broken])
        with pytest.raises(ZeroDivisionError):
            ask(HDD_WRITE_PROMPT)


class TestHallucinationIntegration:
    def test_severe_profile_injects(self):
        expert = SimulatedExpert(
            seed=3, hallucination=HallucinationProfile.severe()
        )
        for i in range(10):
            expert.complete([ChatMessage("user", HDD_WRITE_PROMPT)])
        assert expert.injections  # something got injected across 10 calls

    def test_none_profile_never_injects(self):
        expert = SimulatedExpert(
            seed=3, hallucination=HallucinationProfile.none()
        )
        for _ in range(10):
            expert.complete([ChatMessage("user", HDD_WRITE_PROMPT)])
        assert expert.injections == []
