"""Tests for the online tuning control plane."""

import pytest

from repro.bench.spec import WorkloadPhase, WorkloadSpec
from repro.core.online import OnlineTuner, OnlineTunerConfig
from repro.llm.client import ScriptedLLM
from repro.lsm.options import Options
from repro.obs.drift import DriftConfig
from repro.obs.events import Revert, SetOptions, WorkloadDrift, to_jsonl_line

GOOD = "Grow the cache.\n```\nblock_cache_size=8388608\n```"
BAD = "Shrink the cache.\n```\nblock_cache_size=65536\n```"


def _spec(num_ops=24_000):
    return WorkloadSpec(
        name="onlinetest",
        num_ops=num_ops,
        num_keys=4000,
        preload_keys=4000,
        read_fraction=0.2,
        distribution="uniform",
        threads=2,
        phases=(
            WorkloadPhase(at_fraction=0.5, read_fraction=0.9,
                          distribution="zipfian"),
        ),
    )


def _config(**overrides):
    base = dict(
        workload=_spec(),
        base_options=Options({"block_cache_size": 256 * 1024}),
        byte_scale=1.0,
        drift=DriftConfig(window_ops=4000),
        score_window_ops=4000,
        client_ops_per_sec=200_000.0,
    )
    base.update(overrides)
    return OnlineTunerConfig(**base)


def _reverted(session):
    return [a for a in session.actions if a.applied and a.kept is False]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _config(score_window_ops=0)
        with pytest.raises(ValueError):
            _config(cadence_ops=-1)


class TestOnlineLoop:
    def test_drift_wakes_and_good_diff_is_kept(self):
        tuner = OnlineTuner(_config(), llm=ScriptedLLM([GOOD], cycle=True))
        session = tuner.run()
        assert session.drift_count >= 1
        applied = session.applied_actions
        assert applied and applied[0].trigger == "drift"
        assert applied[0].applied == {
            "block_cache_size": (256 * 1024, 8388608)
        }
        assert applied[0].kept is True
        assert session.final_options.get("block_cache_size") == 8388608
        # The service served the whole workload despite the mid-run swap.
        assert session.result.aggregate.ops_done == _spec().num_ops

    def test_deteriorating_diff_is_reverted(self):
        # The longer run gives the kept cache diff time to settle, so
        # the second (deteriorating) diff scores against a steady
        # baseline instead of a still-warming cache. Hysteresis is
        # disabled: this test *wants* the back-to-back drift wakes so
        # the BAD diff gets applied (and then reverted) mid-run.
        tuner = OnlineTuner(
            _config(
                workload=_spec(num_ops=36_000),
                drift=DriftConfig(window_ops=4000, min_ops_between_emits=0),
            ),
            llm=ScriptedLLM([GOOD, BAD], cycle=True),
        )
        session = tuner.run()
        reverted = _reverted(session)
        assert reverted, "bad diff was never reverted"
        assert reverted[0].applied["block_cache_size"][1] == 65536
        assert "regressed" in reverted[0].reason
        # The revert restored the previously-kept value.
        assert session.final_options.get("block_cache_size") == 8388608
        reverts = [
            e for e in session.trace_events if type(e) is Revert
        ]
        assert len(reverts) == len(reverted)

    def test_always_keep_ablation_skips_the_revert(self):
        tuner = OnlineTuner(
            _config(
                workload=_spec(num_ops=36_000),
                always_keep=True,
                drift=DriftConfig(window_ops=4000, min_ops_between_emits=0),
            ),
            llm=ScriptedLLM([GOOD, BAD], cycle=True),
        )
        session = tuner.run()
        assert _reverted(session) == []
        scored = [a for a in session.actions if a.applied and a.kept is not None]
        assert len(scored) >= 2
        # The deteriorating diff stays in force.
        assert session.final_options.get("block_cache_size") == 65536
        assert not any(type(e) is Revert for e in session.trace_events)

    def test_immutable_proposals_are_dropped_not_applied(self):
        response = (
            "Change topology and cache.\n"
            "```\nshard_count=8\nblock_cache_size=8388608\n```"
        )
        tuner = OnlineTuner(_config(), llm=ScriptedLLM([response], cycle=True))
        session = tuner.run()
        action = session.applied_actions[0]
        assert "shard_count" in action.dropped_immutable
        assert list(action.applied) == ["block_cache_size"]

    def test_topology_diff_passes_through_under_ring_routing(self):
        """Under a resharding policy, shard_count survives the
        mutability filter and lands as a live split mid-run."""
        response = "Split the hot shard.\n```\nshard_count=3\n```"
        tuner = OnlineTuner(
            _config(
                base_options=Options({
                    "shard_count": 2,
                    "routing_policy": "ring",
                    "block_cache_size": 256 * 1024,
                }),
            ),
            llm=ScriptedLLM([response], cycle=True),
        )
        session = tuner.run()
        action = session.applied_actions[0]
        assert action.applied == {"shard_count": (2, 3)}
        assert action.dropped_immutable == []
        assert session.result.reshards
        assert session.result.reshards[0][0] == "split"
        # The prompt advertised the live-topology capability.
        prompt = tuner.transcript.exchanges[0].messages[-1].content
        assert "## Service topology" in prompt
        assert "shard_count is live-tunable" in prompt

    def test_default_modulo_prompt_has_no_topology_section(self):
        tuner = OnlineTuner(_config(), llm=ScriptedLLM([GOOD], cycle=True))
        tuner.run()
        prompt = tuner.transcript.exchanges[0].messages[-1].content
        assert "## Service topology" not in prompt

    def test_unparseable_response_applies_nothing(self):
        tuner = OnlineTuner(
            _config(), llm=ScriptedLLM(["no changes here"], cycle=True)
        )
        session = tuner.run()
        assert session.actions, "drift never woke the tuner"
        assert session.applied_actions == []
        assert not any(type(e) is SetOptions for e in session.trace_events)

    def test_cadence_wakes_without_drift(self):
        spec = WorkloadSpec(
            name="steadytest",
            num_ops=16_000,
            num_keys=4000,
            preload_keys=4000,
            read_fraction=0.5,
            distribution="uniform",
        )
        config = _config(workload=spec, cadence_ops=6000)
        tuner = OnlineTuner(config, llm=ScriptedLLM([GOOD], cycle=True))
        session = tuner.run()
        assert any(a.trigger == "cadence" for a in session.actions)

    def test_drift_events_reach_the_trace(self):
        tuner = OnlineTuner(_config(), llm=ScriptedLLM([GOOD], cycle=True))
        session = tuner.run()
        drifts = [e for e in session.trace_events if type(e) is WorkloadDrift]
        assert len(drifts) == session.drift_count
        assert drifts[0].metric in ("read_fraction", "cache_hit_rate")

    def test_two_sessions_are_byte_identical(self):
        def run():
            tuner = OnlineTuner(
                _config(), llm=ScriptedLLM([GOOD, BAD], cycle=True)
            )
            session = tuner.run()
            return "\n".join(to_jsonl_line(e) for e in session.trace_events)

        assert run() == run()

    def test_transcript_records_llm_traffic(self):
        tuner = OnlineTuner(_config(), llm=ScriptedLLM([GOOD], cycle=True))
        session = tuner.run()
        assert len(tuner.transcript.exchanges) == len(session.actions)
        prompt = tuner.transcript.exchanges[0].messages[-1].content
        assert "Workload drift detected" in prompt
        assert "[Version]" in prompt  # current OPTIONS embedded
