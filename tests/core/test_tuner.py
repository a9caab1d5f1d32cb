"""Tests for the ElmoTune loop with scripted LLMs (fast, deterministic)."""

import pytest

from repro.bench.spec import WorkloadSpec
from repro.core.stopping import StoppingCriteria
from repro.core.tuner import ElmoTune, TunerConfig
from repro.hardware import make_profile
from repro.llm import ScriptedLLM

TINY = WorkloadSpec(
    name="fillrandom", num_ops=3000, num_keys=3000, preload_keys=0,
    read_fraction=0.0, distribution="uniform", seed=5,
)

GOOD_RESPONSE = (
    "Bigger buffers cut flush churn:\n```\nwrite_buffer_size=134217728\n"
    "max_write_buffer_number=4\ndump_malloc_stats=false\n```"
)
BAD_RESPONSE = (
    "Shrink everything aggressively:\n```\nwrite_buffer_size=1048576\n"
    "level0_slowdown_writes_trigger=5\nlevel0_stop_writes_trigger=6\n```"
)
PROSE_RESPONSE = "Tuning is a journey of a thousand compactions."
HALLUCINATED_RESPONSE = (
    "```\nmemtable_flush_parallelism=4\nflush_job_count=2\ndisable_wal=true\n```"
)


def config(iterations=2, **kw):
    defaults = dict(
        workload=TINY,
        profile=make_profile(4, 4),
        byte_scale=1 / 1024,
        stopping=StoppingCriteria(max_iterations=iterations),
    )
    defaults.update(kw)
    return TunerConfig(**defaults)


class TestLoopMechanics:
    def test_session_shape(self):
        llm = ScriptedLLM([GOOD_RESPONSE], cycle=True)
        session = ElmoTune(config(iterations=3), llm).run()
        assert len(session.iterations) == 4  # baseline + 3
        assert session.baseline.iteration == 0
        assert session.stop_reason.startswith("reached max iterations")

    def test_good_change_kept(self):
        llm = ScriptedLLM([GOOD_RESPONSE], cycle=True)
        session = ElmoTune(config(iterations=1), llm).run()
        it1 = session.iterations[1]
        assert ("write_buffer_size", 134217728) in it1.accepted_changes
        if it1.kept:
            assert session.final_options.get("write_buffer_size") == 134217728

    def test_regression_reverted(self):
        llm = ScriptedLLM([BAD_RESPONSE], cycle=True)
        session = ElmoTune(config(iterations=1), llm).run()
        it1 = session.iterations[1]
        assert not it1.kept
        assert session.final_options.get("write_buffer_size") == 67108864

    def test_deterioration_feedback_in_next_prompt(self):
        llm = ScriptedLLM([BAD_RESPONSE, GOOD_RESPONSE])
        tuner = ElmoTune(config(iterations=2), llm)
        tuner.run()
        second_prompt = llm.calls[1][-1].content
        assert "deteriorated" in second_prompt

    def test_prose_only_retried_then_skipped(self):
        llm = ScriptedLLM([PROSE_RESPONSE, PROSE_RESPONSE], cycle=True)
        session = ElmoTune(config(iterations=1), llm).run()
        it1 = session.iterations[1]
        assert it1.parse_failures == 2  # initial + one retry
        assert it1.kept  # config unchanged counts as kept
        assert "no acceptable changes" in it1.note

    def test_format_retry_prompt_is_stricter(self):
        llm = ScriptedLLM([PROSE_RESPONSE, GOOD_RESPONSE])
        tuner = ElmoTune(config(iterations=1), llm)
        tuner.run()
        retry_prompt = llm.calls[1][-1].content
        assert "no parseable option changes" in retry_prompt

    def test_hallucinations_never_reach_the_db(self):
        llm = ScriptedLLM([HALLUCINATED_RESPONSE], cycle=True)
        session = ElmoTune(config(iterations=1), llm).run()
        it1 = session.iterations[1]
        assert not it1.accepted_changes
        assert {r.category for r in it1.rejections} == {
            "unknown", "deprecated", "blacklist"
        }
        assert session.final_options.get("disable_wal") is False

    def test_transcript_recorded(self):
        llm = ScriptedLLM([GOOD_RESPONSE], cycle=True)
        tuner = ElmoTune(config(iterations=2), llm)
        tuner.run()
        assert len(tuner.transcript.exchanges) == 2

    def test_final_options_text(self):
        llm = ScriptedLLM([GOOD_RESPONSE], cycle=True)
        tuner = ElmoTune(config(iterations=1), llm)
        session = tuner.run()
        text = tuner.final_options_text(session)
        assert "[DBOptions]" in text

    def test_always_keep_ablation(self):
        llm = ScriptedLLM([BAD_RESPONSE], cycle=True)
        session = ElmoTune(config(iterations=1, always_keep=True), llm).run()
        assert session.iterations[1].kept
        # The bad config was adopted despite regressing.
        assert session.iterations[1].options.get("write_buffer_size") == 1048576

    def test_patience_stops_early(self):
        llm = ScriptedLLM([PROSE_RESPONSE], cycle=True)
        cfg = config(iterations=10)
        cfg.stopping = StoppingCriteria(max_iterations=10, patience=2)
        session = ElmoTune(cfg, llm).run()
        assert "no improvement" in session.stop_reason
        assert len(session.iterations) == 3  # baseline + 2 fruitless

    def test_default_llm_is_simulated_expert(self):
        tuner = ElmoTune(config(iterations=1))
        from repro.llm import SimulatedExpert

        assert isinstance(tuner.llm, SimulatedExpert)


class TestMonitorIntegration:
    def test_collapsing_config_aborted_early(self):
        # A config that tanks throughput should trip the 30s-equivalent
        # early stop (write stalls from a tiny stop trigger).
        llm = ScriptedLLM([
            "```\nwrite_buffer_size=65536\nlevel0_slowdown_writes_trigger=2\n"
            "level0_stop_writes_trigger=3\ndisable_auto_compactions=true\n```"
        ], cycle=True)
        session = ElmoTune(config(iterations=1), llm).run()
        it1 = session.iterations[1]
        assert not it1.kept
        if it1.aborted_early:
            assert it1.metrics.aborted


class TestServiceBenchRouting:
    """The tuner benches through the sharded service layer whenever the
    workload needs per-client roles or topology is being tuned."""

    def _tiny_service_spec(self):
        from repro.bench.spec import workload

        return workload("readwhilewriting").scaled(0.05).with_seed(5)

    def test_service_workload_routes_to_service_layer(self):
        from repro.lsm.options import Options

        cfg = config(workload=self._tiny_service_spec())
        tuner = ElmoTune(cfg, ScriptedLLM([GOOD_RESPONSE], cycle=True))
        result, metrics, report, fired = tuner._run_bench(Options(), None)
        assert metrics.benchmark == "readwhilewriting"
        assert "Group commit:" in report
        assert not fired  # no early-stop monitoring on service runs
        assert result.ops_done > 0

    def test_shard_count_override_routes_to_service_layer(self):
        from repro.lsm.options import Options

        cfg = config(workload=TINY)
        tuner = ElmoTune(cfg, ScriptedLLM([GOOD_RESPONSE], cycle=True))
        _, metrics, report, _ = tuner._run_bench(
            Options({"shard_count": 2}), None
        )
        assert metrics.benchmark == TINY.name
        assert "2 shard(s)" in report

    def test_single_shard_paper_workload_stays_on_bare_bench(self):
        from repro.lsm.options import Options

        cfg = config(workload=TINY)
        tuner = ElmoTune(cfg, ScriptedLLM([GOOD_RESPONSE], cycle=True))
        _, _, report, _ = tuner._run_bench(Options(), None)
        assert "Service:" not in report

    def test_full_session_over_service_workload(self):
        cfg = config(iterations=1, workload=self._tiny_service_spec())
        session = ElmoTune(cfg, ScriptedLLM([GOOD_RESPONSE], cycle=True)).run()
        assert len(session.iterations) == 2
        assert session.baseline.metrics.ops_per_sec > 0
