"""Integration tests for the observability spine.

The load-bearing contracts: a tuning session reconstructs *exactly*
from its trace, serial and parallel sessions carry identical traces,
and the early-stop monitor / flagger / feedback chain appears in the
trace in causal order.
"""

import pytest

from repro.bench.spec import WorkloadSpec
from repro.core.stopping import StoppingCriteria
from repro.core.tuner import ElmoTune, TunerConfig
from repro.hardware import make_profile
from repro.llm import ScriptedLLM
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.obs import JsonlSink, RingSink, Tracer
from repro.obs.replay import read_trace, summarize_session
from repro.parallel import SessionTask, run_session_tasks

TINY = WorkloadSpec(
    name="fillrandom", num_ops=3000, num_keys=3000, preload_keys=0,
    read_fraction=0.0, distribution="uniform", seed=5,
)

GOOD_RESPONSE = (
    "Bigger buffers cut flush churn:\n```\nwrite_buffer_size=134217728\n"
    "max_write_buffer_number=4\n```"
)
BAD_RESPONSE = (
    "Shrink everything aggressively:\n```\nwrite_buffer_size=1048576\n"
    "level0_slowdown_writes_trigger=5\nlevel0_stop_writes_trigger=6\n```"
)
COLLAPSING_RESPONSE = (
    "```\nwrite_buffer_size=65536\nlevel0_slowdown_writes_trigger=2\n"
    "level0_stop_writes_trigger=3\ndisable_auto_compactions=true\n```"
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


class TestEngineEvents:
    def test_workload_emits_engine_events_in_virtual_order(self):
        ring = RingSink()
        opts = Options()
        opts.set("write_buffer_size", 16384)
        db = DB.open("/obs/engine", options=opts, tracer=Tracer(ring))
        for i in range(3000):
            db.put(f"k{i:08d}".encode(), b"v" * 100)
        db.flush()
        db.close()
        types = {e.type for e in ring.events}
        assert "engine.memtable.rotate" in types
        assert "engine.flush.run" in types
        assert "engine.flush.installed" in types
        assert "engine.compaction.run" in types
        stamps = [e.t_us for e in ring.events]
        assert stamps == sorted(stamps)

    def test_disabled_tracer_keeps_engine_silent(self):
        db = DB.open("/obs/silent", tracer=Tracer())  # no sinks
        db.put(b"k", b"v")
        assert db.tracer.enabled is False
        db.close()


class TestSessionReconstruction:
    def test_jsonl_trace_rebuilds_the_session_record(self, tmp_path):
        path = str(tmp_path / "session.jsonl")
        tracer = Tracer(JsonlSink(path))
        llm = ScriptedLLM([GOOD_RESPONSE, BAD_RESPONSE], cycle=True)
        tuner = ElmoTune(config(iterations=3), llm, tracer=tracer)
        session = tuner.run()
        tracer.close()

        summary = summarize_session(read_trace(path))
        assert summary.complete
        assert summary.workload == session.workload_name
        assert summary.profile == session.profile_name
        assert summary.stop_reason == session.stop_reason
        assert len(summary.iterations) == len(session.iterations)
        for record, it in zip(session.iterations, summary.iterations):
            assert it.iteration == record.iteration
            assert it.kept == record.kept
            assert it.ops_per_sec == pytest.approx(record.metrics.ops_per_sec)
            assert it.changes == [[n, v] for n, v in record.accepted_changes]
            assert it.vetoes == len(record.rejections)
            assert it.aborted_early == record.aborted_early
        assert summary.best_iteration == session.best.iteration
        assert summary.best_ops_per_sec == pytest.approx(
            session.best.metrics.ops_per_sec
        )

    def test_default_tuner_carries_its_own_trace(self):
        llm = ScriptedLLM([GOOD_RESPONSE], cycle=True)
        session = ElmoTune(config(iterations=1), llm).run()
        assert session.trace_events
        summary = summarize_session(session.trace_events)
        assert summary.complete
        assert len(summary.iterations) == len(session.iterations)


class TestMonitorAndFlaggerInTrace:
    def _trace_types(self, response):
        llm = ScriptedLLM([response], cycle=True)
        session = ElmoTune(config(iterations=1), llm).run()
        return session, [e.type for e in session.trace_events]

    def test_enabled_monitor_abort_revert_feedback_in_order(self):
        session, types = self._trace_types(COLLAPSING_RESPONSE)
        it1 = session.iterations[1]
        assert not it1.kept
        assert it1.aborted_early
        # The causal chain must appear in trace order: the monitor
        # aborts the run, the flagger rejects, the tuner reverts and
        # composes the deterioration feedback.
        i_abort = types.index("bench.abort")
        i_flag = types.index("tune.flag")
        i_revert = types.index("tune.revert")
        i_feedback = types.index("tune.feedback")
        assert i_abort < i_flag < i_revert < i_feedback
        flags = [e for e in session.trace_events if e.type == "tune.flag"]
        assert flags[0].keep is False
        feedback = [e for e in session.trace_events if e.type == "tune.feedback"]
        assert feedback[0].deteriorated is True
        assert feedback[0].aborted_early is True

    def test_mild_regression_reverts_without_abort(self):
        # ~0.64x the baseline: a regression, but above the monitor's
        # abort ratio, so the run completes.
        session, types = self._trace_types(
            "```\nwrite_buffer_size=8388608\n```"
        )
        it1 = session.iterations[1]
        assert not it1.kept
        assert not it1.aborted_early
        assert "bench.abort" not in types
        i_flag = types.index("tune.flag")
        i_revert = types.index("tune.revert")
        i_feedback = types.index("tune.feedback")
        assert i_flag < i_revert < i_feedback


class TestExecutorTraces:
    def test_serial_and_parallel_traces_identical(self):
        tasks = [
            SessionTask(workload="fillrandom", cell="2c4g-nvme-ssd",
                        seed=7 + i, scale=0.0001, iterations=1)
            for i in range(2)
        ]
        serial = run_session_tasks(tasks, max_workers=1)
        parallel = run_session_tasks(tasks, max_workers=2)
        for s, p in zip(serial, parallel):
            assert s.trace_events
            assert s.trace_events == p.trace_events
            # Each session's trace crossed the process boundary whole.
            summary = summarize_session(p.trace_events)
            assert summary.complete
            assert len(summary.iterations) == len(s.iterations)
        # Different seeds, different runs: traces are per session.
        assert serial[0].trace_events != serial[1].trace_events
