"""Tests for the tracer, the built-in sinks, and the console helper."""

import io

import pytest

from repro.obs import console
from repro.obs.events import BenchAbort, BenchProgress, SpanBegin, SpanEnd
from repro.obs.replay import read_trace
from repro.obs.sinks import JsonlSink, RingSink
from repro.obs.tracer import NULL_TRACER, Tracer


class TestTracer:
    def test_disabled_until_a_sink_subscribes(self):
        tracer = Tracer()
        assert not tracer.enabled
        ring = tracer.add_sink(RingSink())
        assert tracer.enabled
        tracer.remove_sink(ring)
        assert not tracer.enabled

    def test_emit_without_sinks_is_a_noop(self):
        NULL_TRACER.emit(BenchAbort("nobody listening"))  # must not raise

    def test_emit_stamps_bound_virtual_clock(self):
        ring = RingSink()
        tracer = Tracer(ring)
        now = [0.0]
        tracer.bind_clock(lambda: now[0])
        tracer.emit(BenchAbort("a"))
        now[0] = 125.0
        tracer.emit(BenchAbort("b"))
        assert [e.t_us for e in ring.events] == [0.0, 125.0]

    def test_span_nesting_and_duration(self):
        ring = RingSink()
        tracer = Tracer(ring)
        now = [0.0]
        tracer.bind_clock(lambda: now[0])
        with tracer.span("outer"):
            now[0] = 10.0
            with tracer.span("inner"):
                now[0] = 25.0
        begins = [e for e in ring.events if isinstance(e, SpanBegin)]
        ends = [e for e in ring.events if isinstance(e, SpanEnd)]
        assert [(b.name, b.depth) for b in begins] == [("outer", 0), ("inner", 1)]
        by_name = {e.name: e for e in ends}
        assert by_name["inner"].duration_us == 15.0
        assert by_name["outer"].duration_us == 25.0

    def test_span_disabled_tracer_does_not_emit(self):
        with Tracer().span("quiet"):
            pass  # no sink, no events, no error

    def test_abort_channel_first_reason_wins(self):
        tracer = Tracer(RingSink())
        assert not tracer.abort_requested
        tracer.request_abort("first")
        tracer.request_abort("second")
        assert tracer.abort_requested
        assert tracer.take_abort() == "first"
        assert not tracer.abort_requested
        assert tracer.take_abort() is None

    def test_close_detaches_sinks(self):
        ring = RingSink()
        tracer = Tracer(ring)
        assert ring.tracer is tracer
        tracer.close()
        assert ring.tracer is None
        assert not tracer.enabled


class TestSinks:
    def test_ring_unbounded_keeps_everything(self):
        ring = RingSink()
        for i in range(100):
            ring.emit(BenchProgress(i, 100, 0.0, 0.0))
        assert len(ring) == 100

    def test_ring_clear(self):
        ring = RingSink()
        ring.emit(BenchAbort("x"))
        ring.emit(BenchAbort("y"))
        ring.clear()
        assert len(ring) == 0

    def test_jsonl_sink_owns_path(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer(sink)
        tracer.emit(BenchAbort("slow"))
        tracer.emit(BenchProgress(1, 2, 0.1, 10.0))
        tracer.close()
        events = read_trace(path)
        assert len(events) == 2
        assert isinstance(events[0], BenchAbort)
        assert events[0].reason == "slow"
        assert sink.events_written == 2

    def test_jsonl_sink_borrows_stream(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.emit(BenchAbort("x"))
        sink.close()  # flush, but must not close a borrowed stream
        assert "bench.abort" in stream.getvalue()
        stream.write("still open\n")


class TestConsole:
    @pytest.fixture(autouse=True)
    def _reset_quiet(self):
        yield
        console.set_quiet(False)

    def test_out_prints_by_default(self, capsys):
        console.out("hello")
        assert capsys.readouterr().out == "hello\n"

    def test_quiet_silences_out_but_not_warn(self, capsys):
        console.set_quiet(True)
        console.out("hidden")
        console.warn("seen")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "seen\n"
