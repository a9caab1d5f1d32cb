"""Tests for the Active Flagger, Benchmark Monitor, and stopping rules."""

import pytest

from repro.core.bench_parser import BenchMetrics
from repro.core.flagger import ActiveFlagger
from repro.core.monitor import BenchmarkMonitor
from repro.core.stopping import StoppingCriteria, StopTracker
from repro.obs.events import BenchProgress
from repro.obs.tracer import Tracer


def metrics(ops, p99w=None, p99r=None, aborted=False):
    return BenchMetrics(
        benchmark="x", micros_per_op=1e6 / ops, ops_per_sec=ops,
        mb_per_sec=1.0, p99_write_us=p99w, p99_read_us=p99r,
        stall_percent=0.0, stall_count=0, cache_hit_rate=0.0,
        bloom_useful_rate=0.0, aborted=aborted,
    )


class TestActiveFlagger:
    def test_improvement_kept(self):
        decision = ActiveFlagger().decide(metrics(100), metrics(120))
        assert decision.keep and decision.improved
        assert "improved" in decision.reason

    def test_regression_reverted(self):
        decision = ActiveFlagger().decide(metrics(100), metrics(80))
        assert not decision.keep
        assert "reverting" in decision.reason

    def test_aborted_run_always_reverted(self):
        decision = ActiveFlagger().decide(metrics(100),
                                          metrics(500, aborted=True))
        assert not decision.keep
        assert "aborted" in decision.reason

    def test_p99_tiebreak_within_band(self):
        best = metrics(100, p99w=10.0)
        candidate = metrics(99.5, p99w=7.0)  # flat throughput, better tail
        decision = ActiveFlagger().decide(best, candidate)
        assert decision.keep

    def test_p99_regression_disqualifies_tiebreak(self):
        best = metrics(100, p99w=10.0, p99r=50.0)
        candidate = metrics(99.5, p99w=7.0, p99r=200.0)
        assert not ActiveFlagger().decide(best, candidate).keep

    def test_min_gain_threshold(self):
        """The threshold is zero: any throughput gain is an improvement."""
        decision = ActiveFlagger().decide(metrics(100, p99w=5),
                                          metrics(100.5, p99w=5))
        assert decision.keep and decision.improved

    def test_flat_throughput_outside_the_band_is_reverted(self):
        best = metrics(100, p99w=10.0)
        candidate = metrics(97.5, p99w=7.0)  # better tail, 2.5% slower
        assert not ActiveFlagger().decide(best, candidate).keep


class TestBenchmarkMonitor:
    """The monitor as a trace sink: progress samples in, an abort
    request on the tracer's control channel out."""

    def run(self, reference, *samples, total=10_000):
        monitor = BenchmarkMonitor(reference)
        tracer = Tracer(monitor)
        for done, ops in samples:
            tracer.emit(BenchProgress(done, total, done / ops, ops))
        return monitor, tracer

    def test_no_reference_never_aborts(self):
        monitor, tracer = self.run(None, (9000, 1.0))
        assert not monitor.fired and not tracer.abort_requested

    def test_warmup_grace_period(self):
        # Terrible, but inside the first 20% of the run.
        monitor, tracer = self.run(1000.0, (1000, 10.0))
        assert not monitor.fired and not tracer.abort_requested

    def test_aborts_after_warmup_when_slow(self):
        monitor, tracer = self.run(1000.0, (5000, 100.0))
        assert monitor.fired
        assert "below 50% of reference" in tracer.take_abort()

    def test_continues_when_healthy(self):
        monitor, tracer = self.run(1000.0, (5000, 900.0))
        assert not monitor.fired and not tracer.abort_requested

    def test_fires_once(self):
        monitor, tracer = self.run(1000.0, (5000, 100.0))
        tracer.take_abort()
        tracer.emit(BenchProgress(6000, 10_000, 60.0, 100.0))
        assert not tracer.abort_requested


class TestStopping:
    def test_max_iterations(self):
        tracker = StopTracker(StoppingCriteria(max_iterations=2))
        best = metrics(100)
        assert tracker.should_stop() is None
        tracker.record(True, best)
        assert tracker.should_stop() is None
        tracker.record(True, best)
        assert "max iterations" in tracker.should_stop()

    def test_patience(self):
        tracker = StopTracker(StoppingCriteria(max_iterations=99, patience=2))
        best = metrics(100)
        tracker.record(False, best)
        assert tracker.should_stop() is None
        tracker.record(False, best)
        assert "no improvement" in tracker.should_stop()

    def test_patience_resets_on_improvement(self):
        tracker = StopTracker(StoppingCriteria(max_iterations=99, patience=2))
        tracker.seed(metrics(100))
        tracker.record(False, metrics(100))
        tracker.record(True, metrics(120))  # real gain resets the streak
        tracker.record(False, metrics(120))
        assert tracker.should_stop() is None

    def test_minimal_gain_counts_toward_patience(self):
        tracker = StopTracker(
            StoppingCriteria(max_iterations=99, patience=2, minimal_gain=0.05)
        )
        tracker.seed(metrics(100))
        # Flagger said "improved", but the gains sit below minimal_gain:
        # the streak must keep growing and the stop reason must say so.
        tracker.record(True, metrics(101))
        assert tracker.should_stop() is None
        tracker.record(True, metrics(102))
        reason = tracker.should_stop()
        assert reason is not None and "no improvement" in reason
        assert "minimal gain" in reason

    def test_meaningful_gain_resets_minimal_streak(self):
        tracker = StopTracker(
            StoppingCriteria(max_iterations=99, patience=2, minimal_gain=0.05)
        )
        tracker.seed(metrics(100))
        tracker.record(True, metrics(101))  # marginal: streak = 1
        tracker.record(True, metrics(120))  # 18.8% over 101: streak resets
        assert tracker.should_stop() is None

    def test_invalid_criteria(self):
        with pytest.raises(ValueError):
            StoppingCriteria(max_iterations=0)
        with pytest.raises(ValueError):
            StoppingCriteria(patience=0)
