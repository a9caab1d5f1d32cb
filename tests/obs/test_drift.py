"""Tests for the workload drift detector."""

import pytest

from repro.obs.drift import DriftConfig, DriftDetector
from repro.obs.events import BenchProgress, ServiceProgress


def _sample(ops, reads, hit_rate=0.5, t_us=0.0):
    event = ServiceProgress(
        ops_done=ops,
        total_ops=100_000,
        elapsed_virtual_s=ops / 1e5,
        ops_per_sec=1e5,
        reads_done=reads,
        writes_done=ops - reads,
        cache_hit_rate=hit_rate,
    )
    event.t_us = t_us
    return event


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(window_ops=0)
        with pytest.raises(ValueError):
            DriftConfig(min_ops_between_emits=-1)


class TestDetection:
    def _detector(self):
        return DriftDetector(DriftConfig(window_ops=1000))

    def test_steady_mix_never_drifts(self):
        det = self._detector()
        emitted = [det.observe(_sample(i * 1000, i * 200)) for i in range(1, 11)]
        assert [d for d in emitted if d is not None] == []

    def test_read_mix_shift_drifts_once(self):
        det = self._detector()
        # Two windows at 20% reads, then a window at 90%.
        assert det.observe(_sample(1000, 200)) is None
        assert det.observe(_sample(2000, 400)) is None
        drift = det.observe(_sample(3000, 400 + 900))
        assert drift is not None
        assert drift.metric == "read_fraction"
        assert drift.previous == pytest.approx(0.2)
        assert drift.current == pytest.approx(0.9)
        # The new mix becomes the baseline: no repeat drift.
        assert det.observe(_sample(4000, 1300 + 900)) is None

    def test_hit_rate_shift_is_the_skew_proxy(self):
        det = self._detector()
        assert det.observe(_sample(1000, 200, hit_rate=0.30)) is None
        drift = det.observe(_sample(2000, 400, hit_rate=0.55))
        assert drift is not None
        assert drift.metric == "cache_hit_rate"
        assert drift.previous == pytest.approx(0.30)
        assert drift.current == pytest.approx(0.55)

    def test_read_mix_takes_priority_over_hit_rate(self):
        det = self._detector()
        det.observe(_sample(1000, 200, hit_rate=0.30))
        drift = det.observe(_sample(2000, 400 + 900, hit_rate=0.55))
        assert drift.metric == "read_fraction"

    def test_sub_window_samples_are_ignored(self):
        det = self._detector()
        assert det.observe(_sample(999, 999)) is None
        assert det.observe(_sample(1000, 1000)) is None  # first window
        # Mid-window sample does not close a window even with wild mix.
        assert det.observe(_sample(1500, 1000)) is None

    def test_non_service_events_are_ignored(self):
        det = self._detector()
        assert det.observe(BenchProgress(1000, 2000, 1.0, 1000.0)) is None

    def test_drift_inherits_sample_timestamp(self):
        det = self._detector()
        det.observe(_sample(1000, 200, t_us=1.0))
        drift = det.observe(_sample(2000, 1100, t_us=2500.0))
        assert drift.t_us == 2500.0


class TestHysteresis:
    """Regression: the detector adopts each window as the new baseline,
    so an alternating A/B/A/B workload used to emit at *every* window
    boundary forever — a wake storm for the online tuner."""

    def _alternate(self, det, windows=16, window_ops=1000):
        """Feed ``windows`` boundaries whose read mix flips 0.9/0.1."""
        emits = 0
        reads = 0
        for i in range(1, windows + 1):
            reads += 900 if i % 2 else 100
            if det.observe(_sample(i * window_ops, reads)) is not None:
                emits += 1
        return emits

    def test_cooldown_pins_emit_count_on_alternating_workload(self):
        det = DriftDetector(
            DriftConfig(window_ops=1000, min_ops_between_emits=4000)
        )
        # Drift fires at the first flip (ops 2000), then once per
        # elapsed cooldown: 2000, 6000, 10000, 14000.
        assert self._alternate(det) == 4

    def test_zero_cooldown_restores_emit_per_boundary(self):
        det = DriftDetector(
            DriftConfig(window_ops=1000, min_ops_between_emits=0)
        )
        # Every boundary after the first window compares A against B:
        # 15 emits over 16 windows — the storm the default prevents.
        assert self._alternate(det) == 15

    def test_cooldown_suppresses_but_baseline_still_rolls(self):
        det = DriftDetector(
            DriftConfig(window_ops=1000, min_ops_between_emits=10_000)
        )
        assert det.observe(_sample(1000, 900)) is None
        assert det.observe(_sample(2000, 1000)) is not None  # first emit
        # Inside the cooldown: flip back and forth, nothing emitted...
        assert det.observe(_sample(3000, 1900)) is None
        assert det.observe(_sample(4000, 2000)) is None
        # ...and the baseline tracked the live mix the whole time: a
        # steady continuation after the cooldown does not re-fire.
        det2 = DriftDetector(
            DriftConfig(window_ops=1000, min_ops_between_emits=2000)
        )
        det2.observe(_sample(1000, 900))
        assert det2.observe(_sample(2000, 1000)) is not None
        det2.observe(_sample(3000, 1100))  # cooldown; baseline -> 0.1
        assert det2.observe(_sample(4000, 1200)) is None  # steady 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(min_ops_between_emits=-1)

