"""Tests for the db_bench-style latency histogram."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.histogram import Histogram


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.average == 0.0
        assert h.minimum == 0.0
        assert h.percentiles([99])[0] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram().add(-1.0)

    def test_single_value(self):
        h = Histogram()
        h.add(5.0)
        assert h.count == 1
        assert h.average == 5.0
        assert h.minimum == 5.0
        assert h.maximum == 5.0

    def test_average_and_stddev(self):
        h = Histogram()
        for v in (2.0, 4.0, 6.0, 8.0):
            h.add(v)
        assert h.average == pytest.approx(5.0)
        assert h.std_dev() == pytest.approx(2.2360679, rel=1e-3)

    def test_percentile_bounds(self):
        h = Histogram()
        for v in range(1, 101):
            h.add(float(v))
        assert h.percentiles([50])[0] <= h.percentiles([99])[0] <= h.percentiles([99.9])[0]
        assert h.minimum <= h.percentiles([1])[0]
        assert h.percentiles([100])[0] <= h.maximum

    def test_percentile_accuracy_within_bucket_resolution(self):
        h = Histogram()
        for v in range(1, 10001):
            h.add(float(v))
        # Geometric buckets give ~50% resolution; check broad accuracy.
        assert 4000 < h.percentiles([50])[0] < 7600
        assert 9000 < h.percentiles([99])[0] <= 10000

    def test_p99_separates_tail(self):
        h = Histogram()
        for _ in range(990):
            h.add(2.0)
        for _ in range(10):
            h.add(5000.0)
        assert h.percentiles([50])[0] < 5.0
        assert h.percentiles([99.5])[0] > 1000.0

    def test_invalid_percentile(self):
        h = Histogram()
        h.add(1.0)
        with pytest.raises(ValueError):
            h.percentiles([0])[0]
        with pytest.raises(ValueError):
            h.percentiles([101])[0]

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.add(1.0)
        b.add(100.0)
        a.merge(b)
        assert a.count == 2
        assert a.minimum == 1.0
        assert a.maximum == 100.0

    def test_reset(self):
        h = Histogram()
        h.add(5.0)
        h.reset()
        assert h.count == 0
        assert h.maximum == 0.0

    def test_summary(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.add(v)
        s = h.summary()
        assert s.count == 3
        assert s.average == pytest.approx(2.0)
        assert "Percentiles" in s.describe()

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1,
                    max_size=300))
    @settings(max_examples=40)
    def test_percentiles_are_monotone_and_bounded(self, values):
        h = Histogram()
        for v in values:
            h.add(v)
        p50, p95, p99 = h.percentiles([50])[0], h.percentiles([95])[0], h.percentiles([99])[0]
        assert p50 <= p95 <= p99
        assert min(values) <= p50
        assert p99 <= max(values)


class TestDeferredAggregation:
    def test_observe_many_matches_sequential_adds(self):
        values = [1.0, 3.5, 10.0, 250.0, 1e6, 0.0, 7.0] * 200
        a, b = Histogram(), Histogram()
        for v in values:
            a.add(v)
        b.observe_many(values)
        assert a.count == b.count
        assert a.average == b.average
        assert a.std_dev() == b.std_dev()
        assert a.minimum == b.minimum
        assert a.maximum == b.maximum
        assert a.percentiles([99])[0] == b.percentiles([99])[0]

    def test_observe_many_rejects_negative_without_partial_state(self):
        h = Histogram()
        h.add(5.0)
        with pytest.raises(ValueError):
            h.observe_many([1.0, -2.0, 3.0])
        assert h.count == 1  # the bad batch left nothing behind

    def test_observe_many_empty_is_noop(self):
        h = Histogram()
        h.observe_many([])
        assert h.count == 0

    def test_accessors_drain_pending(self):
        # Fewer than the drain threshold: accessors must still see them.
        h = Histogram()
        h.add(2.0)
        h.add(4.0)
        assert h.count == 2
        assert h.average == 3.0
        assert h.minimum == 2.0
        assert h.maximum == 4.0

    def test_merge_drains_both_sides(self):
        a, b = Histogram(), Histogram()
        a.add(1.0)
        b.add(100.0)
        a.merge(b)
        assert a.count == 2
        assert a.minimum == 1.0
        assert a.maximum == 100.0

    def test_reset_clears_pending(self):
        h = Histogram()
        h.add(9.0)
        h.reset()
        assert h.count == 0
        assert h.maximum == 0.0


class TestPercentilesBatch:
    def test_percentiles_matches_individual_calls(self):
        h = Histogram()
        for i in range(1, 2001):
            h.add(float(i))
        ps = [50.0, 95.0, 99.0, 99.9]
        batch = h.percentiles(ps)
        assert batch == [h.percentiles([p])[0] for p in ps]

    def test_percentiles_are_monotone(self):
        h = Histogram()
        for i in range(1, 500):
            h.add(float(i * 7 % 1000) + 1.0)
        out = h.percentiles([10, 50, 90, 99, 99.9])
        assert out == sorted(out)

    def test_percentiles_validates_range(self):
        h = Histogram()
        h.add(1.0)
        with pytest.raises(ValueError):
            h.percentiles([0.0])
        with pytest.raises(ValueError):
            h.percentiles([101.0])

    def test_summary_uses_shared_interpolation(self):
        h = Histogram()
        for i in range(1, 1001):
            h.add(float(i))
        s = h.summary()
        median, p95, p99, p999 = h.percentiles([50, 95, 99, 99.9])
        assert (s.median, s.p95, s.p99, s.p999) == (median, p95, p99, p999)
