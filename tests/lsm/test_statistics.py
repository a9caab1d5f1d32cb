"""Tests for tickers and per-op statistics."""

import pytest

from repro.lsm.statistics import OpClass, Statistics, Ticker


class TestStatistics:
    def test_tickers_start_zero(self):
        stats = Statistics()
        assert all(stats.ticker(t) == 0 for t in Ticker)

    def test_bump(self):
        stats = Statistics()
        stats.bump(Ticker.FLUSH_COUNT)
        stats.bump(Ticker.BYTES_WRITTEN, 1024)
        assert stats.ticker(Ticker.FLUSH_COUNT) == 1
        assert stats.ticker(Ticker.BYTES_WRITTEN) == 1024

    def test_monotonic(self):
        with pytest.raises(ValueError):
            Statistics().bump(Ticker.FLUSH_COUNT, -1)

    def test_observe_histograms(self):
        stats = Statistics()
        stats.observe(OpClass.PUT, 3.0)
        stats.observe(OpClass.GET, 100.0)
        assert stats.histogram(OpClass.PUT).count == 1
        assert stats.histogram(OpClass.GET).average == 100.0

    def test_cache_hit_rate(self):
        stats = Statistics()
        assert stats.cache_hit_rate() == 0.0
        stats.bump(Ticker.BLOCK_CACHE_HIT, 3)
        stats.bump(Ticker.BLOCK_CACHE_MISS, 1)
        assert stats.cache_hit_rate() == pytest.approx(0.75)

    def test_bloom_useful_rate(self):
        stats = Statistics()
        stats.bump(Ticker.BLOOM_CHECKED, 10)
        stats.bump(Ticker.BLOOM_USEFUL, 7)
        assert stats.bloom_useful_rate() == pytest.approx(0.7)

    def test_as_dict_keys_are_strings(self):
        d = Statistics().as_dict()
        assert "flush.count" in d

    def test_reset(self):
        stats = Statistics()
        stats.bump(Ticker.FLUSH_COUNT)
        stats.observe(OpClass.PUT, 1.0)
        stats.reset()
        assert stats.ticker(Ticker.FLUSH_COUNT) == 0
        assert stats.histogram(OpClass.PUT).count == 0


class TestFastLane:
    def test_raw_tickers_is_live_view(self):
        stats = Statistics()
        raw = stats.raw_tickers()
        raw[Ticker.FLUSH_COUNT.slot] += 3
        assert stats.ticker(Ticker.FLUSH_COUNT) == 3
        stats.bump(Ticker.FLUSH_COUNT)
        assert raw[Ticker.FLUSH_COUNT.slot] == 4

    def test_raw_tickers_survives_reset(self):
        stats = Statistics()
        raw = stats.raw_tickers()
        raw[Ticker.BYTES_READ.slot] = 100
        stats.reset()
        # Same backing list, zeroed in place.
        assert raw is stats.raw_tickers()
        assert raw[Ticker.BYTES_READ.slot] == 0
        raw[Ticker.BYTES_READ.slot] += 7
        assert stats.ticker(Ticker.BYTES_READ) == 7

    def test_slots_are_unique_and_dense(self):
        slots = [t.slot for t in Ticker]
        assert sorted(slots) == list(range(len(list(Ticker))))
        op_slots = [o.slot for o in OpClass]
        assert sorted(op_slots) == list(range(len(list(OpClass))))

    def test_observe_many_matches_observe(self):
        a, b = Statistics(), Statistics()
        values = [1.0, 5.0, 42.0, 1000.0]
        for v in values:
            a.observe(OpClass.GET, v)
        b.observe_many(OpClass.GET, values)
        ha, hb = a.histogram(OpClass.GET), b.histogram(OpClass.GET)
        assert ha.count == hb.count
        assert ha.average == hb.average
        assert ha.percentiles([99])[0] == hb.percentiles([99])[0]
