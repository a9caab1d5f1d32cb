"""Tests for the background-IO token bucket."""

import pytest

from repro.lsm.rate_limiter import RateLimiter


class TestRateLimiter:
    def test_disabled_by_default(self):
        limiter = RateLimiter(0)
        assert not limiter.enabled
        assert limiter.request(0.0, 1 << 20) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateLimiter(-1)

    def test_first_request_unthrottled(self):
        limiter = RateLimiter(1_000_000)
        assert limiter.request(0.0, 1000) == 0.0

    def test_back_to_back_requests_wait(self):
        limiter = RateLimiter(1_000_000)  # 1 MB/s == 1 byte/us
        limiter.request(0.0, 1000)
        wait = limiter.request(0.0, 1000)
        assert wait == pytest.approx(1000.0)

    def test_wait_shrinks_with_elapsed_time(self):
        limiter = RateLimiter(1_000_000)
        limiter.request(0.0, 1000)
        assert limiter.request(600.0, 1000) == pytest.approx(400.0)
        assert limiter.request(1e9, 1000) == 0.0

    def test_zero_bytes_free(self):
        limiter = RateLimiter(1_000_000)
        assert limiter.request(0.0, 0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            RateLimiter(100).request(0.0, -5)

    def test_counters(self):
        limiter = RateLimiter(1_000_000)
        limiter.request(0.0, 500)
        limiter.request(0.0, 500)
        assert limiter.total_bytes_through == 1000
        assert limiter.total_wait_us > 0

    def test_rate_change(self):
        limiter = RateLimiter(1_000_000)
        limiter.set_bytes_per_second(2_000_000)
        assert limiter._rate == 2_000_000
        with pytest.raises(ValueError):
            limiter.set_bytes_per_second(-1)


class TestRateChangeRescalesHorizon:
    """Regression: ``set_bytes_per_second`` used to leave the already
    committed wait horizon priced under the *old* rate, so a tuner
    raising the limit mid-run kept stalling IO at the pre-change pace.
    """

    def test_raising_rate_shrinks_outstanding_wait(self):
        limiter = RateLimiter(1_000_000)  # 1 byte/us
        limiter.request(0.0, 1_000_000)  # 1s of work queued at old rate
        limiter.set_bytes_per_second(10_000_000)  # 10x faster
        # The queued megabyte now drains at 10 bytes/us: ~100ms, not 1s.
        wait = limiter.request(0.0, 1)
        assert wait == pytest.approx(100_000.0)

    def test_lowering_rate_stretches_outstanding_wait(self):
        limiter = RateLimiter(1_000_000)
        limiter.request(0.0, 1_000_000)
        limiter.set_bytes_per_second(500_000)  # half speed
        wait = limiter.request(0.0, 1)
        assert wait == pytest.approx(2_000_000.0)

    def test_disabling_rate_clears_horizon(self):
        limiter = RateLimiter(1_000_000)
        limiter.request(0.0, 1_000_000)
        limiter.set_bytes_per_second(0)
        assert limiter.request(0.0, 4096) == 0.0

    def test_rescale_is_anchored_at_last_request_time(self):
        limiter = RateLimiter(1_000_000)
        limiter.request(500.0, 1_000_000)  # horizon ends at 1_000_500
        limiter.set_bytes_per_second(2_000_000)
        # 1_000_000 outstanding bytes repriced at 2 bytes/us from t=500.
        wait = limiter.request(500.0, 1)
        assert wait == pytest.approx(500_000.0)

    def test_unchanged_rate_keeps_horizon(self):
        limiter = RateLimiter(1_000_000)
        limiter.request(0.0, 1000)
        limiter.set_bytes_per_second(1_000_000)
        assert limiter.request(0.0, 1) == pytest.approx(1000.0)
