"""Token-bucket rate limiter for background I/O.

When ``rate_limiter_bytes_per_sec`` is set, flush and compaction I/O is
paced: a request for N bytes at virtual time t is granted at
``max(t, next_available)`` and pushes ``next_available`` forward by
``N / rate``. Returns the wait the job must absorb.
"""

from __future__ import annotations


class RateLimiter:
    """Virtual-time token bucket (bytes per second)."""

    def __init__(self, bytes_per_sec: int) -> None:
        if bytes_per_sec < 0:
            raise ValueError("rate cannot be negative")
        self._rate = bytes_per_sec
        self._next_free_us = 0.0
        self._last_now_us = 0.0
        self.total_bytes_through = 0
        self.total_wait_us = 0.0

    @property
    def enabled(self) -> bool:
        return self._rate > 0

    def set_bytes_per_second(
        self, bytes_per_sec: int, now_us: float | None = None
    ) -> None:
        """Change the rate, rescaling any outstanding wait horizon.

        Bytes already admitted but not yet "drained" (the span between
        now and ``_next_free_us``) were queued at the old rate; they must
        drain at the *new* rate, or a raised limit keeps paying waits
        priced at the old (possibly tiny) rate for the rest of the
        horizon. ``now_us`` defaults to the time of the last request.
        """
        if bytes_per_sec < 0:
            raise ValueError("rate cannot be negative")
        old_rate = self._rate
        if bytes_per_sec != old_rate:
            now = self._last_now_us if now_us is None else now_us
            outstanding_us = self._next_free_us - now
            if outstanding_us > 0 and old_rate > 0:
                queued_bytes = outstanding_us * old_rate / 1e6
                if bytes_per_sec > 0:
                    self._next_free_us = now + queued_bytes / bytes_per_sec * 1e6
                else:
                    # Unlimited: the backlog drains instantly.
                    self._next_free_us = now
        self._rate = bytes_per_sec

    def request(self, now_us: float, nbytes: int) -> float:
        """Account ``nbytes`` at ``now_us``; return extra wait in us."""
        if nbytes < 0:
            raise ValueError("cannot request negative bytes")
        self._last_now_us = max(self._last_now_us, now_us)
        self.total_bytes_through += nbytes
        if self._rate <= 0 or nbytes == 0:
            return 0.0
        start = max(now_us, self._next_free_us)
        wait = start - now_us
        self._next_free_us = start + nbytes / self._rate * 1e6
        self.total_wait_us += wait
        return wait
