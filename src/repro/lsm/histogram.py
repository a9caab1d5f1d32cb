"""Latency histogram with db_bench-style percentile estimation.

Bucket limits grow geometrically (~1.5x), matching RocksDB's
``HistogramBucketMapper``; percentiles are linearly interpolated inside
the containing bucket, so p50/p99/p99.99 behave like the numbers
``db_bench`` prints.

Hot-path design: observations are buffered and aggregated into buckets
in batches (deferred aggregation), so the per-observation cost in the
engine's put/get paths is a single list append. Bucket lookup uses the
C-implemented ``bisect`` instead of a hand-rolled Python binary search.
All read accessors drain the buffer first, so externally the histogram
always behaves as if every ``add`` aggregated immediately.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass


def _build_bucket_limits() -> list[float]:
    limits = [1.0]
    while limits[-1] < 1e12:
        nxt = max(limits[-1] + 1, math.floor(limits[-1] * 1.5))
        limits.append(float(nxt))
    return limits


_BUCKET_LIMITS = _build_bucket_limits()
_NUM_BUCKETS = len(_BUCKET_LIMITS)
_LAST_BUCKET = _NUM_BUCKETS - 1

#: Pending observations buffered before a batch aggregation pass.
_DRAIN_THRESHOLD = 512


@dataclass(frozen=True)
class HistogramSummary:
    """Immutable snapshot of a histogram's headline stats."""

    count: int
    average: float
    std_dev: float
    minimum: float
    maximum: float
    median: float
    p95: float
    p99: float
    p999: float

    def describe(self) -> str:
        return (
            f"Count: {self.count} Average: {self.average:.4f} "
            f"StdDev: {self.std_dev:.2f}\n"
            f"Min: {self.minimum:.4f} Median: {self.median:.4f} "
            f"Max: {self.maximum:.4f}\n"
            f"Percentiles: P95: {self.p95:.2f} P99: {self.p99:.2f} "
            f"P99.9: {self.p999:.2f}"
        )


class Histogram:
    """Accumulates observations (microseconds) into geometric buckets."""

    __slots__ = (
        "_buckets", "_count", "_sum", "_sum_squares", "_min", "_max",
        "_pending",
    )

    def __init__(self) -> None:
        self._buckets = [0] * _NUM_BUCKETS
        self._count = 0
        self._sum = 0.0
        self._sum_squares = 0.0
        self._min = math.inf
        self._max = 0.0
        self._pending: list[float] = []

    def add(self, value_us: float) -> None:
        if value_us < 0:
            raise ValueError("latency cannot be negative")
        pending = self._pending
        pending.append(value_us)
        if len(pending) >= _DRAIN_THRESHOLD:
            self._drain()

    def observe_many(self, values_us) -> None:
        """Batch insert: one validation pass, one deferred aggregation."""
        values = list(values_us)
        if not values:
            return
        if min(values) < 0:
            raise ValueError("latency cannot be negative")
        self._pending.extend(values)
        if len(self._pending) >= _DRAIN_THRESHOLD:
            self._drain()

    def _drain(self) -> None:
        """Fold buffered observations into the bucket aggregates."""
        pending = self._pending
        if not pending:
            return
        buckets = self._buckets
        limits = _BUCKET_LIMITS
        last = _LAST_BUCKET
        bl = bisect_left
        # Accumulate onto the running sums (not a fresh local) so the
        # float association order — and therefore the reported average /
        # std-dev — is bit-identical to per-observation aggregation.
        total = self._sum
        squares = self._sum_squares
        for v in pending:
            idx = bl(limits, v)
            buckets[idx if idx < last else last] += 1
            total += v
            squares += v * v
        self._count += len(pending)
        self._sum = total
        self._sum_squares = squares
        lo = min(pending)
        hi = max(pending)
        if lo < self._min:
            self._min = lo
        if hi > self._max:
            self._max = hi
        pending.clear()

    @property
    def count(self) -> int:
        if self._pending:
            self._drain()
        return self._count

    @property
    def average(self) -> float:
        if self._pending:
            self._drain()
        return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        if self._pending:
            self._drain()
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        if self._pending:
            self._drain()
        return self._max

    def std_dev(self) -> float:
        if self._pending:
            self._drain()
        if self._count == 0:
            return 0.0
        mean = self._sum / self._count
        variance = max(0.0, self._sum_squares / self._count - mean * mean)
        return math.sqrt(variance)

    # -- percentiles -------------------------------------------------------

    def _interpolate(self, idx: int, n: int, cumulative: int,
                     threshold: float) -> float:
        """Linear interpolation inside the bucket containing the target.

        The single shared implementation used by both :meth:`percentile`
        and :meth:`summary` (via :meth:`percentiles`).
        """
        left = _BUCKET_LIMITS[idx - 1] if idx > 0 else 0.0
        right = _BUCKET_LIMITS[idx]
        within = (threshold - cumulative) / n
        est = left + (right - left) * within
        return min(max(est, self._min), self._max)

    def percentiles(self, ps: list[float]) -> list[float]:
        """Estimate several percentiles in one bucket scan.

        ``ps`` must be ascending, each in (0, 100].
        """
        for p in ps:
            if not 0 < p <= 100:
                raise ValueError("percentile must be in (0, 100]")
        self._drain()
        if self._count == 0:
            return [0.0] * len(ps)
        thresholds = [self._count * (p / 100.0) for p in ps]
        out: list[float] = []
        cumulative = 0
        ti = 0
        nps = len(thresholds)
        for idx, n in enumerate(self._buckets):
            if n == 0:
                continue
            while ti < nps and cumulative + n >= thresholds[ti]:
                out.append(self._interpolate(idx, n, cumulative, thresholds[ti]))
                ti += 1
            if ti == nps:
                break
            cumulative += n
        while ti < nps:
            out.append(self._max)
            ti += 1
        return out

    def merge(self, other: "Histogram") -> None:
        self._drain()
        other._drain()
        buckets = self._buckets
        for idx, n in enumerate(other._buckets):
            if n:
                buckets[idx] += n
        self._count += other._count
        self._sum += other._sum
        self._sum_squares += other._sum_squares
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def summary(self) -> HistogramSummary:
        median, p95, p99, p999 = self.percentiles([50, 95, 99, 99.9])
        return HistogramSummary(
            count=self.count,
            average=self.average,
            std_dev=self.std_dev(),
            minimum=self.minimum,
            maximum=self.maximum,
            median=median,
            p95=p95,
            p99=p99,
            p999=p999,
        )

    def reset(self) -> None:
        self._buckets = [0] * _NUM_BUCKETS
        self._count = 0
        self._sum = 0.0
        self._sum_squares = 0.0
        self._min = math.inf
        self._max = 0.0
        self._pending.clear()
