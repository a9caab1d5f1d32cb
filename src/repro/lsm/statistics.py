"""Engine statistics: tickers and per-operation histograms.

A small, typed version of RocksDB's ``Statistics``: named monotonically
increasing tickers plus latency histograms per operation class. The
tuner's prompt generator and the db_bench report both read from here.

Hot-path design: tickers live in a flat integer array indexed by a
``slot`` precomputed on each enum member, not in an enum-keyed dict, so
a bump is one list index instead of a string-hash dict lookup. The DB
facade may bind :meth:`raw_tickers` once and bump slots directly; the
array object stays stable across :meth:`reset` to keep such bindings
valid.
"""

from __future__ import annotations

import enum

from repro.lsm.histogram import Histogram


class Ticker(str, enum.Enum):
    """Monotonic counters the engine maintains."""

    BYTES_WRITTEN = "bytes.written"
    BYTES_READ = "bytes.read"
    WAL_BYTES = "wal.bytes"
    WAL_SYNCS = "wal.syncs"
    FLUSH_COUNT = "flush.count"
    FLUSH_BYTES = "flush.bytes"
    COMPACTION_COUNT = "compaction.count"
    COMPACTION_BYTES_READ = "compaction.bytes.read"
    COMPACTION_BYTES_WRITTEN = "compaction.bytes.written"
    STALL_MICROS = "stall.micros"
    DELAYED_WRITE_MICROS = "delayed.write.micros"
    STALL_COUNT = "stall.count"
    SLOWDOWN_COUNT = "slowdown.count"
    BLOCK_CACHE_HIT = "block.cache.hit"
    BLOCK_CACHE_MISS = "block.cache.miss"
    BLOOM_USEFUL = "bloom.useful"
    BLOOM_CHECKED = "bloom.checked"
    MEMTABLE_HIT = "memtable.hit"
    MEMTABLE_MISS = "memtable.miss"
    GET_HIT_L0 = "get.hit.l0"
    GET_HIT_L1 = "get.hit.l1"
    GET_HIT_L2_PLUS = "get.hit.l2plus"
    NUMBER_KEYS_WRITTEN = "keys.written"
    NUMBER_KEYS_READ = "keys.read"
    NUMBER_KEYS_FOUND = "keys.found"
    NUMBER_SEEKS = "seeks"
    TABLE_OPENS = "table.opens"
    WRITE_WITH_WAL = "write.with.wal"
    WRITE_DONE_BY_SELF = "write.done.self"
    #: Writes committed on a writer's behalf by a group-commit leader
    #: (bumped by the service layer's write groups, not the engine).
    WRITE_DONE_BY_OTHER = "write.done.other"
    #: Batched reads (RocksDB's NUMBER_MULTIGET_* family): calls, keys
    #: requested, and value bytes returned by ``DB.multi_get``.
    NUMBER_MULTIGET_CALLS = "multiget.calls"
    NUMBER_MULTIGET_KEYS_READ = "multiget.keys.read"
    NUMBER_MULTIGET_BYTES_READ = "multiget.bytes.read"


class OpClass(str, enum.Enum):
    """Histogram families."""

    PUT = "put"
    GET = "get"
    SEEK = "seek"
    DELETE = "delete"
    FLUSH = "flush"
    COMPACTION = "compaction"
    WAL_SYNC = "wal.sync"


# Assign each member its position in the backing arrays. A plain
# instance attribute is much cheaper to read than the DynamicClassAttribute
# behind ``.value``.
for _slot, _member in enumerate(Ticker):
    _member.slot = _slot  # type: ignore[attr-defined]
for _slot, _member in enumerate(OpClass):
    _member.slot = _slot  # type: ignore[attr-defined]

_TICKERS = tuple(Ticker)
_OP_CLASSES = tuple(OpClass)
_NUM_TICKERS = len(_TICKERS)


class Statistics:
    """Ticker + histogram registry for one DB instance."""

    __slots__ = ("_tickers", "_histograms")

    def __init__(self) -> None:
        self._tickers: list[int] = [0] * _NUM_TICKERS
        self._histograms: list[Histogram] = [Histogram() for _ in _OP_CLASSES]

    # -- tickers -----------------------------------------------------------

    def bump(self, ticker: Ticker, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("tickers are monotonic")
        self._tickers[ticker.slot] += amount

    def ticker(self, ticker: Ticker) -> int:
        return self._tickers[ticker.slot]

    def raw_tickers(self) -> list[int]:
        """The backing counter array, indexed by ``Ticker.<X>.slot``.

        Engine-internal fast lane: the list object is stable for the
        lifetime of the Statistics (``reset`` zeroes it in place), so the
        DB facade can bind it once and bump slots without method calls.
        Callers must never shrink it or make counters go backwards.
        """
        return self._tickers

    # -- histograms ----------------------------------------------------------

    def observe(self, op: OpClass, latency_us: float) -> None:
        self._histograms[op.slot].add(latency_us)

    def observe_many(self, op: OpClass, latencies_us) -> None:
        """Batch path: record many latencies with one validation pass."""
        self._histograms[op.slot].observe_many(latencies_us)

    def histogram(self, op: OpClass) -> Histogram:
        return self._histograms[op.slot]

    # -- views -----------------------------------------------------------

    def cache_hit_rate(self) -> float:
        hits = self._tickers[Ticker.BLOCK_CACHE_HIT.slot]
        total = hits + self._tickers[Ticker.BLOCK_CACHE_MISS.slot]
        return hits / total if total else 0.0

    def bloom_useful_rate(self) -> float:
        useful = self._tickers[Ticker.BLOOM_USEFUL.slot]
        checked = self._tickers[Ticker.BLOOM_CHECKED.slot]
        return useful / checked if checked else 0.0

    def as_dict(self) -> dict[str, int]:
        return {t.value: self._tickers[t.slot] for t in _TICKERS}

    def reset(self) -> None:
        # Zero in place: raw_tickers() bindings must stay valid.
        tickers = self._tickers
        for i in range(_NUM_TICKERS):
            tickers[i] = 0
        for h in self._histograms:
            h.reset()
