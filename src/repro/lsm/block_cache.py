"""Sharded LRU block cache.

Capacity-charged LRU with power-of-two sharding by key hash, like
RocksDB's ``LRUCache``. Stores decompressed block payloads keyed by
``(file_number, block_offset)``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable


class _Shard:
    __slots__ = ("capacity", "used", "entries", "hits", "misses", "evictions",
                 "on_evict")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.used = 0
        self.entries: OrderedDict[Hashable, tuple[object, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Optional ``(key, charge)`` callback fired per capacity
        #: eviction (observability hook; None costs one check).
        self.on_evict: "Callable[[Hashable, int], None] | None" = None

    def put(self, key: Hashable, value: object, charge: int) -> int:
        """Insert; returns the net change to this shard's used bytes."""
        if charge > self.capacity:
            return 0  # too big to cache at all
        before = self.used
        old = self.entries.pop(key, None)
        if old is not None:
            self.used -= old[1]
        self.entries[key] = (value, charge)
        self.used += charge
        while self.used > self.capacity and self.entries:
            _k, (_v, c) = self.entries.popitem(last=False)
            self.used -= c
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(_k, c)
        return self.used - before

    def erase(self, key: Hashable) -> int:
        """Remove; returns the net change to this shard's used bytes."""
        old = self.entries.pop(key, None)
        if old is not None:
            self.used -= old[1]
            return -old[1]
        return 0


class LRUCache:
    """A sharded, capacity-charged LRU cache."""

    def __init__(self, capacity_bytes: int, num_shard_bits: int = 4) -> None:
        if capacity_bytes < 0:
            raise ValueError("cache capacity cannot be negative")
        if not 0 <= num_shard_bits <= 19:
            raise ValueError("num_shard_bits out of range")
        # Keep each shard big enough to hold a handful of blocks;
        # otherwise a small cache with many shards caches nothing.
        min_shard_bytes = 16 * 1024
        while num_shard_bits > 0 and capacity_bytes // (1 << num_shard_bits) < min_shard_bytes:
            num_shard_bits -= 1
        self._num_shards = 1 << num_shard_bits
        per_shard = max(1, capacity_bytes // self._num_shards)
        self._shards = [_Shard(per_shard) for _ in range(self._num_shards)]
        self.capacity_bytes = capacity_bytes
        self._disabled = capacity_bytes == 0
        #: Running total across shards; kept incrementally so the
        #: per-operation memory gauge never has to sum the shard list.
        self._used_total = 0

    def _shard(self, key: Hashable) -> _Shard:
        return self._shards[hash(key) & (self._num_shards - 1)]

    def get(self, key: Hashable) -> object | None:
        # The shard lookup is inlined: every block and page read of
        # every point lookup and scan asks here.
        if self._disabled:
            return None
        shard = self._shards[hash(key) & (self._num_shards - 1)]
        entry = shard.entries.get(key)
        if entry is None:
            shard.misses += 1
            return None
        shard.entries.move_to_end(key)
        shard.hits += 1
        return entry[0]

    def put(self, key: Hashable, value: object, charge: int) -> None:
        if self._disabled:
            return
        self._used_total += self._shard(key).put(key, value, charge)

    def erase(self, key: Hashable) -> None:
        if self._disabled:
            return
        self._used_total += self._shard(key).erase(key)

    def erase_file(self, file_number: int) -> None:
        """Drop every cached block of one file (called on file deletion)."""
        for shard in self._shards:
            doomed = [k for k in shard.entries if isinstance(k, tuple) and k and k[0] == file_number]
            for key in doomed:
                self._used_total += shard.erase(key)

    def clear(self) -> None:
        """Drop every payload (the store closed); the counters stay and
        no eviction is reported."""
        for shard in self._shards:
            shard.entries.clear()
            shard.used = 0
        self._used_total = 0

    @property
    def used_bytes(self) -> int:
        return self._used_total

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._shards)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._shards)

    @property
    def evictions(self) -> int:
        return sum(s.evictions for s in self._shards)

    def set_capacity(self, capacity_bytes: int) -> None:
        """Re-cap the cache in place (``DB.set_options`` hot-swap).

        Shard layout is fixed at construction (``num_shard_bits`` is an
        immutable option); only the per-shard budget moves. Shrinking
        evicts LRU entries immediately through the normal path, so the
        eviction listener and counters observe the trim.
        """
        if capacity_bytes < 0:
            raise ValueError("cache capacity cannot be negative")
        if capacity_bytes == self.capacity_bytes:
            return
        per_shard = max(1, capacity_bytes // self._num_shards)
        for shard in self._shards:
            shard.capacity = per_shard
            while shard.used > shard.capacity and shard.entries:
                _k, (_v, c) = shard.entries.popitem(last=False)
                shard.used -= c
                self._used_total -= c
                shard.evictions += 1
                if shard.on_evict is not None:
                    shard.on_evict(_k, c)
        self.capacity_bytes = capacity_bytes
        self._disabled = capacity_bytes == 0

    def set_eviction_listener(
        self, callback: Callable[[Hashable, int], None] | None
    ) -> None:
        """Observe capacity evictions (``(key, charge)`` per entry).

        The DB wires this to the trace spine when a tracer is active;
        with no listener the hot path pays one None check per eviction.
        """
        for shard in self._shards:
            shard.on_evict = callback
