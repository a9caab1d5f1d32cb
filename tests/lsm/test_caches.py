"""Tests for the block cache and table cache."""

import pytest

from repro.lsm.block_cache import LRUCache
from repro.lsm.table_cache import TableCache


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(1024, 0)
        assert cache.get("a") is None
        cache.put("a", b"x", 10)
        assert cache.get("a") == b"x"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(30, 0)
        cache.put("a", b"", 10)
        cache.put("b", b"", 10)
        cache.put("c", b"", 10)
        cache.get("a")  # refresh a
        cache.put("d", b"", 10)  # evicts b (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_charge_accounting(self):
        cache = LRUCache(100, 0)
        cache.put("a", b"", 60)
        cache.put("b", b"", 60)  # over capacity: a evicted
        assert cache.used_bytes == 60
        assert cache.evictions == 1

    def test_oversized_item_not_cached(self):
        cache = LRUCache(100, 0)
        cache.put("big", b"", 101)
        assert cache.get("big") is None
        assert cache.used_bytes == 0

    def test_replace_updates_charge(self):
        cache = LRUCache(100, 0)
        cache.put("a", b"1", 40)
        cache.put("a", b"2", 10)
        assert cache.used_bytes == 10
        assert cache.get("a") == b"2"

    def test_erase(self):
        cache = LRUCache(100, 0)
        cache.put("a", b"", 10)
        cache.erase("a")
        assert cache.get("a") is None
        assert cache.used_bytes == 0

    def test_erase_missing_is_noop(self):
        LRUCache(100, 0).erase("ghost")

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", b"", 1)
        assert cache.get("a") is None
        assert cache.hits == 0 and cache.misses == 0

    def test_shard_count_shrinks_for_small_capacity(self):
        # 32 KiB with 6 shard bits would give 512-byte shards; the cache
        # must reduce sharding so blocks still fit.
        cache = LRUCache(32 * 1024, 6)
        cache.put((1, 0), b"x", 4096)
        assert cache.get((1, 0)) is not None

    def test_erase_file_drops_all_blocks(self):
        cache = LRUCache(1 << 20, 2)
        for off in range(5):
            cache.put((7, off), b"x", 10)
        cache.put((8, 0), b"y", 10)
        cache.erase_file(7)
        assert all(cache.get((7, off)) is None for off in range(5))
        assert cache.get((8, 0)) == b"y"

    def test_hit_rate(self):
        cache = LRUCache(1024, 0)
        cache.put("a", b"", 1)
        cache.get("a")
        cache.get("b")
        assert (cache.hits, cache.misses) == (1, 1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LRUCache(-1)
        with pytest.raises(ValueError):
            LRUCache(100, 25)


class TestTableCache:
    def _opener_factory(self):
        opened = []
        def opener(file_number):
            opened.append(file_number)
            return f"reader-{file_number}"
        return opener, opened

    def test_opens_once(self):
        opener, opened = self._opener_factory()
        cache = TableCache(opener, max_open_files=10)
        r1, cached1 = cache.get(1)
        r2, cached2 = cache.get(1)
        assert r1 == r2 == "reader-1"
        assert (cached1, cached2) == (False, True)
        assert opened == [1]
        assert cache.hits == 1

    def test_capacity_evicts_lru(self):
        opener, opened = self._opener_factory()
        cache = TableCache(opener, max_open_files=2)
        cache.get(1)
        cache.get(2)
        cache.get(1)  # refresh 1
        cache.get(3)  # evicts 2
        _, was_cached = cache.get(2)
        assert not was_cached
        assert cache.evictions >= 1

    def test_unlimited_when_negative(self):
        opener, opened = self._opener_factory()
        cache = TableCache(opener, max_open_files=-1)
        for n in range(100):
            cache.get(n)
        assert len(cache) == 100

    def test_evict_specific(self):
        opener, opened = self._opener_factory()
        cache = TableCache(opener, -1)
        cache.get(5)
        cache.evict(5)
        _, was_cached = cache.get(5)
        assert not was_cached

    def test_a_seed_goes_to_the_next_reader_opened_only(self):
        seeded = []

        class Reader:
            def __init__(self, number):
                self.number = number

            def seed(self, blocks):
                seeded.append((self.number, blocks))

        cache = TableCache(Reader, -1)
        cache.seed(1, ["b1"])
        cache.seed(2, ["b2"])
        cache.seed(3, ["b3"])
        cache.get(1)
        cache.get(1)
        assert seeded == [(1, ["b1"])]
        cache.evict(1)
        cache.get(1)  # re-opened cold: the handoff was used
        cache.evict(2)  # retired before any read: the handoff goes too
        cache.get(2)
        assert seeded == [(1, ["b1"])]
        cache.clear()  # close / crash
        cache.get(3)
        assert seeded == [(1, ["b1"])]

    def test_set_capacity(self):
        opener, _ = self._opener_factory()
        cache = TableCache(opener, -1)
        cache.set_capacity(1)
        cache.get(1)
        cache.get(2)
        assert len(cache) <= 2  # capacity applies on next insert
