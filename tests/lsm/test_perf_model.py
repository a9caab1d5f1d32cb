"""Tests for the virtual-time cost model: every tuning lever must move
costs in the direction its RocksDB counterpart does."""

import pytest

from repro.hardware import NVME_SSD, SATA_HDD, make_profile
from repro.lsm.options import MiB, Options
from repro.lsm.perf_model import PerfModel, WriteSmoother
from repro.lsm.sstable import ReadStats


def model(opts=None, profile=None, **kw):
    return PerfModel(
        profile if profile is not None else make_profile(4, 4),
        opts if opts is not None else Options(),
        **kw,
    )


class TestPutCost:
    def test_wal_adds_cost(self):
        m = model()
        with_wal = m.put_cost_us(16, 100, wal_enabled=True)
        without = m.put_cost_us(16, 100, wal_enabled=False)
        assert with_wal > without

    def test_cpu_contention_beyond_cores(self):
        m = model(profile=make_profile(2, 4))
        idle = m.put_cost_us(16, 100)
        busy = m.put_cost_us(16, 100, busy_bg_jobs=3)
        assert busy > idle

    def test_contention_soft_below_core_count(self):
        m = model(profile=make_profile(8, 8))
        assert m.put_cost_us(16, 100) == m.put_cost_us(16, 100, busy_bg_jobs=1)

    def test_pipelined_write_helps_only_concurrent(self):
        pipelined = Options({"enable_pipelined_write": True})
        plain = Options({"enable_pipelined_write": False})
        single_p, single_n = model(pipelined), model(plain)
        assert single_p.put_cost_us(16, 100) > single_n.put_cost_us(16, 100)
        multi_p, multi_n = model(pipelined), model(plain)
        multi_p.foreground_threads = 4
        multi_n.foreground_threads = 4
        assert multi_p.put_cost_us(16, 100) < multi_n.put_cost_us(16, 100)

    def test_rotational_interference(self):
        m = model(profile=make_profile(2, 4, SATA_HDD), byte_scale=1.0)
        idle = m.put_cost_us(16, 100)
        busy = m.put_cost_us(16, 100, busy_bg_jobs=1)
        assert busy > idle + 1000  # full-scale seeks are milliseconds

    def test_readahead_relieves_rotational_interference(self):
        small = model(Options({"compaction_readahead_size": 0}),
                      make_profile(2, 4, SATA_HDD))
        large = model(Options({"compaction_readahead_size": 16 * MiB}),
                      make_profile(2, 4, SATA_HDD))
        assert large.put_cost_us(16, 100, busy_bg_jobs=1) < \
            small.put_cost_us(16, 100, busy_bg_jobs=1)


class TestReadCost:
    def _stats(self, source):
        stats = ReadStats()
        stats.index_read = True
        stats.block_reads.append((4096, source))
        return stats

    def test_cache_hit_is_cpu_only(self):
        m = model()
        cached = m.table_read_cost_us(self._stats("cache"))
        device = m.table_read_cost_us(self._stats("device"))
        assert device > 10 * cached

    def test_page_hit_between_cache_and_device(self):
        m = model()
        cache = m.table_read_cost_us(self._stats("cache"))
        page = m.table_read_cost_us(self._stats("page"))
        device = m.table_read_cost_us(self._stats("device"))
        assert cache < page < device

    def test_bloom_negative_is_cheapest(self):
        m = model()
        stats = ReadStats(bloom_checked=True)
        assert m.table_read_cost_us(stats) < 1.0

    def test_hdd_reads_cost_more_than_nvme(self):
        nvme = model(profile=make_profile(4, 4, NVME_SSD))
        hdd = model(profile=make_profile(4, 4, SATA_HDD))
        assert hdd.table_read_cost_us(self._stats("device")) > \
            20 * nvme.table_read_cost_us(self._stats("device"))

    def test_background_jobs_inflate_read_latency(self):
        m = model(profile=make_profile(4, 4, SATA_HDD))
        idle = m.table_read_cost_us(self._stats("device"))
        busy = m.table_read_cost_us(self._stats("device"), busy_bg_jobs=2)
        assert busy > idle

    def test_compression_adds_decompress_cost(self):
        plain = model(Options({"compression": "none"}))
        zstd = model(Options({"compression": "zstd"}))
        assert zstd.table_read_cost_us(self._stats("device")) > \
            plain.table_read_cost_us(self._stats("device"))


def reference_memtable_get_cost_us(m, tables_probed, busy):
    """The unhoisted memtable price the hoisted constants must reproduce."""
    contention = max(1.0, (1.0 + busy) / m.profile.cpu_cores)
    us = m.cpu.memtable_lookup * max(1, tables_probed)
    return us / m.profile.cpu_speed * contention


def reference_table_read_cost_us(m, stats, busy):
    """The unhoisted table price, read live from the model's
    ``CpuCosts``, profile, device and options bag: the formula the
    hoisted constants must reproduce bit for bit."""
    c = m.cpu
    cpu_cost = 0.0
    if stats.bloom_checked:
        cpu_cost += c.bloom_probe
    if stats.index_read:
        cpu_cost += c.index_search
    if stats.bloom_probes:
        cpu_cost += c.bloom_probe * stats.bloom_probes
    if stats.index_searches:
        cpu_cost += c.index_search * stats.index_searches
    if stats.block_searches:
        cpu_cost += c.block_search * stats.block_searches
    device_cost = 0.0
    per_job = 0.45 if m.profile.device.rotational else 0.08
    read_factor = 1.0 + per_job * busy
    for nbytes, source in stats.block_reads:
        cpu_cost += c.block_search + c.block_decode_per_kb * nbytes / 1024.0
        if source == "cache":
            continue
        cpu_cost += c.decompress_cost(m.options.get("compression"), nbytes)
        if source == "page":
            cpu_cost += c.page_cache_hit
        else:
            device_cost += (
                m.profile.device.read_cost_us(nbytes, sequential=False)
                * read_factor
            )
    contention = max(1.0, (1.0 + busy) / m.profile.cpu_cores)
    return cpu_cost / m.profile.cpu_speed * contention + device_cost


def _shapes():
    """Every single-get shape, plus batched and multi-block records."""
    for bloom in (False, True):
        for index in (False, True):
            yield ReadStats(bloom_checked=bloom, index_read=index)
            for source in ("cache", "page", "device"):
                for nbytes in (1, 517, 4096, 4153, 16391):
                    yield ReadStats(
                        bloom_checked=bloom,
                        index_read=index,
                        block_reads=[(nbytes, source)],
                    )
    yield ReadStats(
        block_reads=[(4096, "cache"), (3999, "page"), (4153, "device")],
        bloom_probes=7,
        index_searches=5,
        block_searches=2,
    )


def assert_prices_equal_reference(m):
    for busy in range(4):
        for probes in range(4):
            assert m.memtable_get_cost_us(probes, busy) == \
                reference_memtable_get_cost_us(m, probes, busy)
        for stats in _shapes():
            assert m.table_read_cost_us(stats, busy_bg_jobs=busy) == \
                reference_table_read_cost_us(m, stats, busy), (stats, busy)


class TestPriceIdentity:
    """The point-lookup prices hoist lookups (CPU speed and cores),
    never arithmetic: every price equals the unhoisted formula exactly
    (float ``==``)."""

    @pytest.mark.parametrize("codec", ["none", "snappy", "zlib", "zstd"])
    @pytest.mark.parametrize(
        "profile",
        [make_profile(4, 4, NVME_SSD), make_profile(2, 4, SATA_HDD)],
        ids=["nvme-4core", "hdd-2core"],
    )
    def test_prices_equal_the_formula(self, profile, codec):
        assert_prices_equal_reference(
            model(Options({"compression": codec}), profile, byte_scale=1 / 64)
        )

    @pytest.mark.parametrize("codec", ["none", "zlib", "zstd"])
    def test_prices_follow_set_options(self, codec):
        from repro.lsm.db import DB

        db = DB.open("/plan", Options({"compression": "snappy"}))
        try:
            perf = db._perf
            assert_prices_equal_reference(perf)
            db.set_options({"compression": codec})
            assert perf.options.get("compression") == codec
            assert_prices_equal_reference(perf)
        finally:
            db.close()


class TestBackgroundJobs:
    def test_flush_scales_with_bytes(self):
        m = model()
        assert m.flush_duration_us(2 * MiB, 1 * MiB, 10_000) > \
            m.flush_duration_us(128 * 1024, 64 * 1024, 1_000)

    def test_compaction_readahead_cuts_hdd_seeks(self):
        small = model(Options({"compaction_readahead_size": 64 * 1024}),
                      make_profile(2, 4, SATA_HDD))
        large = model(Options({"compaction_readahead_size": 8 * MiB}),
                      make_profile(2, 4, SATA_HDD))
        assert large.compaction_duration_us(32 * MiB, 32 * MiB, 10_000) < \
            small.compaction_duration_us(32 * MiB, 32 * MiB, 10_000)

    def test_readahead_matters_little_on_nvme(self):
        small = model(Options({"compaction_readahead_size": 64 * 1024}))
        large = model(Options({"compaction_readahead_size": 8 * MiB}))
        nvme_ratio = small.compaction_duration_us(32 * MiB, 32 * MiB, 10_000) / \
            large.compaction_duration_us(32 * MiB, 32 * MiB, 10_000)
        hdd_small = model(Options({"compaction_readahead_size": 64 * 1024}),
                          make_profile(2, 4, SATA_HDD))
        hdd_large = model(Options({"compaction_readahead_size": 8 * MiB}),
                          make_profile(2, 4, SATA_HDD))
        hdd_ratio = hdd_small.compaction_duration_us(32 * MiB, 32 * MiB, 10_000) / \
            hdd_large.compaction_duration_us(32 * MiB, 32 * MiB, 10_000)
        assert nvme_ratio < hdd_ratio / 3  # readahead is an HDD lever

    def test_fixed_costs_shrink_with_byte_scale(self):
        full = model(byte_scale=1.0)
        scaled = model(byte_scale=1 / 1024)
        assert scaled.flush_duration_us(64 * 1024, 32 * 1024, 500) < \
            full.flush_duration_us(64 * 1024, 32 * 1024, 500)

    def test_compression_slows_background_jobs(self):
        plain = model(Options({"compression": "none"}))
        zstd = model(Options({"compression": "zstd"}))
        assert zstd.flush_duration_us(MiB, MiB, 10_000) > \
            plain.flush_duration_us(MiB, MiB, 10_000)


class TestWriteSmoother:
    def test_no_stall_below_window(self):
        smoother = WriteSmoother(Options({"bytes_per_sync": 1024}),
                                 make_profile(4, 4))
        assert smoother.on_bytes_written(512) == 0.0

    def test_stall_at_window(self):
        smoother = WriteSmoother(Options({"bytes_per_sync": 1024}),
                                 make_profile(4, 4))
        smoother.on_bytes_written(512)
        assert smoother.on_bytes_written(600) > 0.0

    def test_incremental_sync_bounds_spikes(self):
        opts_sync = Options({"bytes_per_sync": 1 * MiB,
                             "wal_bytes_per_sync": 1 * MiB})
        hdd = make_profile(2, 4, SATA_HDD)
        inc = WriteSmoother(opts_sync, hdd)
        burst = WriteSmoother(Options(), hdd)
        inc_spike = 0.0
        for _ in range(2 * MiB // 4096):
            inc_spike = max(inc_spike, inc.on_bytes_written(4096))
        burst_spike = 0.0
        for _ in range(80 * MiB // 4096):
            burst_spike = max(burst_spike, burst.on_bytes_written(4096))
        assert inc_spike < burst_spike

    def test_strict_costs_more_than_async(self):
        opts = {"bytes_per_sync": 64 * 1024}
        hdd = make_profile(2, 4, SATA_HDD)
        lax = WriteSmoother(Options(opts), hdd)
        strict = WriteSmoother(Options({**opts, "strict_bytes_per_sync": True}), hdd)
        lax_cost = sum(lax.on_bytes_written(4096) for _ in range(64))
        strict_cost = sum(strict.on_bytes_written(4096) for _ in range(64))
        assert strict_cost > lax_cost


class TestMisc:
    def test_stats_dump_malloc_toggle(self):
        on = model(Options({"dump_malloc_stats": True}))
        off = model(Options({"dump_malloc_stats": False}))
        assert on.stats_dump_cost_us() > off.stats_dump_cost_us()
        assert on.rotation_overhead_us() > off.rotation_overhead_us()

    def test_table_open_cost_positive(self):
        assert model().table_open_cost_us(1024, 512) > 0

