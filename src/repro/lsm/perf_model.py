"""Virtual-time cost model.

Every foreground operation and background job asks this model "how many
microseconds did that cost on the configured hardware?". The engine does
the real work (memtable inserts, bloom probes, block decodes); the model
prices it using the :class:`~repro.hardware.device.DeviceModel` and CPU
constants, including cross-job contention.

The constants are calibrated so the paper's baselines land in the right
regime (NVMe fillrandom ~ a few hundred K ops/s with ~5 us p99; HDD
random reads catastrophically slow), and so each tunable option moves
performance in the direction its RocksDB counterpart does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.profile import HardwareProfile
from repro.lsm.options import Options
from repro.lsm.sstable import ReadStats


@dataclass(frozen=True)
class CpuCosts:
    """Per-component CPU costs in microseconds on a 1.0-speed core."""

    memtable_insert: float = 1.9
    memtable_lookup: float = 0.5
    memtable_bloom_probe: float = 0.08
    wal_encode_per_byte: float = 0.004
    pipelined_write_overhead: float = 0.30
    write_group_coordination: float = 0.45
    bloom_probe: float = 0.12
    index_search: float = 0.35
    block_search: float = 0.55
    block_decode_per_kb: float = 0.05
    page_cache_hit: float = 5.0
    decompress_per_kb: dict[str, float] | None = None
    compress_per_kb: dict[str, float] | None = None
    merge_entry: float = 0.35
    malloc_stats_dump: float = 1800.0
    #: Per-key coordination inside one batched MultiGet call — far below
    #: a full per-operation setup, which is the batching win.
    multiget_per_key: float = 0.18

    def decompress_cost(self, codec: str, nbytes: int) -> float:
        table = self.decompress_per_kb or _DECOMPRESS_PER_KB
        return table.get(codec, 0.0) * nbytes / 1024.0

    def compress_cost(self, codec: str, nbytes: int) -> float:
        table = self.compress_per_kb or _COMPRESS_PER_KB
        return table.get(codec, 0.0) * nbytes / 1024.0


_DECOMPRESS_PER_KB = {"none": 0.0, "snappy": 0.12, "lz4": 0.10, "zlib": 0.9, "zstd": 0.35}
_COMPRESS_PER_KB = {"none": 0.0, "snappy": 0.25, "lz4": 0.22, "zlib": 2.4, "zstd": 1.1}

#: OS writeback burst size when the engine never syncs incrementally
#: (vm.dirty_bytes-style threshold; bursts land at ~p99 frequency for
#: 100-byte writes, which is exactly where db_bench's default tail sits).
_DEFAULT_WRITEBACK_BURST = 16 * 1024 * 1024
#: Fraction of an async writeback burst that blocks the foreground.
_ASYNC_BURST_BLOCK_FRACTION = 0.5


class WriteSmoother:
    """Models dirty-page writeback and the ``bytes_per_sync`` family.

    Without incremental syncing the OS accumulates dirty bytes and then
    issues large writeback bursts; a foreground write that lands on a
    burst eats a latency spike. ``bytes_per_sync``/``wal_bytes_per_sync``
    trade a little steady-state throughput for bounded spikes, and
    ``strict_bytes_per_sync`` makes the window a hard block.
    """

    def __init__(
        self, options: Options, profile: HardwareProfile, byte_scale: float = 1.0
    ) -> None:
        self._device = profile.device
        sync_window = options.get("bytes_per_sync") or 0
        wal_window = options.get("wal_bytes_per_sync") or 0
        default_burst = max(4096, int(_DEFAULT_WRITEBACK_BURST * byte_scale))
        self._window = min(w for w in (sync_window, wal_window, default_burst) if w) \
            if (sync_window or wal_window) else default_burst
        self._fixed_scale = byte_scale
        self._strict = bool(options.get("strict_bytes_per_sync"))
        self._incremental = bool(sync_window or wal_window)
        self._dirty = 0

    def on_bytes_written(self, nbytes: int) -> float:
        """Account dirty bytes; return a foreground stall in us, if any.

        Incremental range-syncs are mostly asynchronous (small blocking
        fraction, bandwidth-proportional); unsynced accumulation produces
        rarer but larger OS-writeback spikes plus a durability-barrier
        hit — the asymmetry that makes ``bytes_per_sync`` a p99 lever.
        """
        self._dirty += nbytes
        if self._dirty < self._window:
            return 0.0
        burst = self._dirty
        self._dirty = 0
        bandwidth_cost = burst / self._device.seq_write_bw
        if self._incremental:
            # Asynchronous range-sync: purely bandwidth-proportional, so
            # the cost is scale-invariant in spike frequency.
            fraction = 0.60 if self._strict else 0.12
            return bandwidth_cost * fraction
        return (
            bandwidth_cost * _ASYNC_BURST_BLOCK_FRACTION
            + self._device.sync_cost_us() * 0.35 * self._fixed_scale
        )


class PerfModel:
    """Prices engine work in virtual microseconds."""

    def __init__(
        self,
        profile: HardwareProfile,
        options: Options,
        *,
        cpu: CpuCosts | None = None,
        byte_scale: float = 1.0,
    ) -> None:
        self.profile = profile
        self.options = options
        self.cpu = cpu if cpu is not None else CpuCosts()
        self.smoother = WriteSmoother(options, profile, byte_scale)
        self._codec = options.get("compression")
        #: Background jobs over a byte_scale'd dataset run ~1/byte_scale
        #: times more often, so their *fixed* per-IO costs (latency,
        #: seeks, syncs) must shrink by byte_scale to keep the aggregate
        #: background load at the paper's level. Bandwidth-proportional
        #: terms scale automatically with the byte volumes.
        self._fixed_scale = byte_scale
        #: Concurrent foreground writer threads (set by the DB); the
        #: pipelined write path pays off only with real concurrency.
        self._foreground_threads = 1
        # Hot-path lookups are resolved once here instead of per
        # operation; ``refresh_options`` re-resolves them when the live
        # configuration changes (``DB.set_options``).
        self._memtable_bloom = options.get("memtable_prefix_bloom_size_ratio") > 0
        self._pipelined = bool(options.get("enable_pipelined_write"))
        self._readahead_relief_cached = self._compute_readahead_relief()
        self._recompute_put_constants()

    def refresh_options(self) -> None:
        """Re-resolve every hoisted option lookup from the bound bag.

        ``DB.set_options`` mutates the shared :class:`Options` in place
        and then calls this so the hot-path constants re-price. The
        smoother is rebuilt against the new ``bytes_per_sync`` family but
        keeps its accumulated dirty bytes: writeback debt is OS state, a
        config change does not flush it.
        """
        dirty = self.smoother._dirty
        self.smoother = WriteSmoother(self.options, self.profile, self._fixed_scale)
        self.smoother._dirty = dirty
        self._codec = self.options.get("compression")
        self._memtable_bloom = (
            self.options.get("memtable_prefix_bloom_size_ratio") > 0
        )
        self._pipelined = bool(self.options.get("enable_pipelined_write"))
        self._readahead_relief_cached = self._compute_readahead_relief()
        self._recompute_put_constants()

    @property
    def byte_scale(self) -> float:
        return self._fixed_scale

    @property
    def foreground_threads(self) -> int:
        return self._foreground_threads

    @foreground_threads.setter
    def foreground_threads(self, value: int) -> None:
        self._foreground_threads = value
        self._recompute_put_constants()

    def _recompute_put_constants(self) -> None:
        """Resolve the per-write cost plan once per configuration.

        ``put_cost_us`` is config-constant except for the byte-count
        term, so the profile branches collapse into a ``(base, per_byte,
        coord)`` triple plus the contention divisors. The terms are kept
        separate (not pre-summed) so the floating-point addition order of
        the original branchy expression — base, then bytes, then
        coordination — is preserved bit for bit.
        """
        c = self.cpu
        base = c.memtable_insert
        if self._memtable_bloom:
            base = base + c.memtable_bloom_probe
        concurrent = self._foreground_threads > 1
        if self._pipelined:
            coord = c.pipelined_write_overhead if concurrent else c.write_group_coordination
        else:
            coord = c.write_group_coordination if concurrent else c.pipelined_write_overhead
        device = self.profile.device
        self._put_base_us = base
        self._put_per_byte_us = c.wal_encode_per_byte
        self._put_coord_us = coord
        self._cpu_speed = self.profile.cpu_speed
        self._cpu_cores = self.profile.cpu_cores
        self._put_rot_seek_us = (
            device.seek_us * self._fixed_scale if device.rotational else 0.0
        )

    def put_cost_params(
        self,
    ) -> tuple[float, float, float, float, int, float, float]:
        """The precomputed put-cost plan, for callers that inline the
        fused multiply-add (see ``DB._write``): ``(base_us, per_byte_us,
        coord_us, cpu_speed, cpu_cores, rot_seek_us, readahead_relief)``.
        """
        return (
            self._put_base_us,
            self._put_per_byte_us,
            self._put_coord_us,
            self._cpu_speed,
            self._cpu_cores,
            self._put_rot_seek_us,
            self._readahead_relief_cached,
        )

    # -- helpers -----------------------------------------------------------

    def _cpu(self, us: float, busy_bg_jobs: int = 0) -> float:
        """Scale a CPU cost by core speed and background contention."""
        contention = (1.0 + busy_bg_jobs) / self._cpu_cores
        if contention < 1.0:
            contention = 1.0
        return us / self._cpu_speed * contention

    def _device_read_factor(self, busy_bg_jobs: int) -> float:
        """Queueing inflation for foreground reads under background I/O."""
        per_job = 0.45 if self.profile.device.rotational else 0.08
        return 1.0 + per_job * busy_bg_jobs

    # -- foreground writes ---------------------------------------------------

    def put_cost_us(
        self,
        key_len: int,
        value_len: int,
        *,
        busy_bg_jobs: int = 0,
        wal_enabled: bool = True,
    ) -> float:
        """Cost of one write hitting WAL + memtable (no stalls).

        Evaluated from the constants hoisted by
        :meth:`_recompute_put_constants`; the floating-point operation
        order matches the original branch-per-term expression exactly.
        """
        if wal_enabled:
            cost = (
                self._put_base_us
                + (key_len + value_len + 24) * self._put_per_byte_us
            ) + self._put_coord_us
        else:
            cost = self._put_base_us + self._put_coord_us
        total = self._cpu(cost, busy_bg_jobs)
        rot_seek = self._put_rot_seek_us
        if rot_seek and busy_bg_jobs:
            # On a rotational disk the WAL stream shares the arm with
            # flush/compaction streams: every switch costs a seek. The
            # per-op share is the (scaled) seek amortized over the ops
            # between switches, and shrinks when compaction readahead
            # batches its reads into longer sequential runs.
            total += rot_seek * busy_bg_jobs * 12.0 * self._readahead_relief_cached
        return total

    def _readahead_relief(self) -> float:
        """<1 when compaction readahead exceeds the 4 KiB floor."""
        return self._readahead_relief_cached

    def _compute_readahead_relief(self) -> float:
        import math

        floor = max(4096, self.options.get("block_size"))
        readahead = max(
            floor, self.options.get("compaction_readahead_size") or floor
        )
        return math.sqrt(floor / readahead)

    def wal_sync_cost_us(self) -> float:
        return self.profile.device.sync_cost_us()

    # -- foreground reads -----------------------------------------------------

    def memtable_get_cost_us(self, tables_probed: int, busy_bg_jobs: int = 0) -> float:
        return self._cpu(self.cpu.memtable_lookup * max(1, tables_probed), busy_bg_jobs)

    def table_read_cost_us(self, stats: ReadStats, *, busy_bg_jobs: int = 0) -> float:
        """Price one SSTable point lookup from its :class:`ReadStats`."""
        c = self.cpu
        cpu_cost = 0.0
        if stats.bloom_checked:
            cpu_cost += c.bloom_probe
        if stats.index_read:
            cpu_cost += c.index_search
        # Batched lookups count per-key probes in the counter fields
        # (all zero on the single-get path, so its price is unchanged).
        if stats.bloom_probes:
            cpu_cost += c.bloom_probe * stats.bloom_probes
        if stats.index_searches:
            cpu_cost += c.index_search * stats.index_searches
        if stats.block_searches:
            cpu_cost += c.block_search * stats.block_searches
        device_cost = 0.0
        for nbytes, source in stats.block_reads:
            cpu_cost += c.block_search + c.block_decode_per_kb * nbytes / 1024.0
            if source == "cache":
                continue
            cpu_cost += c.decompress_cost(self._codec, nbytes)
            if source == "page":
                # Buffered read served from the OS page cache: a pread
                # and a copy, no device access.
                cpu_cost += c.page_cache_hit
            else:
                device_cost += (
                    self.profile.device.read_cost_us(nbytes, sequential=False)
                    * self._device_read_factor(busy_bg_jobs)
                )
        return self._cpu(cpu_cost, busy_bg_jobs) + device_cost

    def table_open_cost_us(self, index_bytes: int, filter_bytes: int) -> float:
        """Re-opening a table evicted from the table cache."""
        nbytes = index_bytes + filter_bytes + 64
        return (
            self.profile.device.read_cost_us(nbytes, sequential=False)
            + self._cpu(self.cpu.block_search * 2)
        )

    def scan_next_cost_us(self, value_len: int, busy_bg_jobs: int = 0) -> float:
        return self._cpu(0.25 + 0.01 * value_len / 64.0, busy_bg_jobs)

    def multiget_overhead_us(self, num_keys: int, busy_bg_jobs: int = 0) -> float:
        """Coordination for one batched MultiGet call: a single fixed
        setup plus a small per-key term, instead of a full operation
        setup per key as N independent gets would pay."""
        return self._cpu(
            0.6 + self.cpu.multiget_per_key * num_keys, busy_bg_jobs
        )

    # -- background jobs ---------------------------------------------------

    def flush_duration_us(
        self, bytes_in: int, bytes_out: int, num_entries: int
    ) -> float:
        """Wall time of one flush job running alone on its slot."""
        c = self.cpu
        dev = self.profile.device
        cpu = num_entries * c.merge_entry + c.compress_cost(self._codec, bytes_in)
        device = bytes_out / dev.seq_write_bw
        device += (dev.write_latency_us + dev.sync_cost_us()) * self._fixed_scale
        return self._cpu(cpu) + device

    def compaction_duration_us(
        self,
        bytes_read: int,
        bytes_written: int,
        num_entries: int,
    ) -> float:
        """Wall time of one compaction job running alone on its slot."""
        c = self.cpu
        dev = self.profile.device
        # Without readahead, rotational compaction reads seek roughly
        # once per block; readahead below one block is meaningless.
        floor = max(4096, self.options.get("block_size"))
        readahead = max(floor, self.options.get("compaction_readahead_size") or floor)
        chunks = max(1, bytes_read // readahead)
        per_chunk_fixed = dev.read_latency_us + (dev.seek_us if dev.rotational else 0.0)
        device = bytes_read / dev.seq_read_bw
        device += chunks * per_chunk_fixed * self._fixed_scale
        device += bytes_written / dev.seq_write_bw
        device += (dev.write_latency_us + dev.sync_cost_us()) * self._fixed_scale
        cpu = (
            num_entries * c.merge_entry
            + c.decompress_cost(self._codec, bytes_read)
            + c.compress_cost(self._codec, bytes_written)
        )
        return self._cpu(cpu) + device

    def stats_dump_cost_us(self) -> float:
        """Periodic stats dump; dump_malloc_stats makes it expensive."""
        cost = 120.0
        if self.options.get("dump_malloc_stats"):
            cost += self.cpu.malloc_stats_dump
        return self._cpu(cost)

    def rotation_overhead_us(self) -> float:
        """Foreground hiccup at memtable rotation (new WAL, bookkeeping);
        malloc-stats dumping piggybacks here and is the dominant term."""
        cost = 12.0
        if self.options.get("dump_malloc_stats"):
            cost += self.cpu.malloc_stats_dump / 18.0  # ~100 us slice
        return self._cpu(cost)
