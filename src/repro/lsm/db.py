"""PyLSM database facade.

Single-writer LSM engine with RocksDB-shaped behaviour: WAL + memtable
writes, leveled/universal/FIFO compaction, bloom-filtered block-based
tables, an LRU block cache, write stalls, and a virtual-time performance
model parameterized by a :class:`~repro.hardware.profile.HardwareProfile`.

All real data-structure work happens eagerly; *time* is virtual. Each
public operation returns after advancing the simulated clock by its
modeled latency and recording it in the statistics histograms.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import DBClosedError, DBError
from repro.hardware.monitor import SystemMonitor
from repro.hardware.profile import HardwareProfile, make_profile
from repro.lsm.background import (
    BackgroundScheduler,
    BgJob,
    BuilderConfig,
    CompactionJobSpec,
    FlushJobSpec,
    execute_compaction_job,
    execute_flush_job,
)
from repro.lsm.block_cache import LRUCache
from repro.lsm.bloom import key_hashes
from repro.lsm.compaction.fifo import FifoPicker
from repro.lsm.compaction.picker import Compaction, CompactionPicker
from repro.lsm.compaction.universal import UniversalPicker
from repro.lsm.env import Env
from repro.lsm.ikey import MAX_SEQUENCE as _MAX_SEQUENCE
from repro.lsm.iterator import (
    concat_source,
    file_source,
    lazy_merge,
    user_view,
)
from repro.lsm.manifest import Manifest, VersionEdit
from repro.lsm.memtable import MemTable, ValueKind
from repro.lsm.options import Options, ensure_mutable, scale_byte_value
from repro.lsm.options_file import serialize_options
from repro.lsm.perf_model import PerfModel
from repro.lsm.snapshot import Snapshot, SnapshotList
from repro.lsm.sstable import (
    FILTERED_OUT,
    FileMetaData,
    ReadStats,
    SSTableBuilder,
    SSTableReader,
)
from repro.lsm.statistics import OpClass, Statistics, Ticker
from repro.lsm.table_cache import TableCache
from repro.lsm.version import Version
from repro.lsm.wal import (
    _HEADER as _WAL_HEADER,
    _PAYLOAD_FIXED as _WAL_FIXED,
    _U32 as _WAL_U32,
    _crc32 as _wal_crc32,
    WalWriter,
    replay_wal,
)
from repro.lsm.write_batch import BatchOp, WriteBatch
from repro.lsm.write_controller import WriteController, WriteState
from repro.obs.events import (
    CacheEviction,
    CompactionInstalled,
    FifoDrop,
    FlushInstalled,
    IteratorClose,
    IteratorSeek,
    MemtableRotate,
    MultiGetBatch,
    SetOptions,
    StallEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer

_DEFAULT_PROFILE = make_profile(4, 8)

#: Penalty charged when the engine is wedged (e.g. stalls with
#: auto-compaction disabled): one full virtual second per write.
_WEDGED_PENALTY_US = 1_000_000.0

# Ticker slots for the per-operation fast lane: `get`/`put` bump these on
# every call, so they go through Statistics.raw_tickers() plus a constant
# index instead of the enum-keyed bump() API. Amounts on this path are
# non-negative by construction (counts and byte lengths), which is the
# only invariant bump() would otherwise check.
_T_NUMBER_KEYS_READ = Ticker.NUMBER_KEYS_READ.slot
_T_NUMBER_KEYS_FOUND = Ticker.NUMBER_KEYS_FOUND.slot
_T_MEMTABLE_HIT = Ticker.MEMTABLE_HIT.slot
_T_MEMTABLE_MISS = Ticker.MEMTABLE_MISS.slot
#: Indexed by ``min(level, 2)``: the level a lookup was answered from.
_T_GET_HIT_BY_LEVEL = (
    Ticker.GET_HIT_L0.slot,
    Ticker.GET_HIT_L1.slot,
    Ticker.GET_HIT_L2_PLUS.slot,
)
_T_NUMBER_KEYS_WRITTEN = Ticker.NUMBER_KEYS_WRITTEN.slot
_T_WRITE_DONE_BY_SELF = Ticker.WRITE_DONE_BY_SELF.slot
_T_WAL_BYTES = Ticker.WAL_BYTES.slot
_T_WRITE_WITH_WAL = Ticker.WRITE_WITH_WAL.slot
_T_WAL_SYNCS = Ticker.WAL_SYNCS.slot
_T_BLOCK_CACHE_HIT = Ticker.BLOCK_CACHE_HIT.slot
_T_BLOCK_CACHE_MISS = Ticker.BLOCK_CACHE_MISS.slot
_T_BLOOM_CHECKED = Ticker.BLOOM_CHECKED.slot
_T_BLOOM_USEFUL = Ticker.BLOOM_USEFUL.slot
_T_BYTES_READ = Ticker.BYTES_READ.slot
_T_TABLE_OPENS = Ticker.TABLE_OPENS.slot
_T_NUMBER_SEEKS = Ticker.NUMBER_SEEKS.slot
_T_MULTIGET_CALLS = Ticker.NUMBER_MULTIGET_CALLS.slot
_T_MULTIGET_KEYS_READ = Ticker.NUMBER_MULTIGET_KEYS_READ.slot
_T_MULTIGET_BYTES_READ = Ticker.NUMBER_MULTIGET_BYTES_READ.slot

#: Enum members resolved at module load for the write and point-lookup
#: fast lanes (an enum attribute lookup costs ~0.1 us per access).
_DELETE = ValueKind.DELETE
_VALUE = ValueKind.VALUE
_OP_GET = OpClass.GET
# WAL record encoding, inlined into _write (same bytes as
# WalWriter.add_record — crc32|len|payload, one append per record so
# fault-injection crash schedules are unchanged).
_wal_pack_header = _WAL_HEADER.pack
_wal_pack_fixed = _WAL_FIXED.pack
_wal_pack_u32 = _WAL_U32.pack


class DB:
    """An open PyLSM database.

    Use :meth:`DB.open` (or the module-level helper in
    :mod:`repro.lsm`) rather than the constructor.
    """

    def __init__(
        self,
        path: str,
        options: Options,
        env: Env,
        profile: HardwareProfile,
        statistics: Statistics,
        byte_scale: float = 1.0,
        tracer: Tracer | None = None,
    ) -> None:
        from repro.lsm.options import scale_bytes

        self._path = path.rstrip("/")
        self._user_options = options
        self._byte_scale = byte_scale
        #: Effective options: byte-denominated values scaled to the
        #: experiment's dataset size (identity when byte_scale == 1).
        self._options = scale_bytes(options, byte_scale) if byte_scale != 1.0 else options
        self._memory_bytes = int(profile.memory_bytes * byte_scale)
        options = self._options  # every engine component sees scaled values
        self._env = env
        self._profile = profile
        self._stats = statistics
        # Trace spine: bind the virtual clock so every event carries
        # simulated time, and resolve enablement once — the engine's
        # fast paths must not pay for disabled observability.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_on = self._tracer.enabled
        if self._trace_on:
            self._tracer.bind_clock(env.now_us)
        self._monitor = SystemMonitor(profile)
        self._perf = PerfModel(profile, options, byte_scale=byte_scale)
        self._closed = False
        self._foreground_parallelism = 1

        self._seq = 0
        #: Highest sequence number guaranteed to survive a crash: covered
        #: by a completed WAL sync, or (with WAL disabled) by a flush
        #: whose VersionEdit reached the synced MANIFEST. Only advanced
        #: *after* the corresponding filesystem sync call returns, so a
        #: simulated crash inside the sync never overstates durability.
        self._durable_seq = 0
        self._next_file_number = 1
        self._mem: MemTable = self._new_memtable()
        self._imm: list[MemTable] = []
        #: id(memtable) -> WAL path covering it, recorded at rotation.
        #: Structural pairing: a flush batch looks its WALs up by the
        #: memtables it actually contains, never by list position.
        self._imm_wal: dict[int, str] = {}

        self._version = Version(num_levels=options.get("num_levels"))
        self._manifest: Manifest | None = None
        self._wal: WalWriter | None = None

        self._snapshots = SnapshotList()
        #: The flush/compaction pipeline between a job this class
        #: captures (_maybe_schedule_*) and its install (_install_*).
        self._bg = BackgroundScheduler(
            options, self._perf, env.clock, self._tracer
        )
        self._controller = WriteController(options, self._tracer)
        self._block_cache = LRUCache(
            self._effective_cache_bytes(),
            options.get("block_cache_numshardbits") if options.get("block_cache_size") else 0,
        )
        self._table_cache = TableCache(
            self._open_reader, options.get("max_open_files")
        )
        if self._trace_on:
            self._block_cache.set_eviction_listener(self._on_cache_evict)
        self._page_cache = LRUCache(self._page_cache_bytes(), 2)
        self._last_stats_dump_us = 0.0
        # Per-operation fast lane: bind the ticker array (raw_tickers()
        # stays valid across reset()); _bind_options, below, resolves
        # every mutable option the lanes read.
        self._tickers = statistics.raw_tickers()
        self._disable_wal = options.get("disable_wal")
        self._style = options.get("compaction_style")
        if self._style == "level":
            self._picker = CompactionPicker(options)
        elif self._style == "universal":
            self._picker = UniversalPicker(options)
        else:
            self._picker = FifoPicker(options)
        # Write-path fast lane: `_write` runs once per put at fillrandom
        # rates, so everything it needs — the clock, the precomputed
        # put-cost constants, the monitor/histogram sinks — is bound to
        # one attribute hop, the write plan (_rebuild_write_plan).
        self._clock = env.clock
        self._clock_advance = env.clock.advance
        #: Sum of approx_bytes over self._imm, maintained incrementally
        #: (rotation adds, _install_flush recomputes) so the per-write
        #: memory gauge and global-budget check stay O(1).
        self._imm_bytes = 0
        self._fg_div = 1
        self._set_used_memory = self._monitor.set_used_memory
        self._bind_options()

    def _bind_options(self) -> None:
        """Derive every cached option snapshot from the live bags.

        The one place anything resolved out of ``self._options`` into
        component or fast-lane state is computed: ``__init__`` runs it
        over the components it has just built (where every component
        call is a no-op) and ``set_options`` after each applied diff.
        Unconditional on purpose — it never runs on the hot path, and a
        blanket refresh cannot miss a dependency.
        """
        opts = self._options
        self._bg.rebind(opts)
        self._controller.refresh_thresholds()
        self._block_cache.set_capacity(self._effective_cache_bytes())
        # Page cache is carved from what the block cache leaves free, so
        # it must be re-derived after the block-cache re-cap.
        self._page_cache.set_capacity(self._page_cache_bytes())
        self._table_cache.set_capacity(opts.get("max_open_files"))
        # The active memtable adopts the new rotation threshold; bloom
        # shape changes apply from the next rotation's fresh memtable.
        self._mem.capacity_bytes = opts.get("write_buffer_size")
        self._perf.refresh_options()
        self._swap_factor = self._compute_swap_factor()
        # Whether lookups hash their key up front: some filter (memtable
        # whole-key bloom or SSTable filter block) is configured, so the
        # pair will almost surely be wanted. Only a hint — a filter met
        # without it (a table built under older options) hashes the key
        # itself.
        self._filters_on = opts.bloom_enabled() or (
            opts.get("memtable_prefix_bloom_size_ratio") > 0
            and opts.get("memtable_whole_key_filtering")
        )
        self._stats_dump_period_us = opts.get("stats_dump_period_sec") * 1e6
        self._db_write_buffer_size = opts.get("db_write_buffer_size")
        self._max_total_wal_size = opts.get("max_total_wal_size")
        #: (version stamp, imm count, verdict) memo for the stall-clear
        #: check: the verdict can only change when the file set or the
        #: immutable list does — or, here, the thresholds.
        self._clear_cache: tuple[int, int, bool] = (-1, -1, False)
        #: (version stamp, value) memo for pending compaction debt.
        self._pending_bytes_cache: tuple[int, int] = (-1, 0)
        self._rebuild_write_plan()
        self._update_memory_gauge()

    def _rebuild_write_plan(self) -> None:
        """Pack the per-write hot state into one tuple.

        ``_write`` unpacks this once per operation instead of paying
        ~25 attribute loads. Every member is either fixed for the DB's
        lifetime or derived here from state whose every change calls
        this: ``_bind_options`` (everything option-derived), ``_recover``
        (wal), ``_rotate_memtable`` (memtable + wal) and the
        ``foreground_parallelism`` setter (cost constants, divisor).
        """
        base, per_byte, coord, speed, cores, rot_seek, relief = (
            self._perf.put_cost_params()
        )
        wal = self._wal
        stats = self._stats
        self._write_plan = (
            self._bg.busy,
            # WAL off: no bytes to encode, and (base + 0.0) + coord is
            # exactly base + coord.
            base, 0.0 if wal is None else per_byte, coord, speed, cores,
            rot_seek, relief,
            wal, self._options.get("use_fsync"), self._swap_factor,
            self._fg_div, self._stats_dump_period_us,
            self._tickers,
            None if wal is None else wal._append,
            self._mem, self._mem.add,
            self._perf.smoother.on_bytes_written, self._monitor.record_put,
            self._clock_advance,
            stats.histogram(OpClass.PUT).add,
            stats.histogram(OpClass.DELETE).add,
            self._block_cache,
            bool(self._db_write_buffer_size or self._max_total_wal_size),
        )

    # ------------------------------------------------------------- open

    @classmethod
    def open(
        cls,
        path: str,
        options: Options | None = None,
        *,
        env: Env | None = None,
        profile: HardwareProfile | None = None,
        statistics: Statistics | None = None,
        byte_scale: float = 1.0,
        tracer: Tracer | None = None,
    ) -> "DB":
        """Open (creating or recovering) a database at ``path``.

        ``byte_scale`` shrinks byte-denominated options and the memory
        budget together for scaled-down experiments; see
        :data:`repro.lsm.options.BYTE_SCALED_OPTIONS`.
        """
        options = options if options is not None else Options()
        env = env if env is not None else Env()
        profile = profile if profile is not None else _DEFAULT_PROFILE
        statistics = statistics if statistics is not None else Statistics()
        db = cls(path, options, env, profile, statistics, byte_scale, tracer)
        db._recover()
        return db

    def _recover(self) -> None:
        fs = self._env.fs
        manifest_path = f"{self._path}/MANIFEST"
        existed = fs.exists(manifest_path)
        if existed:
            if self._options.get("error_if_exists"):
                raise DBError(f"database already exists at {self._path}")
            # recover() truncates any torn manifest tail before the
            # writer reattaches, so new edits never append after damage.
            manifest, version, last_seq, next_file = Manifest.recover(
                fs, manifest_path, self._options.get("num_levels")
            )
            self._manifest = manifest
            self._version = version
            self._seq = last_seq
            self._next_file_number = next_file
        elif not self._options.get("create_if_missing"):
            raise DBError(f"database missing at {self._path}")
        else:
            self._manifest = Manifest(fs, manifest_path, create=True)
        # Purge orphan SSTs: tables written by a flush/compaction whose
        # VersionEdit never reached the synced MANIFEST (crash between
        # table finish and edit append), or compaction inputs whose
        # deletion edit landed but whose files were not yet unlinked.
        # Must happen before WAL replay: replay may schedule flushes
        # that create new tables.
        referenced = {meta.file_number for meta in self._version.all_files()}
        for path in list(fs.list_dir(self._path)):
            if not path.endswith(".sst"):
                continue
            number = int(path.rsplit("/", 1)[-1].split(".")[0])
            if number not in referenced:
                fs.delete(path)
            # An orphan's number came from a counter ahead of the
            # persisted one; never hand it out again.
            self._next_file_number = max(self._next_file_number, number + 1)
        # Replay any leftover WALs (oldest first by file number) into the
        # memtable AND into a fresh WAL: recovered-but-unflushed entries
        # must survive a second crash before the next flush. With
        # ``disable_wal`` set, no live WAL exists — flushes are the
        # durability source — so leftover logs (from a previous run with
        # the WAL on) are replayed and immediately flushed instead.
        old_wals = [p for p in sorted(fs.list_dir(self._path))
                    if p.endswith(".log")]
        # WAL rotations are not manifest events, so the persisted file
        # counter can lag live WAL numbers; never reuse one.
        for path in old_wals:
            number = int(path.rsplit("/", 1)[-1].split(".")[0])
            self._next_file_number = max(self._next_file_number, number + 1)
        if not self._disable_wal:
            self._wal = WalWriter(fs, self._wal_path(self._new_file_number()))
        for path in old_wals:
            for seq, kind, key, value in replay_wal(fs, path):
                self._mem.add(seq, kind, key, value)
                if self._wal is not None:
                    self._wal.add_record(seq, kind, key, value)
                self._seq = max(self._seq, seq)
                # A backlog larger than one write buffer must not pile
                # into a single oversized memtable that then sits
                # unflushed; rotate and let flushes drain as usual.
                if self._mem.should_flush():
                    self._rotate_memtable()
                    self._bg.poll(self._clock.now_us)
        if self._wal is not None:
            self._wal.sync()
        elif old_wals and (not self._mem.empty() or self._imm):
            # Replayed entries must reach a flushed table before the old
            # logs vanish, or a crash right after recovery loses them.
            self._rotate_memtable()
            self._maybe_schedule_flush(force=True)
            self.wait_for_background()
        self._durable_seq = self._seq
        self._rebuild_write_plan()
        for path in old_wals:
            fs.delete(path)
        if not existed:
            self._manifest.append(
                VersionEdit(
                    last_sequence=self._seq,
                    next_file_number=self._next_file_number,
                    comment="create",
                )
            )

    # -------------------------------------------------------- plumbing

    def _new_file_number(self) -> int:
        n = self._next_file_number
        self._next_file_number += 1
        return n

    def _sst_path(self, number: int) -> str:
        return f"{self._path}/{number:06d}.sst"

    def _wal_path(self, number: int) -> str:
        return f"{self._path}/{number:06d}.log"

    def _new_memtable(self) -> MemTable:
        opts = self._options
        bloom_ratio = opts.get("memtable_prefix_bloom_size_ratio")
        bloom_bits = 10 if bloom_ratio > 0 else 0
        return MemTable(
            capacity_bytes=opts.get("write_buffer_size"),
            bloom_bits=bloom_bits,
            whole_key_filtering=opts.get("memtable_whole_key_filtering"),
        )

    def _effective_cache_bytes(self) -> int:
        opts = self._options
        if opts.get("no_block_cache"):
            return 0
        configured = opts.get("block_cache_size")
        os_overhead = int(self._memory_bytes * 0.20)
        available = self._memory_bytes - os_overhead - opts.memtable_budget_bytes()
        return max(0, min(configured, max(0, available)))

    def _page_cache_bytes(self) -> int:
        """OS page cache stand-in: a slice of the memory the process does
        not claim. Under a container memory cap the kernel reclaims page
        cache aggressively, so only a fraction of free memory is modeled
        as effective. Direct reads bypass it entirely."""
        if self._options.get("use_direct_reads"):
            return 0
        free = (
            self._memory_bytes
            - int(self._memory_bytes * 0.20)
            - self._options.memtable_budget_bytes()
            - self._block_cache.capacity_bytes
        )
        return max(0, int(free * 0.10))

    def _compute_swap_factor(self) -> float:
        budget = self._options.memory_budget_bytes()
        memory = self._memory_bytes
        if budget <= memory * 0.80:
            return 1.0
        # Overcommitting memory thrashes: costs inflate sharply.
        over = budget / (memory * 0.80)
        return min(6.0, over * over)

    def _open_reader(self, file_number: int) -> SSTableReader:
        file = self._env.fs.open_random(self._sst_path(file_number))
        return SSTableReader(
            file, file_number,
            verify_checksums=self._options.get("paranoid_checks"),
        )

    def _on_cache_evict(self, key, charge: int) -> None:
        # Block-cache keys are (file_number, block_offset) tuples; stay
        # defensive in case a non-tuple key is ever cached.
        if isinstance(key, tuple) and len(key) == 2:
            file_number, offset = key
        else:  # pragma: no cover - defensive
            file_number, offset = -1, -1
        self._tracer.emit(CacheEviction(int(file_number), int(offset), charge))

    def _cache_get(self, key):
        payload = self._block_cache.get(key)
        if payload is None:
            self._tickers[_T_BLOCK_CACHE_MISS] += 1
        else:
            self._tickers[_T_BLOCK_CACHE_HIT] += 1
        return payload

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError("database is closed")

    def _advance(self, latency_us: float) -> None:
        self._clock_advance(latency_us / self._fg_div)

    def _charge_read(self, latency_us: float) -> float:
        """The epilogue every read shares: scale the modeled cost by
        the swap factor, add a stats dump when one is due, account the
        CPU time and advance the clock. Returns the charged latency."""
        latency_us *= self._swap_factor
        period_us = self._stats_dump_period_us
        if period_us > 0:
            now = self._clock.now_us
            if now - self._last_stats_dump_us >= period_us:
                self._last_stats_dump_us = now
                latency_us += self._perf.stats_dump_cost_us()
        self._monitor.record_cpu(latency_us)
        self._clock_advance(latency_us / self._fg_div)
        return latency_us

    def _table_open_us(self, reader: SSTableReader) -> float:
        """Count and price opening a table the table cache did not hold."""
        self._tickers[_T_TABLE_OPENS] += 1
        return self._perf.table_open_cost_us(
            reader.index_size_bytes, reader.filter_size_bytes
        )

    # ------------------------------------------------------- background

    @property
    def background_stats(self) -> dict[str, Any]:
        """Job counts of the background pipeline: submitted, joined,
        and pending (in flight in virtual time)."""
        return self._bg.stats

    def _materialize_table(self, data: bytes) -> int:
        """Write one finished table's bytes under a freshly allocated
        file number; returns the number. Install-time materialization:
        background jobs build into scratch space, and the bytes reach
        the DB's filesystem here — synced *before* the MANIFEST edit
        that references them, preserving the recovery orphan rule (a
        crash in between leaves an orphan table, purged on reopen)."""
        number = self._new_file_number()
        f = self._env.fs.create(self._sst_path(number))
        f.append(data)
        f.sync()
        f.close()
        return number

    def _install_flush(self, job: BgJob) -> None:
        result = job.output.result
        ids = {id(mt) for mt in job.spec.memtables}
        self._imm = [mt for mt in self._imm if id(mt) not in ids]
        self._imm_bytes = sum(mt.approx_bytes for mt in self._imm)
        if result.file_meta is not None:
            number = self._materialize_table(job.output.files[0])
            result.file_meta = replace(result.file_meta, file_number=number)
            self._version.add_file(0, result.file_meta)
            assert self._manifest is not None
            # Durability ordering: the flush's VersionEdit must reach the
            # synced MANIFEST *before* the WALs covering these memtables
            # are unlinked — a crash between the two would otherwise lose
            # acked writes (the table would be an orphan and the log gone).
            self._manifest.append(
                VersionEdit(
                    added=[self._version.files_at(0)[-1]],
                    last_sequence=self._seq,
                    next_file_number=self._next_file_number,
                    comment="flush",
                )
            )
            if self._disable_wal:
                self._durable_seq = max(
                    self._durable_seq, result.last_sequence
                )
        for path in job.wal_paths:
            if self._env.fs.exists(path):
                self._env.fs.delete(path)
        for mt_id in ids:
            self._imm_wal.pop(mt_id, None)
        self._stats.bump(Ticker.FLUSH_COUNT)
        self._stats.bump(Ticker.FLUSH_BYTES, result.bytes_out)
        self._stats.bump(Ticker.BYTES_WRITTEN, result.bytes_out)
        self._stats.observe(OpClass.FLUSH, job.duration_us)
        self._monitor.record_write(result.bytes_out)
        if self._trace_on:
            self._tracer.emit(
                FlushInstalled(
                    bytes_out=result.bytes_out,
                    duration_us=job.duration_us,
                    l0_files=self._version.num_files(0),
                )
            )
        self._maybe_schedule_compaction()

    def _install_compaction(self, job: BgJob) -> None:
        compaction = job.spec.compaction
        result = job.output.result
        # Outputs were built in job-local scratch space; land the bytes
        # and allocate real file numbers now, in install order.
        result.new_files = [
            replace(meta, file_number=self._materialize_table(data))
            for meta, data in zip(result.new_files, job.output.files)
        ]
        # Outputs above the bottommost level come with their builders'
        # kept blocks: the next compaction reads them undecoded.
        for meta, blocks in zip(result.new_files, job.output.blocks):
            self._table_cache.seed(meta.file_number, blocks)
        edit = VersionEdit(comment=f"compaction L{compaction.level}")
        for meta in compaction.all_inputs:
            edit.deleted.append((meta.level, meta.file_number))
        for meta in result.new_files:
            # The manifest must record the *installed* level or replay
            # would put compaction outputs back at L0.
            edit.added.append(replace(meta, level=compaction.output_level))
            if compaction.output_level == 0:
                # Universal merge outputs replace the *oldest* runs;
                # replay must reinstall them at the oldest L0 position
                # or reads would see stale values after reopen.
                edit.l0_front.append(meta.file_number)
        edit.last_sequence = self._seq
        edit.next_file_number = self._next_file_number
        assert self._manifest is not None
        self._manifest.append(edit)
        self._retire_files(compaction.all_inputs)
        for meta in result.new_files:
            if compaction.output_level == 0:
                self._version.add_file_l0_front(meta)
            else:
                self._version.add_file(compaction.output_level, meta)
        self._stats.bump(Ticker.COMPACTION_COUNT)
        self._stats.bump(Ticker.COMPACTION_BYTES_READ, result.bytes_read)
        self._stats.bump(Ticker.COMPACTION_BYTES_WRITTEN, result.bytes_written)
        self._stats.bump(Ticker.BYTES_WRITTEN, result.bytes_written)
        self._stats.bump(Ticker.BYTES_READ, result.bytes_read)
        self._stats.observe(OpClass.COMPACTION, job.duration_us)
        self._monitor.record_write(result.bytes_written)
        self._monitor.record_read(result.bytes_read)
        if self._trace_on:
            self._tracer.emit(
                CompactionInstalled(
                    level=compaction.level,
                    output_level=compaction.output_level,
                    bytes_read=result.bytes_read,
                    bytes_written=result.bytes_written,
                    duration_us=job.duration_us,
                )
            )
        self._maybe_schedule_compaction()

    def _retire_files(self, metas: Iterable[FileMetaData]) -> None:
        """Drop replaced tables from the version, every cache and the
        filesystem. Durability ordering: the caller has already synced
        the MANIFEST edit recording the deletions, so a crash in between
        leaves orphans (purged at recovery); unlinking first would leave
        the MANIFEST referencing files that no longer exist."""
        fs = self._env.fs
        for meta in metas:
            self._version.remove_file(meta.level, meta.file_number)
            self._table_cache.evict(meta.file_number)
            self._block_cache.erase_file(meta.file_number)
            self._page_cache.erase_file(meta.file_number)
            path = self._sst_path(meta.file_number)
            if fs.exists(path):
                fs.delete(path)

    # ------------------------------------------------------- scheduling

    def _maybe_schedule_flush(self, *, force: bool = False) -> bool:
        flushing = {
            id(mt)
            for job in self._bg.inflight("flush")
            for mt in job.spec.memtables
        }
        batch = [mt for mt in self._imm if id(mt) not in flushing]
        if not batch:
            return False
        min_merge = self._options.get("min_write_buffer_number_to_merge")
        if not force and len(batch) < min_merge:
            return False
        self._bg.submit(
            BgJob(
                kind="flush",
                run=execute_flush_job,
                spec=FlushJobSpec(
                    memtables=batch,
                    snapshots=self._snapshots.freeze(),
                    builder=self._builder_config(level=0),
                ),
                install=self._install_flush,
                bytes_in=sum(mt.approximate_memory_usage for mt in batch),
                entries_in=sum(mt.num_entries for mt in batch),
                swap_factor=self._swap_factor,
                wal_paths=[
                    self._imm_wal[id(mt)]
                    for mt in batch if id(mt) in self._imm_wal
                ],
            )
        )
        return True

    def _builder_config(self, level: int) -> BuilderConfig:
        """Snapshot the build options for tables landing at ``level``
        (the schedule-time equivalent of ``_make_builder``)."""
        opts = self._options
        compression = opts.get("compression")
        bottom = level >= max(1, self._version.max_populated_level())
        if bottom and opts.get("bottommost_compression") != "disable":
            compression = opts.get("bottommost_compression")
            if compression == "disable":  # pragma: no cover - guarded above
                compression = opts.get("compression")
        bloom_bits = opts.get("bloom_filter_bits_per_key")
        if bottom and level > 0 and opts.get("optimize_filters_for_hits"):
            bloom_bits = -1.0
        return BuilderConfig(
            block_size=opts.get("block_size"),
            restart_interval=opts.get("block_restart_interval"),
            compression=compression,
            bloom_bits_per_key=bloom_bits,
            whole_key_filtering=opts.get("whole_key_filtering"),
        )

    def _claimed_files(self) -> set[int]:
        """File numbers some in-flight compaction will replace."""
        return {
            meta.file_number
            for job in self._bg.inflight("compaction")
            for meta in job.spec.compaction.all_inputs
        }

    def _maybe_schedule_compaction(self) -> bool:
        if self._style == "fifo":
            return self._run_fifo_drop()
        compaction = self._picker.pick(self._version, self._claimed_files())
        if compaction is None:
            return False
        return self._execute_compaction(compaction)

    def _execute_compaction(self, compaction: Compaction) -> bool:
        """Capture the merge's inputs and submit the job, unless it
        would read from or write into a key range an in-flight
        compaction is going to install."""
        lo, hi = compaction.key_range()
        touched = (compaction.level, compaction.output_level)
        for job in self._bg.inflight("compaction"):
            other = job.spec.compaction
            other_lo, other_hi = other.key_range()
            if other.output_level in touched and not (
                hi < other_lo or lo > other_hi
            ):
                return False
        # The job reads through the table cache's readers: fetching
        # them is the handle churn (opens, evictions) of the
        # schedule-time state, and a reader the cache later evicts stays
        # readable for the job that holds it.
        readers = [
            self._table_cache.get(meta.file_number)[0]
            for meta in compaction.all_inputs
        ]
        output_level = compaction.output_level
        spec = CompactionJobSpec(
            compaction=compaction,
            readers=readers,
            bottommost=output_level >= self._version.max_populated_level(),
            snapshots=self._snapshots.freeze(),
            builder=self._builder_config(output_level),
            target_file_size=(
                self._options.target_file_size(output_level)
                if output_level > 0 else 0
            ),
        )
        self._bg.submit(
            BgJob(
                kind="compaction",
                run=execute_compaction_job,
                spec=spec,
                install=self._install_compaction,
                # Exact at schedule time: every input entry passes
                # through the merge, so entries_merged is the sum of the
                # input metas' entry counts; input bytes are the metas'
                # sizes.
                bytes_in=compaction.input_bytes,
                entries_in=sum(m.num_entries for m in compaction.all_inputs),
                swap_factor=self._swap_factor,
                parallelism=max(1, min(
                    self._options.get("max_subcompactions"),
                    self._profile.cpu_cores,
                    len(compaction.all_inputs),
                )),
            )
        )
        return True

    def _run_fifo_drop(self) -> bool:
        drop = self._picker.pick_drop(self._version)
        if drop is None:
            return False
        edit = VersionEdit(comment="fifo drop")
        for meta in drop.doomed:
            edit.deleted.append((0, meta.file_number))
        assert self._manifest is not None
        self._manifest.append(edit)
        self._retire_files(drop.doomed)
        self._stats.bump(Ticker.COMPACTION_COUNT)
        if self._trace_on:
            self._tracer.emit(
                FifoDrop(
                    files_dropped=len(drop.doomed),
                    bytes_dropped=sum(m.file_size for m in drop.doomed),
                )
            )
        return True

    # ------------------------------------------------------------ write

    def _pending_compaction_bytes(self) -> int:
        stamp = self._version.stamp
        cached = self._pending_bytes_cache
        if cached[0] == stamp:
            return cached[1]
        value = self._picker.pending_compaction_bytes(self._version)
        self._pending_bytes_cache = (stamp, value)
        return value

    def _make_room_for_write(self, entry_bytes: int) -> float:
        """Apply the stall state machine; return extra latency in us."""
        extra_us = 0.0
        slowdown_counted = False
        bg = self._bg
        while True:
            bg.poll(self._clock.now_us)
            decision = self._controller.decide(
                l0_files=self._version.num_files(0),
                immutable_memtables=len(self._imm),
                pending_compaction_bytes=self._pending_compaction_bytes(),
            )
            if decision.state is WriteState.NORMAL:
                return extra_us
            if decision.state is WriteState.DELAYED:
                if not slowdown_counted:
                    self._stats.bump(Ticker.SLOWDOWN_COUNT)
                    slowdown_counted = True
                delay = self._controller.delay_us_for(decision, entry_bytes)
                self._stats.bump(Ticker.DELAYED_WRITE_MICROS, int(delay))
                if self._trace_on:
                    self._tracer.emit(
                        StallEvent("delayed", decision.reason, delay)
                    )
                self._advance(delay)
                return extra_us + delay
            # STOPPED: wait for background work to finish.
            self._stats.bump(Ticker.STALL_COUNT)
            self._maybe_schedule_flush(force=True)
            self._maybe_schedule_compaction()
            # Blocked: the earliest completion decides how far to jump,
            # so every pending job must reveal its exact time first.
            bg.join_all()
            if not bg.inflight():
                # Wedged (e.g. compactions disabled while L0 is over the
                # stop trigger): charge a heavy penalty and let it through.
                self._stats.bump(Ticker.STALL_MICROS, int(_WEDGED_PENALTY_US))
                if self._trace_on:
                    self._tracer.emit(
                        StallEvent(
                            "wedged", decision.reason, _WEDGED_PENALTY_US
                        )
                    )
                self._advance(_WEDGED_PENALTY_US)
                return extra_us + _WEDGED_PENALTY_US
            wait = max(0.0, bg.next_event_us - self._clock.now_us)
            if self._trace_on:
                self._tracer.emit(
                    StallEvent("stopped", decision.reason, wait)
                )
            bg.wait_next()
            self._stats.bump(Ticker.STALL_MICROS, int(wait))
            self._monitor.record_iowait(wait)
            extra_us += wait

    def put(self, key: bytes, value: bytes) -> float:
        """Insert/overwrite ``key``; returns the modeled latency in us."""
        return self._write(_VALUE, key, value)

    def delete(self, key: bytes) -> float:
        """Delete ``key`` (writes a tombstone); returns latency in us."""
        return self._write(_DELETE, key, b"")

    def write(self, batch: "WriteBatch") -> float:
        """Apply a :class:`~repro.lsm.write_batch.WriteBatch` atomically.

        All ops share one stall check and one WAL sync boundary; the
        memtable never rotates mid-batch, so readers observe either none
        or all of the batch. Returns the total modeled latency in us.

        Accounting follows RocksDB's write-group semantics: per-key
        tickers (``NUMBER_KEYS_WRITTEN``, ``WAL_BYTES``) and the durable
        watermark advance exactly as for N single writes, while
        per-*write* tickers (``WRITE_DONE_BY_SELF``, ``WRITE_WITH_WAL``,
        ``WAL_SYNCS`` under ``use_fsync``) count the batch once — one
        commit, one sync boundary.
        """
        # Validate before mutating anything: a bad op discovered
        # mid-batch would otherwise leave earlier ops in the WAL with no
        # committed sequence — half a batch after replay.
        ops = batch.ops
        for op in ops:
            if not op.key:
                raise DBError("empty keys are not supported")
        return self._write(_VALUE, None, None, ops)

    def _write(self, kind: ValueKind, key: bytes | None, value: bytes | None,
               ops: list[BatchOp] | None = None) -> float:
        # The one commit path: one op from put/delete, or a batch's ops
        # from write (kind then only picks the histogram: a batch is
        # observed under PUT). Only the data path branches on the input;
        # either way the WAL append precedes the memtable insert and the
        # sequence commits after both, so a failed append leaves nothing
        # readable. Pricing is a fused multiply-add over _write_plan's
        # constants in put_cost_us's exact FP evaluation order, so a
        # group costs exactly the sum of its ops, bit for bit.
        if self._closed:
            raise DBClosedError("database is closed")
        if ops is None:
            if not key:
                raise DBError("empty keys are not supported")
            entry_bytes = len(key) + len(value) + 24
        elif ops:
            entry_bytes = sum(len(op.key) + len(op.value) + 24 for op in ops)
        else:
            return 0.0
        clock = self._clock
        bg = self._bg
        if bg.next_event_us <= clock._now_us:
            bg.poll(clock._now_us)
        # Stall fast path: the clear verdict is pure in (L0 files, imm
        # count, pending debt), all functions of (version stamp, imm
        # count) — memoize on those so the common NORMAL case is a tuple
        # compare. The full state machine only runs near the thresholds.
        stamp = self._version.stamp
        n_imm = len(self._imm)
        cache = self._clear_cache
        if cache[0] == stamp and cache[1] == n_imm:
            clear = cache[2]
        else:
            clear = self._controller.clear(
                self._version.num_files(0),
                n_imm,
                self._pending_compaction_bytes(),
            )
            self._clear_cache = (stamp, n_imm, clear)
        stall_us = 0.0 if clear else self._make_room_for_write(entry_bytes)
        # One attribute hop for everything the mutate+price section
        # needs: the plan tuple is rebuilt whenever any member changes
        # (_rebuild_write_plan call sites). Unpacked only after the
        # stall check, which can rotate/flush and thus rebuild it.
        (
            bg_busy,
            base, per_byte, coord, speed, cores, rot_seek, relief,
            wal, use_fsync, swap, fg_div, period,
            tickers, wal_append, mem, mem_add, writeback, account_put,
            clock_advance, observe_put, observe_delete, block_cache,
            budget_caps,
        ) = self._write_plan
        now = clock._now_us
        # A stall advance can cross a pending job's lower bound; busy()
        # settles such a job's real duration into its slot first.
        busy = bg_busy(now)
        contention = (1.0 + busy) / cores
        if contention < 1.0:
            contention = 1.0
        rot_extra = (
            rot_seek * busy * 12.0 * relief if rot_seek and busy else 0.0
        )
        wal_bytes = 0
        if ops is None:
            # One op, fillrandom's inner loop: its record is encoded
            # inline, with no tuple and no loop.
            seq = self._seq + 1
            latency = (
                ((base + entry_bytes * per_byte) + coord) / speed * contention
                + rot_extra
            ) * swap
            if wal is not None:
                payload = (_wal_pack_fixed(seq, kind, len(key)) + key
                           + _wal_pack_u32(len(value)) + value)
                wal_bytes = wal_append(
                    _wal_pack_header(_wal_crc32(payload), len(payload))
                    + payload
                )
            mem_add(seq, kind, key, value)
            tickers[_T_NUMBER_KEYS_WRITTEN] += 1
        else:
            # A group: every record lands in one WAL append.
            seq = self._seq
            latency = 0.0
            records = []
            for op in ops:
                seq += 1
                latency += (
                    ((base + (len(op.key) + len(op.value) + 24) * per_byte)
                     + coord) / speed * contention
                    + rot_extra
                ) * swap
                records.append((seq, op.kind, op.key, op.value))
            if wal is not None:
                wal_bytes = wal.add_records(records)
            for record in records:
                mem_add(*record)
            tickers[_T_NUMBER_KEYS_WRITTEN] += len(ops)
        self._seq = seq
        if wal is not None:
            tickers[_T_WAL_BYTES] += wal_bytes
            tickers[_T_WRITE_WITH_WAL] += 1
            if use_fsync:
                wal.sync()
                self._durable_seq = seq
                latency += self._perf.wal_sync_cost_us()
                tickers[_T_WAL_SYNCS] += 1
                self._monitor.record_sync()
        latency += writeback(wal_bytes + entry_bytes)
        if period > 0.0 and now - self._last_stats_dump_us >= period:
            self._last_stats_dump_us = now
            latency += self._perf.stats_dump_cost_us()
        tickers[_T_WRITE_DONE_BY_SELF] += 1
        mem_bytes = mem.approx_bytes
        account_put(latency, wal_bytes,
                    mem_bytes + self._imm_bytes + block_cache.used_bytes)
        clock_advance(latency / fg_div)
        total = latency + stall_us
        (observe_delete if kind is _DELETE else observe_put)(total)
        if mem_bytes >= mem.capacity_bytes or (
            budget_caps and self._over_global_write_budget()
        ):
            rotation_cost = self._perf.rotation_overhead_us()
            clock_advance(rotation_cost / fg_div)
            total += rotation_cost
            self._rotate_memtable()
        return total

    def _over_global_write_budget(self) -> bool:
        cap = self._db_write_buffer_size
        if cap:
            if self._mem.approx_bytes + self._imm_bytes >= cap:
                return True
        wal_cap = self._max_total_wal_size
        if wal_cap and self._wal is not None:
            live = self._wal.size() + sum(
                self._env.fs.file_size(p)
                for p in self._imm_wal.values()
                if self._env.fs.exists(p)
            )
            if live >= wal_cap:
                return True
        return False

    def _rotate_memtable(self) -> None:
        if self._mem.empty():
            return
        wal = self._wal
        if wal is not None:
            wal.sync()
            if not self._disable_wal:
                # Everything acked so far now sits in a synced WAL (older
                # generations were synced at their own rotation).
                self._durable_seq = self._seq
            wal.close()
        if self._trace_on:
            self._tracer.emit(
                MemtableRotate(
                    memtable_bytes=self._mem.approx_bytes,
                    immutables=len(self._imm) + 1,
                )
            )
        self._imm.append(self._mem)
        self._imm_bytes += self._mem.approx_bytes
        if wal is not None:
            self._imm_wal[id(self._mem)] = wal.path
            self._wal = WalWriter(
                self._env.fs, self._wal_path(self._new_file_number())
            )
        self._mem = self._new_memtable()
        self._rebuild_write_plan()
        self._maybe_schedule_flush()

    # ------------------------------------------------------------- read

    def get(self, key: bytes, snapshot: Snapshot | None = None) -> bytes | None:
        """Point lookup; returns the value or None.

        With ``snapshot``, returns the value visible at the snapshot's
        sequence number (a consistent historical read).
        """
        self._check_open()
        now = self._clock.now_us
        self._bg.poll(now)
        busy = self._bg.busy(now)
        tickers = self._tickers
        tickers[_T_NUMBER_KEYS_READ] += 1
        found_value: bytes | None = None
        snap_seq = snapshot.sequence if snapshot is not None else None
        # Probe the active memtable first, then immutables newest-first;
        # written flat (no probe list) because this runs on every read.
        probes = 1
        mem = self._mem
        # The key is hashed once per lookup and the pair handed to every
        # filter probed: memtable blooms here, SSTable filters in
        # _search_levels.
        hashes = key_hashes(key) if self._filters_on else None
        found, kind, value = mem.get(key, snap_seq, hashes)
        if not found:
            for mt in reversed(self._imm):
                probes += 1
                found, kind, value = mt.get(key, snap_seq, hashes)
                if found:
                    break
        if found and kind is _VALUE:
            found_value = value
        latency = self._perf.memtable_get_cost_us(probes, busy)
        if found:
            tickers[_T_MEMTABLE_HIT] += 1
        else:
            tickers[_T_MEMTABLE_MISS] += 1
            found, found_value, level_hit, read_cost = self._search_levels(
                key, busy, snap_seq, hashes
            )
            latency += read_cost
            if found:
                tickers[_T_GET_HIT_BY_LEVEL[min(level_hit, 2)]] += 1
        if found_value is not None:
            tickers[_T_NUMBER_KEYS_FOUND] += 1
        latency = self._charge_read(latency)
        self._update_memory_gauge()
        self._stats.observe(_OP_GET, latency)
        return found_value

    def _search_levels(
        self,
        key: bytes,
        busy: int,
        snapshot_seq: int | None = None,
        hashes: tuple[int, int] | None = None,
    ) -> tuple[bool, bytes | None, int, float]:
        max_seq = (
            snapshot_seq if snapshot_seq is not None else _MAX_SEQUENCE
        )
        cost = 0.0
        filtered_cost: float | None = None
        tickers = self._tickers
        perf = self._perf
        version = self._version
        table_cache_get = self._table_cache.get
        cache_get = self._cache_get
        cache_put = self._block_cache.put
        page_get = self._page_cache.get
        page_put = self._page_cache.put
        for level in range(version.num_levels):
            for meta in version.files_for_key(level, key):
                reader, cached = table_cache_get(meta.file_number)
                if not cached:
                    cost += self._table_open_us(reader)
                hit, kind, value, rstats = reader.get(
                    key,
                    max_seq,
                    hashes,
                    cache_get=cache_get,
                    cache_put=cache_put,
                    page_get=page_get,
                    page_put=page_put,
                )
                if rstats is FILTERED_OUT:
                    # The filter ruled the table out and nothing else was
                    # touched: the same record, hence the same price,
                    # for every such table this lookup meets.
                    if filtered_cost is None:
                        filtered_cost = perf.table_read_cost_us(
                            rstats, busy_bg_jobs=busy
                        )
                    cost += filtered_cost
                    tickers[_T_BLOOM_CHECKED] += 1
                    tickers[_T_BLOOM_USEFUL] += 1
                    continue
                cost += perf.table_read_cost_us(rstats, busy_bg_jobs=busy)
                if rstats.bloom_checked:
                    tickers[_T_BLOOM_CHECKED] += 1
                if rstats.block_reads:
                    # A point lookup reads at most one block per table.
                    nbytes, source = rstats.block_reads[0]
                    if source == "device":
                        tickers[_T_BYTES_READ] += nbytes
                        self._monitor.record_read(nbytes)
                if hit:
                    if kind is _DELETE:
                        return True, None, level, cost
                    return True, value, level, cost
        return False, None, -1, cost

    def multi_get(
        self, keys: list[bytes], snapshot: Snapshot | None = None
    ) -> list[bytes | None]:
        """Batched point lookups; returns values in input order.

        The batch is sorted and de-duplicated internally, probed once
        per key against the memtables, then walked level by level with
        the misses grouped per SSTable — each table is opened at most
        once and a block holding several of the batch's keys is fetched
        once (one shared :class:`ReadStats` prices the whole batch). A
        single batched latency is charged, which is why this beats N
        independent ``get`` calls. With ``snapshot``, every lookup sees
        the snapshot's sequence — identical semantics to ``get``.
        """
        self._check_open()
        if not keys:
            return []
        now = self._clock.now_us
        self._bg.poll(now)
        busy = self._bg.busy(now)
        tickers = self._tickers
        perf = self._perf
        snap_seq = snapshot.sequence if snapshot is not None else None
        max_seq = snap_seq if snap_seq is not None else _MAX_SEQUENCE
        unique = sorted(set(keys))
        tickers[_T_MULTIGET_CALLS] += 1
        tickers[_T_MULTIGET_KEYS_READ] += len(keys)
        tickers[_T_NUMBER_KEYS_READ] += len(keys)
        #: key -> value (or None for a tombstone); absence = not found yet.
        outcome: dict[bytes, bytes | None] = {}
        memtables = [self._mem, *reversed(self._imm)]
        #: key -> key_hashes: a key is hashed once however many memtable
        #: and SSTable filters the batch probes.
        hashes: dict[bytes, tuple[int, int]] = (
            {key: key_hashes(key) for key in unique} if self._filters_on else {}
        )
        probes = 0
        pending: list[bytes] = []
        for key in unique:
            found = False
            for mt in memtables:
                probes += 1
                found, kind, value = mt.get(key, snap_seq, hashes.get(key))
                if found:
                    outcome[key] = value if kind is _VALUE else None
                    tickers[_T_MEMTABLE_HIT] += 1
                    break
            if not found:
                tickers[_T_MEMTABLE_MISS] += 1
                pending.append(key)
        latency = perf.memtable_get_cost_us(probes, busy)
        shared = ReadStats()
        version = self._version
        for level in range(version.num_levels):
            if not pending:
                break
            if level == 0:
                # L0 files overlap: walk them newest-first, and stop
                # looking for a key as soon as any file resolves it.
                for meta in reversed(version.files_at(0)):
                    if not pending:
                        break
                    group = [
                        k for k in pending
                        if meta.smallest_key <= k <= meta.largest_key
                    ]
                    if not group:
                        continue
                    latency += self._batch_lookup(
                        meta, group, max_seq, shared, outcome, level, hashes
                    )
                    pending = [k for k in pending if k not in outcome]
            else:
                # Disjoint sorted run: each key maps to at most one
                # file; neighbouring keys naturally share the file.
                groups: list[tuple[FileMetaData, list[bytes]]] = []
                for k in pending:
                    metas = version.files_for_key(level, k)
                    if not metas:
                        continue
                    if groups and groups[-1][0] is metas[0]:
                        groups[-1][1].append(k)
                    else:
                        groups.append((metas[0], [k]))
                for meta, group in groups:
                    latency += self._batch_lookup(
                        meta, group, max_seq, shared, outcome, level, hashes
                    )
                pending = [k for k in pending if k not in outcome]
        latency += perf.table_read_cost_us(shared, busy_bg_jobs=busy)
        latency += perf.multiget_overhead_us(len(keys), busy)
        if shared.bloom_probes:
            tickers[_T_BLOOM_CHECKED] += shared.bloom_probes
            tickers[_T_BLOOM_USEFUL] += shared.bloom_negatives
        device_bytes = shared.device_block_bytes()
        if device_bytes:
            tickers[_T_BYTES_READ] += device_bytes
            self._monitor.record_read(device_bytes)
        results = [outcome.get(k) for k in keys]
        value_bytes = sum(len(v) for v in results if v is not None)
        found_keys = sum(1 for v in results if v is not None)
        tickers[_T_MULTIGET_BYTES_READ] += value_bytes
        tickers[_T_NUMBER_KEYS_FOUND] += found_keys
        latency = self._charge_read(latency)
        self._update_memory_gauge()
        # One histogram sample per key at the batch's amortized cost, so
        # read-latency counts still mean "keys read".
        self._stats.observe_many(
            _OP_GET, [latency / len(keys)] * len(keys)
        )
        if self._trace_on:
            self._tracer.emit(
                MultiGetBatch(
                    keys=len(keys),
                    found=found_keys,
                    blocks_read=len(shared.block_reads),
                    device_bytes=device_bytes,
                    latency_us=latency,
                )
            )
        return results

    def _batch_lookup(
        self,
        meta: FileMetaData,
        group: list[bytes],
        max_seq: int,
        shared: ReadStats,
        outcome: dict[bytes, bytes | None],
        level: int,
        hashes: dict[bytes, tuple[int, int]],
    ) -> float:
        """multi_get helper: probe one SSTable for a sorted key group."""
        tickers = self._tickers
        reader, cached = self._table_cache.get(meta.file_number)
        cost = 0.0 if cached else self._table_open_us(reader)
        hits = reader.multi_get(
            group,
            max_seq,
            stats=shared,
            hashes=hashes,
            cache_get=self._cache_get,
            cache_put=self._block_cache.put,
            page_get=self._page_cache.get,
            page_put=self._page_cache.put,
        )
        level_slot = _T_GET_HIT_BY_LEVEL[min(level, 2)]
        for key, (kind, value) in hits.items():
            outcome[key] = value if kind is _VALUE else None
            tickers[level_slot] += 1
        return cost

    def iterator(
        self,
        *,
        end: bytes | None = None,
        snapshot: Snapshot | None = None,
    ) -> "DBIterator":
        """Open a lazy, pruning cursor over the merged key space.

        ``end`` is an *exclusive* upper bound enforced inside the merge,
        so SSTables wholly past it are never opened. With ``snapshot``
        the cursor reads the snapshot's sequence on every seek; without
        one it reads the live tree (writes made between seeks become
        visible — pin a snapshot for a stable view). Call
        :meth:`DBIterator.seek` to position it.
        """
        self._check_open()
        return DBIterator(self, end=end, snapshot=snapshot)

    def scan(
        self,
        start: bytes | None = None,
        limit: int | None = None,
        snapshot: Snapshot | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Range scan from ``start`` (inclusive), up to ``limit`` entries.

        With ``snapshot``, the scan sees the store as of the snapshot.
        Built on :meth:`iterator`: a bounded scan stops the lazy merge
        early, so sources past the stopping point are never opened.
        """
        self._check_open()
        it = DBIterator(self, snapshot=snapshot)
        out: list[tuple[bytes, bytes]] = []
        # Drive the cursor through its raw internals: one clock advance
        # for the whole scan (matching the pre-cursor accounting), not
        # one per entry — per-entry advances cost ~30% of scan
        # throughput on entry-dominated scans.
        latency = it._seek_raw(start)
        while it._valid:
            out.append((it._key, it._value))
            if limit is not None and len(out) >= limit:
                break
            latency += it._next_raw()
        it.close()
        latency = self._charge_read(latency)
        self._stats.observe(OpClass.SEEK, latency)
        return out

    # ------------------------------------------------------------ admin

    def snapshot(self) -> Snapshot:
        """Pin a consistent read view at the current sequence number.

        Use as a context manager (``with db.snapshot() as snap:``) or
        call ``snap.release()`` when done; live snapshots make flush and
        compaction retain the versions they can still see.
        """
        self._check_open()
        return self._snapshots.acquire(self._seq)

    @property
    def live_snapshots(self) -> int:
        return len(self._snapshots)

    def flush(self, *, wait_compactions: bool = True) -> None:
        """Force-flush the active memtable and wait for it.

        With ``wait_compactions=False`` only flush jobs are awaited; any
        compaction backlog stays pending — matching a real store right
        after a bulk load, where L0 is still deep when reads begin.
        """
        self._check_open()
        self._rotate_memtable()
        self._maybe_schedule_flush(force=True)
        while self._bg.wait_next(None if wait_compactions else "flush"):
            pass

    def compact_range(
        self, begin: bytes | None = None, end: bytes | None = None
    ) -> None:
        """Compact user-key range [begin, end] (None = unbounded).

        With no bounds, drives automatic compactions until the picker is
        satisfied. With bounds, manually pushes every overlapping file
        down one level at a time, top to bottom — RocksDB's manual
        CompactRange semantics.
        """
        self._check_open()
        self.wait_for_background()
        if (begin is None and end is None) or self._style != "level":
            # Universal/FIFO keep everything in L0 where age order is
            # the shadowing invariant; range-restricted merges cannot
            # preserve it, so they fall back to the automatic driver.
            while self._maybe_schedule_compaction():
                self.wait_for_background()
            return
        for level in range(self._version.num_levels - 1):
            while True:
                scheduled = self._schedule_manual_compaction(level, begin, end)
                self.wait_for_background()
                if not scheduled:
                    break

    def _schedule_manual_compaction(
        self, level: int, begin: bytes | None, end: bytes | None
    ) -> bool:
        """Push the files overlapping [begin, end] at ``level`` into
        ``level + 1``; returns False when nothing overlaps."""
        if self._style == "fifo":
            return False
        claimed = self._claimed_files()
        inputs = [
            f for f in self._version.overlapping_files(level, begin, end)
            if f.file_number not in claimed
        ]
        if not inputs:
            return False
        lo = min(f.smallest_key for f in inputs)
        hi = max(f.largest_key for f in inputs)
        output_level = level + 1
        overlapping = [
            f for f in self._version.overlapping_files(output_level, lo, hi)
            if f.file_number not in claimed
        ]
        return self._execute_compaction(
            Compaction(
                level=level, output_level=output_level,
                inputs=inputs, overlapping=overlapping,
            )
        )

    # -------------------------------------------------- dynamic options

    def set_options(
        self, changes: "Mapping[str, Any] | Iterable[tuple[str, Any]]"
    ) -> dict[str, tuple[Any, Any]]:
        """Apply a mutable-option diff to the live DB — no reopen.

        The whole diff is validated first: unknown, deprecated, or
        immutable names and out-of-range values raise *before* any state
        is touched (partial-diff atomicity). It is then applied as one
        step between operations: both option bags are updated in place
        (paper units in :attr:`options`, byte-scaled values in
        :attr:`effective_options`, which every component references),
        every cached per-component snapshot is rebound, the resulting
        configuration is persisted to the OPTIONS file on the DB's own
        filesystem, and a ``db.set_options`` trace event is emitted.

        Returns the applied diff as ``{name: (old, new)}`` in paper
        units; empty when every value already matched.
        """
        self._check_open()
        if isinstance(changes, Mapping):
            items = list(changes.items())
        else:
            items = [(name, value) for name, value in changes]
        # Phase 1: validate everything before touching anything.
        validated: list[tuple[str, Any]] = []
        for name, value in items:
            spec = ensure_mutable(name)
            validated.append((name, spec.validate(value)))
        # Phase 2: apply in place. Live-read options (compaction
        # triggers, level sizing, compression of new tables) take
        # effect through the shared bag without any rebinding. Pending
        # background jobs join first so their exact durations are
        # priced under the configuration they were scheduled under.
        self._bg.join_all()
        applied: dict[str, tuple[Any, Any]] = {}
        scaled_bag = self._options
        for name, value in validated:
            old = self._user_options.get(name)
            if old != value:
                applied[name] = (old, value)
            self._user_options.set(name, value)
            if scaled_bag is not self._user_options:
                scaled_bag.set(
                    name, scale_byte_value(name, value, self._byte_scale)
                )
        # Phase 3: rebind cached snapshots. Runs even for a no-op diff:
        # service shards share one paper-unit bag, so a later shard's
        # values may already match while its component caches do not.
        self._bind_options()
        # Phase 4: persist and announce.
        self._persist_options_file()
        if applied and self._trace_on:
            self._tracer.emit(SetOptions(
                [[n, old, new] for n, (old, new) in sorted(applied.items())]
            ))
        return applied

    def _persist_options_file(self) -> None:
        """Write the paper-unit configuration next to the data files.

        Mirrors RocksDB, which rewrites its OPTIONS file on every
        ``SetOptions`` call — through the DB's own (virtual) filesystem,
        synced so the post-crash image carries the last applied config.
        """
        f = self._env.fs.create(f"{self._path}/OPTIONS", overwrite=True)
        f.append(serialize_options(self._user_options).encode("utf-8"))
        f.sync()
        f.close()

    def sync_wal(self) -> float:
        """Force a WAL sync, advancing :attr:`durable_sequence`.

        The replication layer's durability point: a follower ack (and
        the leader's own ack under quorum writes) must cover a synced
        WAL even when ``use_fsync`` is off, or promotion from the
        durable watermark could drop service-acked writes. No-op with
        the WAL disabled or nothing unsynced. Returns the modeled sync
        latency in microseconds (charged to this DB's clock).
        """
        self._check_open()
        wal = self._wal
        if wal is None or wal.unsynced_bytes() == 0:
            return 0.0
        wal.sync()
        self._durable_seq = self._seq
        latency = self._perf.wal_sync_cost_us()
        self._tickers[_T_WAL_SYNCS] += 1
        self._monitor.record_sync()
        self._clock_advance(latency / self._fg_div)
        return latency

    def wait_for_background(self) -> None:
        """Advance virtual time until all background work completes."""
        self._check_open()
        # Installing a job can schedule new work; each step joins
        # everything pending again before it picks the earliest.
        while self._bg.wait_next():
            pass

    def close(self) -> None:
        """Flush (per options) and shut down."""
        if self._closed:
            return
        if not self._options.get("avoid_flush_during_shutdown"):
            if not self._mem.empty() or self._imm:
                self._rotate_memtable()
                self._maybe_schedule_flush(force=True)
        self.wait_for_background()
        if self._wal is not None:
            self._wal.sync()
            if not self._disable_wal:
                self._durable_seq = self._seq
            self._wal.close()
        self._table_cache.drop_seeds()
        self._closed = True

    def crash_and_reopen(self) -> "DB":
        """Kill this process image and recover from the surviving disk.

        Simulates a crash: all in-memory state (memtables, pending
        completions, caches) is discarded, the environment's filesystem
        drops whatever a real crash would not have persisted (see
        :meth:`~repro.lsm.env.MemFileSystem.crash`), and a fresh DB is
        opened over the same env to run recovery. The contract gated by
        the crash harness: every write at or below
        :attr:`durable_sequence` survives.
        """
        self._closed = True
        self._bg.drop()
        self._table_cache.drop_seeds()
        self._env.fs.crash()
        return DB.open(
            self._path,
            self._user_options,
            env=self._env,
            profile=self._profile,
            statistics=self._stats,
            byte_scale=self._byte_scale,
            tracer=self._tracer,
        )

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------- getters

    @property
    def foreground_parallelism(self) -> int:
        """Concurrent foreground client threads being modeled."""
        return self._foreground_parallelism

    @foreground_parallelism.setter
    def foreground_parallelism(self, value: int) -> None:
        if value < 1:
            raise DBError("foreground parallelism must be >= 1")
        # Duration formulas can read the thread count; join pending jobs
        # so none is priced under a mix of old and new values.
        self._bg.join_all()
        self._foreground_parallelism = value
        self._fg_div = value
        self._perf.foreground_threads = value
        # The coordination constant flips between the single-writer and
        # write-group figure; refresh the fast lane's snapshot.
        self._rebuild_write_plan()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def options(self) -> Options:
        """The user-facing (paper-unit) options this DB was opened with."""
        return self._user_options

    @property
    def effective_options(self) -> Options:
        """The byte-scaled options the engine actually runs on."""
        return self._options

    @property
    def statistics(self) -> Statistics:
        return self._stats

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @property
    def path(self) -> str:
        return self._path

    @property
    def version(self) -> Version:
        return self._version

    @property
    def env(self) -> Env:
        return self._env

    @property
    def profile(self) -> HardwareProfile:
        return self._profile

    @property
    def monitor(self) -> SystemMonitor:
        return self._monitor

    @property
    def block_cache(self) -> LRUCache:
        return self._block_cache

    @property
    def last_sequence(self) -> int:
        return self._seq

    @property
    def durable_sequence(self) -> int:
        """Highest sequence number guaranteed to survive a crash now.

        Advanced only after a successful WAL sync (rotation, fsync'd
        write, close) or — with the WAL disabled — after a flush's edit
        reaches the synced MANIFEST. Writes above this mark are acked
        but legitimately lost by a crash.
        """
        return self._durable_seq

    @property
    def num_immutable_memtables(self) -> int:
        return len(self._imm)

    @property
    def memtables(self) -> tuple[MemTable, ...]:
        """The live memtables, read-only: the active one, then the
        immutables awaiting flush, oldest first."""
        return (self._mem, *self._imm)

    def _update_memory_gauge(self) -> None:
        self._set_used_memory(
            self._mem.approx_bytes
            + self._imm_bytes
            + self._block_cache.used_bytes
        )

    def get_property(self, name: str) -> str | None:
        """RocksDB-style string property lookup (``pylsm.*`` namespace);
        see :mod:`repro.lsm.properties`."""
        self._check_open()
        from repro.lsm.properties import get_property

        return get_property(self, name)

    def approximate_size(self) -> int:
        """Total bytes across all live SSTables."""
        return self._version.total_bytes()

    def approximate_sizes(
        self, ranges: list[tuple[bytes, bytes]]
    ) -> list[int]:
        """Estimate on-disk bytes per user-key range [lo, hi].

        Fully-contained files count in full; partially-overlapping files
        contribute half their size (RocksDB's estimate is similarly
        coarse without table-level sampling).
        """
        self._check_open()
        out = []
        for lo, hi in ranges:
            if lo > hi:
                raise DBError("range start exceeds range end")
            total = 0
            for meta in self._version.all_files():
                if not meta.overlaps(lo, hi):
                    continue
                contained = lo <= meta.smallest_key and meta.largest_key <= hi
                total += meta.file_size if contained else meta.file_size // 2
            out.append(total)
        return out

    def describe(self) -> str:
        """Level shape + headline stats (prompt material)."""
        return self._version.describe()


class DBIterator:
    """Lazy, pruning cursor over a DB's merged key space.

    Created by :meth:`DB.iterator`. ``seek`` positions the cursor at the
    first visible user key >= the target (or the smallest key overall);
    ``next`` advances one key. The backing merge opens each source only
    when the heap first needs it: L1+ levels contribute one
    concatenating source each that bisects to the pruning boundary and
    opens exactly one file at a time, while L0 files are individual
    deferred sources in recency order. Tables whose key range lies past
    where the cursor stops are never opened at all.

    Stability: a seek fixes what the cursor reads until its next seek.
    Each memtable hands the merge its sorted view as of the seek, and a
    view is never mutated once handed out (a later put, or another
    reader refreshing the view, builds a new list), so ``next`` yields
    strictly increasing keys and neither repeats, skips nor picks up a
    write made since. Re-seek to see newer writes; pin a snapshot to
    keep one view across seeks.

    Latency accounting mirrors ``get``/``put``: each seek/next advances
    the virtual clock by its modeled cost and returns that cost in
    microseconds. Histogram observation is left to the caller —
    ``DB.scan`` and the bench runner record one ``OpClass.SEEK`` sample
    per logical operation, not per cursor step.
    """

    __slots__ = (
        "_db", "_end", "_snap_seq", "_stream", "_valid", "_key", "_value",
        "_shared", "_open_cost_us", "_busy", "_seeks", "_nexts", "_sources",
        "_tables_opened", "_blocks_read", "_device_bytes", "_closed",
    )

    def __init__(
        self,
        db: DB,
        *,
        end: bytes | None = None,
        snapshot: Snapshot | None = None,
    ) -> None:
        self._db = db
        self._end = end
        self._snap_seq = snapshot.sequence if snapshot is not None else None
        self._stream: Iterator[tuple[bytes, bytes]] | None = None
        self._valid = False
        self._key: bytes | None = None
        self._value: bytes | None = None
        self._shared = ReadStats()
        self._open_cost_us = 0.0
        self._busy = 0
        self._seeks = 0
        self._nexts = 0
        self._sources = 0
        self._tables_opened = 0
        self._blocks_read = 0
        self._device_bytes = 0
        self._closed = False

    # -- positioning -------------------------------------------------------

    def seek(self, target: bytes | None = None) -> float:
        """Position at the first visible user key >= ``target``;
        ``None`` seeks to the first key. Returns the charged latency."""
        db = self._db
        latency = db._charge_read(self._seek_raw(target))
        db._update_memory_gauge()
        if db._trace_on:
            db._tracer.emit(
                IteratorSeek(
                    target=(
                        "" if target is None
                        else target.decode("utf-8", "replace")
                    ),
                    sources=self._sources,
                    valid=self._valid,
                    latency_us=latency,
                )
            )
        return latency

    def next(self) -> float:
        """Advance to the next visible key; returns the charged latency."""
        db = self._db
        db._check_open()
        if not self._valid:
            raise DBError("next() on an invalid iterator")
        latency = self._next_raw() * db._swap_factor
        db._monitor.record_cpu(latency)
        db._advance(latency)
        return latency

    def _seek_raw(self, target: bytes | None) -> float:
        """Rebuild the merge at ``target`` and pull the first entry;
        returns the unscaled cost without touching the clock. ``scan``
        batches these raw costs into a single advance."""
        db = self._db
        db._check_open()
        if self._closed:
            raise DBError("seek() on a closed iterator")
        now = db._clock.now_us
        db._bg.poll(now)
        self._busy = db._bg.busy(now)
        db._tickers[_T_NUMBER_SEEKS] += 1
        self._seeks += 1
        sources, probes = self._build_sources(target)
        self._sources = len(sources)
        self._stream = user_view(lazy_merge(sources), self._snap_seq, self._end)
        return db._perf.memtable_get_cost_us(probes, self._busy) + self._pull()

    def _next_raw(self) -> float:
        """One merge step, unscaled, no clock advance (see ``_seek_raw``)."""
        self._nexts += 1
        return self._pull()

    # -- accessors ---------------------------------------------------------

    @property
    def valid(self) -> bool:
        return self._valid

    @property
    def key(self) -> bytes:
        if not self._valid:
            raise DBError("key on an invalid iterator")
        return self._key  # type: ignore[return-value]

    @property
    def value(self) -> bytes:
        if not self._valid:
            raise DBError("value on an invalid iterator")
        return self._value  # type: ignore[return-value]

    def close(self) -> None:
        """Release the cursor; emits its lifetime lazy-open summary."""
        if self._closed:
            return
        self._closed = True
        self._stream = None
        self._valid = False
        db = self._db
        if db._trace_on:
            db._tracer.emit(
                IteratorClose(
                    seeks=self._seeks,
                    nexts=self._nexts,
                    tables_opened=self._tables_opened,
                    blocks_read=self._blocks_read,
                    device_bytes=self._device_bytes,
                )
            )

    def __enter__(self) -> "DBIterator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _build_sources(self, start: bytes | None):
        """Merge sources for a seek: live memtables, deferred L0 files
        (newest first), one deferred concatenating run per L1+ level."""
        db = self._db
        end = self._end
        sources: list = [db._mem.seek(start)]
        sources += [mt.seek(start) for mt in reversed(db._imm)]
        probes = len(sources)
        version = db._version
        for meta in reversed(version.files_at(0)):
            if start is not None and meta.largest_key < start:
                continue
            if end is not None and meta.smallest_key >= end:
                continue
            sources.append(
                file_source(
                    meta,
                    lambda meta=meta: self._open_entries(meta, start),
                    start,
                )
            )
        for level in range(1, version.num_levels):
            source = concat_source(
                version.files_from(level, start),
                lambda meta: self._open_entries(meta, start),
                start,
                end,
            )
            if source is not None:
                sources.append(source)
        return sources, probes

    def _open_entries(self, meta: FileMetaData, start: bytes | None):
        """Open one SSTable (charging the open if uncached) and return
        its entry iterator from ``start``. Called lazily by the merge."""
        db = self._db
        reader, cached = db._table_cache.get(meta.file_number)
        if not cached:
            self._tables_opened += 1
            self._open_cost_us += db._table_open_us(reader)
        if start is not None:
            return reader.iter_from(
                start,
                cache_get=db._cache_get,
                cache_put=db._block_cache.put,
                stats=self._shared,
            )
        return reader.iter_entries(
            cache_get=db._cache_get,
            cache_put=db._block_cache.put,
            stats=self._shared,
        )

    def _pull(self) -> float:
        """Advance the merged stream one entry; return the unscaled cost
        of everything that had to happen to produce it (lazy table
        opens, block reads, the per-entry merge step)."""
        db = self._db
        assert self._stream is not None
        entry = next(self._stream, None)
        cost = self._open_cost_us
        self._open_cost_us = 0.0
        shared = self._shared
        if shared.block_reads:
            cost += db._perf.table_read_cost_us(
                shared, busy_bg_jobs=self._busy
            )
            self._blocks_read += len(shared.block_reads)
            device_bytes = shared.device_block_bytes()
            if device_bytes:
                self._device_bytes += device_bytes
                db._tickers[_T_BYTES_READ] += device_bytes
                db._monitor.record_read(device_bytes)
            shared.block_reads.clear()
        if entry is None:
            self._valid = False
            self._key = None
            self._value = None
        else:
            self._key, self._value = entry
            self._valid = True
            cost += db._perf.scan_next_cost_us(len(self._value), self._busy)
        return cost
