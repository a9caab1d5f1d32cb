"""RocksDB-style option catalog for PyLSM.

The paper's whole premise is an *unrestricted parameter pool*: RocksDB
exposes 100+ options and ELMo-Tune may touch any of them. This module
defines that pool for PyLSM: every option has a spec (type, default,
bounds, section, mutability, deprecation) and an :class:`Options` bag
validates values against the specs.

Defaults follow the paper's Table 5 "Default" column where the paper
states one, and RocksDB 8.x / ``db_bench`` defaults otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping

from repro.errors import ImmutableOptionError

from repro.errors import (
    DeprecatedOptionError,
    InvalidOptionValueError,
    OptionError,
    UnknownOptionError,
)

KiB = 1024
MiB = 1024**2
GiB = 1024**3


class Section(str, enum.Enum):
    """OPTIONS-file section an option belongs to."""

    DB = "DBOptions"
    CF = "CFOptions \"default\""
    TABLE = "TableOptions/BlockBasedTable \"default\""


class OptKind(str, enum.Enum):
    """Value type of an option."""

    INT = "int"
    BOOL = "bool"
    FLOAT = "float"
    ENUM = "enum"
    STRING = "string"


@dataclass(frozen=True)
class OptionSpec:
    """Metadata for a single configuration option."""

    name: str
    section: Section
    kind: OptKind
    default: Any
    description: str
    min: int | float | None = None
    max: int | float | None = None
    choices: tuple[str, ...] = ()
    #: Mutable options can be changed on a live DB through
    #: ``DB.set_options``; immutable ones need a reopen. The audit lives
    #: in :data:`IMMUTABLE_OPTIONS` below so the engine and the reference
    #: doc can never disagree.
    mutable: bool = True
    #: Deprecated options parse but are rejected by the safeguard layer.
    deprecated: bool = False
    #: Some options are performance-critical to *not* touch (journaling,
    #: integrity checks); they are on the default blacklist.
    sensitive: bool = False

    def validate(self, value: Any) -> Any:
        """Coerce + range-check ``value``; return the canonical value."""
        coerced = self._coerce(value)
        if self.kind in (OptKind.INT, OptKind.FLOAT):
            if self.min is not None and coerced < self.min:
                raise InvalidOptionValueError(
                    self.name, value, f"below minimum {self.min}"
                )
            if self.max is not None and coerced > self.max:
                raise InvalidOptionValueError(
                    self.name, value, f"above maximum {self.max}"
                )
        if self.kind is OptKind.ENUM and coerced not in self.choices:
            raise InvalidOptionValueError(
                self.name, value, f"not one of {self.choices}"
            )
        return coerced

    def _coerce(self, value: Any) -> Any:
        kind = self.kind
        if kind is OptKind.BOOL:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)) and value in (0, 1):
                return bool(value)
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "1", "yes", "on"):
                    return True
                if lowered in ("false", "0", "no", "off"):
                    return False
            raise InvalidOptionValueError(self.name, value, "expected a boolean")
        if kind is OptKind.INT:
            if isinstance(value, bool):
                raise InvalidOptionValueError(self.name, value, "expected an integer")
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                try:
                    return parse_size(value)
                except OptionError:
                    raise InvalidOptionValueError(
                        self.name, value, "expected an integer"
                    ) from None
            raise InvalidOptionValueError(self.name, value, "expected an integer")
        if kind is OptKind.FLOAT:
            if isinstance(value, bool):
                raise InvalidOptionValueError(self.name, value, "expected a number")
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                try:
                    return float(value.strip())
                except ValueError:
                    raise InvalidOptionValueError(
                        self.name, value, "expected a number"
                    ) from None
            raise InvalidOptionValueError(self.name, value, "expected a number")
        if kind is OptKind.ENUM:
            if isinstance(value, str):
                return value.strip()
            raise InvalidOptionValueError(self.name, value, "expected an enum string")
        # STRING
        if isinstance(value, str):
            return value
        raise InvalidOptionValueError(self.name, value, "expected a string")


def parse_size(text: str) -> int:
    """Parse ``"64MB"``/``"4k"``/``"1073741824"`` into bytes (or a plain int).

    Also accepts negative integers (RocksDB uses -1 for "auto").
    """
    s = text.strip().lower().replace(" ", "")
    if not s:
        raise OptionError("empty size")
    multiplier = 1
    for suffix, mult in (
        ("kib", KiB), ("mib", MiB), ("gib", GiB), ("tib", 1024**4),
        ("kb", KiB), ("mb", MiB), ("gb", GiB), ("tb", 1024**4),
        ("k", KiB), ("m", MiB), ("g", GiB), ("t", 1024**4), ("b", 1),
    ):
        if s.endswith(suffix):
            s = s[: -len(suffix)]
            multiplier = mult
            break
    try:
        base = float(s) if "." in s else int(s)
    except ValueError:
        raise OptionError(f"cannot parse size {text!r}") from None
    return int(base * multiplier)


def format_size(nbytes: int) -> str:
    """Render bytes in the most compact exact unit (for reports)."""
    for unit, mult in (("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if nbytes != 0 and nbytes % mult == 0:
            return f"{nbytes // mult}{unit}"
    return str(nbytes)


def _opt(
    name: str,
    section: Section,
    kind: OptKind,
    default: Any,
    description: str,
    **kw: Any,
) -> OptionSpec:
    return OptionSpec(
        name=name, section=section, kind=kind, default=default,
        description=description, **kw,
    )


_D, _C, _T = Section.DB, Section.CF, Section.TABLE
_I, _B, _F, _E, _S = OptKind.INT, OptKind.BOOL, OptKind.FLOAT, OptKind.ENUM, OptKind.STRING

#: The full option catalog. Order matters only for OPTIONS-file output.
CATALOG: tuple[OptionSpec, ...] = (
    # ------------------------------------------------------------------ DB
    _opt("max_background_jobs", _D, _I, 2,
         "Total budget of concurrent background flush+compaction jobs.",
         min=1, max=64),
    _opt("max_background_compactions", _D, _I, -1,
         "Concurrent compaction jobs; -1 derives from max_background_jobs.",
         min=-1, max=64),
    _opt("max_background_flushes", _D, _I, -1,
         "Concurrent flush jobs; -1 derives from max_background_jobs.",
         min=-1, max=64),
    _opt("max_subcompactions", _D, _I, 1,
         "Split one compaction into up to N parallel subcompactions.",
         min=1, max=32),
    _opt("max_open_files", _D, _I, -1,
         "Table-handle cache capacity; -1 keeps every file open.",
         min=-1, max=1_000_000),
    _opt("bytes_per_sync", _D, _I, 0,
         "Incrementally sync SST writes every N bytes (0 = only at end); "
         "smooths device write bursts at small cost.",
         min=0, max=1 * GiB),
    _opt("wal_bytes_per_sync", _D, _I, 0,
         "Incrementally sync the WAL every N bytes (0 = per write policy).",
         min=0, max=1 * GiB),
    _opt("strict_bytes_per_sync", _D, _B, False,
         "Block writes rather than exceed the bytes_per_sync window."),
    _opt("use_fsync", _D, _B, False,
         "Use fsync instead of fdatasync for durability barriers."),
    _opt("enable_pipelined_write", _D, _B, True,
         "Pipeline WAL append and memtable insert stages."),
    _opt("allow_concurrent_memtable_write", _D, _B, True,
         "Allow multiple writers into the memtable concurrently."),
    _opt("enable_write_thread_adaptive_yield", _D, _B, True,
         "Spin briefly before blocking when joining the write group."),
    _opt("delayed_write_rate", _D, _I, 16 * MiB,
         "Write throughput cap applied while in the slowdown regime.",
         min=64 * KiB, max=4 * GiB),
    _opt("rate_limiter_bytes_per_sec", _D, _I, 0,
         "Token-bucket cap on background I/O bytes/sec (0 = unlimited).",
         min=0, max=16 * GiB),
    _opt("compaction_readahead_size", _D, _I, 2 * MiB,
         "Readahead window for compaction inputs; converts random reads "
         "to sequential on rotational media.",
         min=0, max=256 * MiB),
    _opt("writable_file_max_buffer_size", _D, _I, 1 * MiB,
         "In-memory buffer for SST/WAL writers before hitting the device.",
         min=4 * KiB, max=64 * MiB),
    _opt("db_write_buffer_size", _D, _I, 0,
         "Global cap on all memtables combined (0 = unlimited).",
         min=0, max=64 * GiB),
    _opt("max_total_wal_size", _D, _I, 0,
         "Force flushes once live WALs exceed this many bytes (0 = auto).",
         min=0, max=64 * GiB),
    _opt("manual_wal_flush", _D, _B, False,
         "Only flush the WAL buffer when explicitly asked."),
    _opt("wal_ttl_seconds", _D, _I, 0,
         "Archive lifetime for obsolete WAL files.", min=0, max=10**9),
    _opt("wal_size_limit_mb", _D, _I, 0,
         "Size cap for archived WALs, in MB.", min=0, max=10**9),
    _opt("wal_compression", _D, _E, "none",
         "Compression applied to WAL records.",
         choices=("none", "zstd")),
    _opt("avoid_flush_during_shutdown", _D, _B, False,
         "Skip flushing live memtables at close (loses unflushed data "
         "unless the WAL is intact)."),
    _opt("avoid_flush_during_recovery", _D, _B, False,
         "Do not flush recovered memtables immediately after WAL replay."),
    _opt("use_direct_reads", _D, _B, False,
         "Bypass the OS page cache for user/compaction reads."),
    _opt("use_direct_io_for_flush_and_compaction", _D, _B, False,
         "Bypass the OS page cache for flush/compaction writes."),
    _opt("stats_dump_period_sec", _D, _I, 600,
         "Period for dumping engine statistics to the info log.",
         min=0, max=86_400),
    _opt("stats_persist_period_sec", _D, _I, 600,
         "Period for persisting statistics to the stats history.",
         min=0, max=86_400),
    _opt("dump_malloc_stats", _D, _B, True,
         "Include allocator statistics in stat dumps (adds CPU cost)."),
    _opt("max_manifest_file_size", _D, _I, 1 * GiB,
         "Roll the MANIFEST after this many bytes.",
         min=1 * MiB, max=16 * GiB),
    _opt("delete_obsolete_files_period_micros", _D, _I, 6 * 60 * 60 * 1_000_000,
         "Period of the obsolete-file garbage collection pass.",
         min=0, max=10**15),
    _opt("table_cache_numshardbits", _D, _I, 6,
         "log2 of table-handle cache shard count.", min=0, max=19),
    _opt("random_access_max_buffer_size", _D, _I, 1 * MiB,
         "Max buffer for positional reads on Windows-style IO.",
         min=0, max=64 * MiB),
    _opt("compaction_pri_pool", _D, _E, "low",
         "Thread-pool priority compactions are scheduled at.",
         choices=("low", "bottom", "high")),
    _opt("skip_stats_update_on_db_open", _D, _B, False,
         "Do not scan files to recompute stats when opening."),
    _opt("paranoid_checks", _D, _B, True,
         "Verify checksums and invariants aggressively; turning this off "
         "risks silent corruption.", sensitive=True),
    _opt("flush_verify_memtable_count", _D, _B, True,
         "Cross-check memtable counts during flush scheduling."),
    _opt("track_and_verify_wals_in_manifest", _D, _B, False,
         "Track WAL lifecycle events in the MANIFEST."),
    _opt("disable_wal", _D, _B, False,
         "Disable the write-ahead log entirely. Unsafe: unflushed writes "
         "are lost on crash. Blacklisted by default in ELMo-Tune.",
         sensitive=True),
    _opt("allow_data_loss_on_crash", _D, _B, False,
         "Acknowledge that crash recovery may lose acknowledged writes.",
         sensitive=True),
    _opt("info_log_level", _D, _E, "info",
         "Verbosity of the engine info log.",
         choices=("debug", "info", "warn", "error", "fatal"), sensitive=True),
    _opt("advise_random_on_open", _D, _B, True,
         "posix_fadvise(RANDOM) table files on open."),
    _opt("create_if_missing", _D, _B, True,
         "Create the database directory if absent."),
    _opt("error_if_exists", _D, _B, False,
         "Fail open() if the database already exists."),
    _opt("max_file_opening_threads", _D, _I, 16,
         "Parallelism for opening table files at DB open.", min=1, max=128),
    _opt("enable_thread_tracking", _D, _B, False,
         "Track per-thread operation status (debugging aid)."),
    _opt("allow_mmap_reads", _D, _B, False,
         "mmap() SST files for reads instead of pread."),
    _opt("allow_mmap_writes", _D, _B, False,
         "mmap() files for writes."),
    _opt("use_adaptive_mutex", _D, _B, False,
         "Spin-then-block mutexes for hot locks."),
    _opt("new_table_reader_for_compaction_inputs", _D, _B, False,
         "Use dedicated table readers (own readahead state) in compaction."),
    _opt("persist_stats_to_disk", _D, _B, False,
         "Persist stats history into the database itself."),
    _opt("log_readahead_size", _D, _I, 0,
         "Readahead used when replaying logs at recovery.",
         min=0, max=64 * MiB),
    _opt("write_dbid_to_manifest", _D, _B, False,
         "Record the DB id in the MANIFEST."),
    _opt("avoid_unnecessary_blocking_io", _D, _B, False,
         "Defer file deletions out of critical paths."),
    _opt("lowest_used_cache_tier", _D, _E, "volatile",
         "Lowest cache tier to use for block placement.",
         choices=("volatile", "non_volatile")),
    # ------------------------------------------------- service topology
    _opt("shard_count", _D, _I, 1,
         "Independent DB shards the service layer routes keys over; 1 "
         "runs a single instance (per-shard options apply to each). "
         "Immutable at the DB level; under 'ring' routing the service "
         "applies changes as live shard splits and merges.",
         min=1, max=64),
    _opt("routing_policy", _D, _E, "modulo",
         "How the service maps keys to shards: 'modulo' (FNV-1a mod "
         "shard_count, the static layout) or 'ring' (consistent-hash "
         "ring with virtual nodes; supports live shard split/merge).",
         choices=("modulo", "ring")),
    _opt("virtual_nodes", _D, _I, 16,
         "Virtual nodes per shard on the consistent-hash ring; more "
         "vnodes smooth the key distribution and give splits "
         "finer-grained donor arcs.",
         min=1, max=512),
    _opt("enable_group_commit", _D, _B, True,
         "Coalesce concurrent writers on one shard into a single write "
         "group with one WAL sync boundary (service layer)."),
    _opt("max_write_batch_group_size", _D, _I, 32,
         "Upper bound on writers coalesced into one group commit.",
         min=1, max=1024),
    _opt("replicas_per_shard", _D, _I, 1,
         "Replicas in each shard's group, leader included; 1 runs the "
         "shard as a single node (no replication). Followers apply the "
         "leader's WAL records on their own virtual clock and make the "
         "shard survive a leader crash via lease failover.",
         min=1, max=7),
    _opt("replication_quorum", _D, _I, 1,
         "Acks a write needs before the service acks it: the leader's "
         "WAL sync plus quorum-1 durable follower acks (capped at the "
         "live replica count). 1 acks on the leader alone; higher "
         "values trade write latency for failover durability.",
         min=1, max=7),
    _opt("follower_reads", _D, _B, False,
         "Serve point reads from a follower whose applied sequence is "
         "within the bounded-staleness window, freeing the leader for "
         "writes (replicated shards only)."),
    _opt("lease_timeout_ms", _D, _F, 50.0,
         "Leader lease duration: after a leader crash is detected the "
         "shard stays unavailable until the lease expires on the "
         "virtual clock, then the freshest durable follower is "
         "promoted.",
         min=0.0, max=1e5),
    # ------------------------------------------------------ deprecated DB
    _opt("base_background_compactions", _D, _I, -1,
         "DEPRECATED: superseded by max_background_jobs.",
         min=-1, max=64, deprecated=True),
    _opt("skip_log_error_on_recovery", _D, _B, False,
         "DEPRECATED: recovery mode flags replace this.", deprecated=True),
    _opt("flush_job_count", _D, _I, 1,
         "DEPRECATED: historical alias for flush parallelism; modern "
         "engines derive it from max_background_jobs.",
         min=1, max=64, deprecated=True),
    _opt("purge_redundant_kvs_while_flush", _D, _B, True,
         "DEPRECATED: always on in modern engines.", deprecated=True),
    _opt("table_cache_remove_scan_count_limit", _D, _I, 16,
         "DEPRECATED: no effect since the LRU table cache rewrite.",
         min=0, max=1024, deprecated=True),
    # ------------------------------------------------------------------ CF
    _opt("write_buffer_size", _C, _I, 64 * MiB,
         "Size of one memtable; bigger buffers mean fewer, larger flushes "
         "and less write amplification, at the cost of memory.",
         min=4 * KiB, max=16 * GiB),
    _opt("max_write_buffer_number", _C, _I, 2,
         "Memtables kept in memory (active + immutable); absorbs write "
         "bursts while flushes drain.",
         min=1, max=64),
    _opt("min_write_buffer_number_to_merge", _C, _I, 1,
         "Immutable memtables merged per flush; >1 amortizes flush I/O "
         "for overwrite-heavy loads but delays durability on disk.",
         min=1, max=64),
    _opt("level0_file_num_compaction_trigger", _C, _I, 4,
         "L0 file count that triggers an L0->L1 compaction.",
         min=1, max=256),
    _opt("level0_slowdown_writes_trigger", _C, _I, 20,
         "L0 file count at which writes are throttled.",
         min=1, max=1024),
    _opt("level0_stop_writes_trigger", _C, _I, 36,
         "L0 file count at which writes stop entirely.",
         min=1, max=4096),
    _opt("num_levels", _C, _I, 7,
         "Number of LSM levels.", min=2, max=12),
    _opt("max_bytes_for_level_base", _C, _I, 256 * MiB,
         "Target size of L1.", min=16 * KiB, max=1024 * GiB),
    _opt("max_bytes_for_level_multiplier", _C, _F, 10.0,
         "Size ratio between adjacent levels.", min=2.0, max=100.0),
    _opt("level_compaction_dynamic_level_bytes", _C, _B, False,
         "Size levels from the last level upward (modern default)."),
    _opt("target_file_size_base", _C, _I, 64 * MiB,
         "Target SST size at L1.", min=4 * KiB, max=16 * GiB),
    _opt("target_file_size_multiplier", _C, _I, 1,
         "SST size growth per level.", min=1, max=100),
    _opt("max_compaction_bytes", _C, _I, 64 * MiB * 25,
         "Cap on bytes in one compaction.", min=64 * KiB, max=1024 * GiB),
    _opt("compaction_style", _C, _E, "level",
         "Compaction strategy.", choices=("level", "universal", "fifo")),
    _opt("compaction_pri", _C, _E, "min_overlapping_ratio",
         "File-picking heuristic within a level.",
         choices=("by_compensated_size", "oldest_largest_seq_first",
                  "oldest_smallest_seq_first", "min_overlapping_ratio",
                  "round_robin")),
    _opt("disable_auto_compactions", _C, _B, False,
         "Stop scheduling automatic compactions (L0 grows unboundedly).",
         sensitive=True),
    _opt("compression", _C, _E, "snappy",
         "Compression for non-bottommost levels.",
         choices=("none", "snappy", "lz4", "zlib", "zstd")),
    _opt("bottommost_compression", _C, _E, "disable",
         "Compression override for the last level.",
         choices=("disable", "none", "snappy", "lz4", "zlib", "zstd")),
    _opt("compression_level", _C, _I, 32767,
         "Codec-specific effort level (32767 = codec default).",
         min=-5, max=32767),
    _opt("memtable_factory", _C, _E, "skiplist",
         "Memtable representation.",
         choices=("skiplist", "vector", "hash_skiplist")),
    _opt("memtable_prefix_bloom_size_ratio", _C, _F, 0.0,
         "Fraction of write_buffer_size spent on a memtable bloom filter.",
         min=0.0, max=0.25),
    _opt("memtable_whole_key_filtering", _C, _B, False,
         "Whole-key entries in the memtable bloom filter."),
    _opt("arena_block_size", _C, _I, 0,
         "Allocation granularity inside the memtable arena (0 = auto).",
         min=0, max=256 * MiB),
    _opt("bloom_locality", _C, _I, 0,
         "Cache-local probing for legacy bloom filters.", min=0, max=1),
    _opt("soft_pending_compaction_bytes_limit", _C, _I, 64 * GiB,
         "Pending compaction debt that triggers write slowdown.",
         min=0, max=1024 * GiB),
    _opt("hard_pending_compaction_bytes_limit", _C, _I, 256 * GiB,
         "Pending compaction debt that stops writes.",
         min=0, max=4096 * GiB),
    _opt("ttl", _C, _I, 30 * 24 * 3600,
         "Seconds before an SST is forced through compaction.",
         min=0, max=10**10),
    _opt("periodic_compaction_seconds", _C, _I, 0,
         "Force files through compaction periodically (0 = off).",
         min=0, max=10**10),
    _opt("inplace_update_support", _C, _B, False,
         "Update values in place in the memtable when sizes allow."),
    _opt("inplace_update_num_locks", _C, _I, 10000,
         "Striped locks for in-place updates.", min=1, max=10**7),
    _opt("optimize_filters_for_hits", _C, _B, False,
         "Skip bloom filters on the last level (saves memory when most "
         "reads hit)."),
    _opt("paranoid_file_checks", _C, _B, False,
         "Re-verify every file written before install."),
    _opt("report_bg_io_stats", _C, _B, False,
         "Account background I/O in compaction stats."),
    _opt("max_sequential_skip_in_iterations", _C, _I, 8,
         "Iterator reseek threshold after sequential skips.",
         min=0, max=10**9),
    _opt("memtable_huge_page_size", _C, _I, 0,
         "Huge-page size hint for memtable arena (0 = off).",
         min=0, max=1 * GiB),
    _opt("max_successive_merges", _C, _I, 0,
         "Merge-operand collapsing bound in the memtable.",
         min=0, max=10**6),
    _opt("check_flush_compaction_key_order", _C, _B, True,
         "Verify key order during flush/compaction.", sensitive=True),
    _opt("force_consistency_checks", _C, _B, True,
         "Verify LSM structural invariants on version edits.",
         sensitive=True),
    _opt("prefix_extractor", _C, _S, "nullptr",
         "Prefix extractor spec, e.g. 'fixed:8'; enables prefix bloom and "
         "hash index paths."),
    _opt("compaction_readahead_hint", _C, _I, 0,
         "Advisory per-CF readahead override (0 = use DB setting).",
         min=0, max=256 * MiB),
    # -------------------------------------------------------- deprecated CF
    _opt("max_mem_compaction_level", _C, _I, 2,
         "DEPRECATED: pre-universal-compaction relic.",
         min=0, max=7, deprecated=True),
    _opt("soft_rate_limit", _C, _F, 0.0,
         "DEPRECATED: replaced by delayed_write_rate.",
         min=0.0, max=100.0, deprecated=True),
    _opt("hard_rate_limit", _C, _F, 0.0,
         "DEPRECATED: replaced by the write controller.",
         min=0.0, max=100.0, deprecated=True),
    _opt("rate_limit_delay_max_milliseconds", _C, _I, 100,
         "DEPRECATED: replaced by the write controller.",
         min=0, max=10**6, deprecated=True),
    # --------------------------------------------------------------- TABLE
    _opt("block_size", _T, _I, 4 * KiB,
         "Uncompressed data-block payload target.",
         min=1 * KiB, max=4 * MiB),
    _opt("block_size_deviation", _T, _I, 10,
         "Percent slack before closing a block early.", min=0, max=100),
    _opt("block_restart_interval", _T, _I, 16,
         "Keys between restart points inside a data block.",
         min=1, max=256),
    _opt("index_block_restart_interval", _T, _I, 1,
         "Restart interval for index blocks.", min=1, max=256),
    _opt("metadata_block_size", _T, _I, 4 * KiB,
         "Partitioned index/filter block size.", min=1 * KiB, max=1 * MiB),
    _opt("block_cache_size", _T, _I, 8 * MiB,
         "Capacity of the shared uncompressed block cache.",
         min=0, max=1024 * GiB),
    _opt("block_cache_numshardbits", _T, _I, 6,
         "log2 of block-cache shard count.", min=0, max=19),
    _opt("no_block_cache", _T, _B, False,
         "Disable the block cache entirely (every read hits the device).",
         sensitive=True),
    _opt("cache_index_and_filter_blocks", _T, _B, False,
         "Charge index/filter blocks to the block cache instead of "
         "pinning them on the heap."),
    _opt("cache_index_and_filter_blocks_with_high_priority", _T, _B, True,
         "Protect cached index/filter blocks from scan churn."),
    _opt("pin_l0_filter_and_index_blocks_in_cache", _T, _B, False,
         "Pin L0 metadata blocks so hot point reads never miss on them."),
    _opt("pin_top_level_index_and_filter", _T, _B, True,
         "Pin the top level of partitioned metadata."),
    _opt("bloom_filter_bits_per_key", _T, _F, -1.0,
         "Bloom filter budget; -1 disables filters (db_bench default), "
         "10 gives ~1% false positives, 14+ approaches zero.",
         min=-1.0, max=30.0),
    _opt("whole_key_filtering", _T, _B, True,
         "Add whole keys (not just prefixes) to the bloom filter."),
    _opt("partition_filters", _T, _B, False,
         "Partition the bloom filter into cacheable sub-blocks."),
    _opt("index_type", _T, _E, "binary_search",
         "SST index structure.",
         choices=("binary_search", "hash_search", "two_level")),
    _opt("data_block_index_type", _T, _E, "binary_search",
         "Intra-block point-lookup index.",
         choices=("binary_search", "binary_search_and_hash")),
    _opt("data_block_hash_table_util_ratio", _T, _F, 0.75,
         "Load factor for the intra-block hash index.", min=0.1, max=1.0),
    _opt("format_version", _T, _I, 5,
         "SST format version.", min=2, max=6),
    _opt("checksum", _T, _E, "crc32c",
         "Per-block checksum algorithm.",
         choices=("none", "crc32c", "xxhash", "xxhash64", "xxh3")),
    _opt("verify_compression", _T, _B, False,
         "Round-trip verify compressed blocks while building tables."),
    _opt("read_amp_bytes_per_bit", _T, _I, 0,
         "Track read amplification bitmap at this granularity (0 = off).",
         min=0, max=1 * MiB),
    _opt("enable_index_compression", _T, _B, True,
         "Compress index blocks."),
    _opt("block_align", _T, _B, False,
         "Align uncompressed blocks to device pages."),
    _opt("optimize_filters_for_memory", _T, _B, False,
         "Shape bloom filters to malloc bin sizes."),
)

#: The live-reconfiguration audit: options ``DB.set_options`` cannot
#: apply because a running engine resolved them into structure at open.
#: Everything else in the catalog is mutable — either read live on every
#: use (compaction triggers, level sizing), applied to freshly-built
#: artifacts (compression, bloom bits on new tables), or rebound by the
#: ``set_options`` fan-out (write-controller thresholds, cache
#: capacities, rate limits, memtable threshold, perf-model constants).
IMMUTABLE_OPTIONS: frozenset[str] = frozenset({
    # write-path threading shape is fixed when the write path is built
    "enable_pipelined_write",
    "allow_concurrent_memtable_write",
    "enable_write_thread_adaptive_yield",
    # WAL existence, format, and lifecycle tracking are decided at open
    "disable_wal",
    "manual_wal_flush",
    "wal_compression",
    "track_and_verify_wals_in_manifest",
    # open/recovery-time behavior — there is nothing left to apply it to
    "avoid_flush_during_recovery",
    "skip_stats_update_on_db_open",
    "create_if_missing",
    "error_if_exists",
    "max_file_opening_threads",
    "log_readahead_size",
    # I/O mode of already-open file handles cannot be switched
    "use_direct_reads",
    "use_direct_io_for_flush_and_compaction",
    "allow_mmap_reads",
    "allow_mmap_writes",
    "advise_random_on_open",
    "use_adaptive_mutex",
    "new_table_reader_for_compaction_inputs",
    "random_access_max_buffer_size",
    # integrity stance is a promise made at open
    "paranoid_checks",
    "allow_data_loss_on_crash",
    # manifest / stats persistence structure
    "max_manifest_file_size",
    "write_dbid_to_manifest",
    "persist_stats_to_disk",
    "enable_thread_tracking",
    # cache topology (capacities are mutable; shard layout is not)
    "table_cache_numshardbits",
    "lowest_used_cache_tier",
    # service topology: a DB-level set_options cannot reshuffle key
    # ownership (or the commit protocol) on a running engine. The
    # *service* layer intercepts shard_count under ring routing and
    # applies it as a live split/merge; the policy and vnode layout
    # themselves are fixed at open.
    "shard_count",
    "routing_policy",
    "virtual_nodes",
    "enable_group_commit",
    "max_write_batch_group_size",
    # replica-group shape and the lease protocol are fixed at open;
    # replication_quorum and follower_reads stay mutable so the online
    # tuner can trade durability/staleness for tail latency mid-run.
    "replicas_per_shard",
    "lease_timeout_ms",
    # tree shape and comparator-adjacent structure
    "num_levels",
    "compaction_style",
    "level_compaction_dynamic_level_bytes",
    "memtable_factory",
    "inplace_update_support",
    "prefix_extractor",
    # block cache existence/sharding and SST on-disk format
    "block_cache_numshardbits",
    "no_block_cache",
    "cache_index_and_filter_blocks",
    "cache_index_and_filter_blocks_with_high_priority",
    "pin_l0_filter_and_index_blocks_in_cache",
    "pin_top_level_index_and_filter",
    "index_type",
    "data_block_index_type",
    "data_block_hash_table_util_ratio",
    "format_version",
    "checksum",
})

# The catalog declares every spec with the default ``mutable=True``;
# stamp the audited flag here. Deprecated options are immutable by
# definition (set_options rejects them before mutability is consulted).
CATALOG = tuple(
    replace(spec, mutable=False)
    if (spec.name in IMMUTABLE_OPTIONS or spec.deprecated)
    else spec
    for spec in CATALOG
)

_BY_NAME: dict[str, OptionSpec] = {spec.name: spec for spec in CATALOG}

assert len(_BY_NAME) == len(CATALOG), "duplicate option names in catalog"
assert IMMUTABLE_OPTIONS <= set(_BY_NAME), "immutable audit names unknown option"


def spec_for(name: str) -> OptionSpec:
    """Look up the spec for ``name`` or raise :class:`UnknownOptionError`."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownOptionError(name) from None


def known_option(name: str) -> bool:
    return name in _BY_NAME


def sensitive_option_names() -> tuple[str, ...]:
    """Options on ELMo-Tune's default blacklist."""
    return tuple(s.name for s in CATALOG if s.sensitive)


def mutable_option_names() -> tuple[str, ...]:
    """Options a live DB accepts through ``DB.set_options``."""
    return tuple(s.name for s in CATALOG if s.mutable)


def ensure_mutable(name: str) -> OptionSpec:
    """Spec lookup that also enforces live mutability.

    Raises :class:`UnknownOptionError` for names outside the catalog,
    :class:`DeprecatedOptionError` for deprecated options, and
    :class:`ImmutableOptionError` for open-time-only options.
    """
    spec = spec_for(name)
    if spec.deprecated:
        raise DeprecatedOptionError(name)
    if not spec.mutable:
        raise ImmutableOptionError(name)
    return spec


class Options:
    """A validated bag of option values over the catalog.

    Unset options report their defaults. Attribute access is provided
    for the engine's convenience (``opts.write_buffer_size``); name-based
    access (:meth:`get`/:meth:`set`) is what the tuner uses.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Any] | None = None) -> None:
        object.__setattr__(self, "_values", {})
        if values:
            for name, value in values.items():
                self.set(name, value)

    # -- mapping-ish API ---------------------------------------------------

    def get(self, name: str) -> Any:
        spec = spec_for(name)
        return self._values.get(name, spec.default)

    def set(self, name: str, value: Any) -> None:
        """Validate and store one option value.

        Deprecated options are storable (an OPTIONS file from an old
        version must still load); the safeguard layer decides whether
        the *tuner* may touch them.
        """
        self._values[name] = spec_for(name).validate(value)

    def unset(self, name: str) -> None:
        """Revert one option to its default."""
        spec_for(name)
        self._values.pop(name, None)

    def is_set(self, name: str) -> bool:
        spec_for(name)
        return name in self._values

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.get(name)
        except UnknownOptionError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: Any) -> None:
        self.set(name, value)

    def __getstate__(self) -> dict[str, Any]:
        # Slots + the catalog-routing __setattr__ break default pickling
        # (slot restore would go through set()); pickle the overrides.
        return dict(self._values)

    def __setstate__(self, state: dict[str, Any]) -> None:
        object.__setattr__(self, "_values", dict(state))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Options):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Options({len(self._values)} overrides)"

    def items(self) -> Iterator[tuple[str, Any]]:
        """Iterate (name, effective value) over the whole catalog."""
        for spec in CATALOG:
            yield spec.name, self.get(spec.name)

    def overrides(self) -> dict[str, Any]:
        """Only the values that differ from storage (explicitly set)."""
        return dict(self._values)

    def as_dict(self) -> dict[str, Any]:
        """Every option's effective value."""
        return {name: value for name, value in self.items()}

    def copy(self) -> "Options":
        clone = Options()
        clone._values.update(self._values)
        return clone

    def diff(self, other: "Options") -> dict[str, tuple[Any, Any]]:
        """Options whose effective value differs: name -> (self, other)."""
        out: dict[str, tuple[Any, Any]] = {}
        for name, mine in self.items():
            theirs = other.get(name)
            if mine != theirs:
                out[name] = (mine, theirs)
        return out

    # -- derived/effective values used by the engine -----------------------

    def effective_max_background_flushes(self) -> int:
        """Resolve -1 to the RocksDB rule: ~1/4 of the job budget."""
        v = self.get("max_background_flushes")
        if v > 0:
            return v
        return max(1, self.get("max_background_jobs") // 4)

    def effective_max_background_compactions(self) -> int:
        v = self.get("max_background_compactions")
        if v > 0:
            return v
        return max(1, self.get("max_background_jobs")
                   - self.effective_max_background_flushes())

    def memtable_budget_bytes(self) -> int:
        """Memory committed to memtables under this configuration."""
        return self.get("write_buffer_size") * self.get("max_write_buffer_number")

    def memory_budget_bytes(self) -> int:
        """Total configured memory footprint (memtables + block cache)."""
        return self.memtable_budget_bytes() + self.get("block_cache_size")

    def bloom_enabled(self) -> bool:
        return self.get("bloom_filter_bits_per_key") > 0

    def level_target_bytes(self, level: int) -> int:
        """Target size of ``level`` under the leveled size schedule."""
        if level <= 0:
            return 0
        base = self.get("max_bytes_for_level_base")
        mult = self.get("max_bytes_for_level_multiplier")
        return int(base * (mult ** (level - 1)))

    def target_file_size(self, level: int) -> int:
        base = self.get("target_file_size_base")
        mult = self.get("target_file_size_multiplier")
        return int(base * (mult ** max(0, level - 1)))


#: Byte-denominated options that shrink together when an experiment runs
#: a scaled-down dataset (see ``DB.open(byte_scale=...)``). Scaling these
#: by the same factor as the dataset preserves flush/compaction/stall
#: dynamics while the OPTIONS file (and Table 5) keep paper-unit values.
BYTE_SCALED_OPTIONS: tuple[str, ...] = (
    "write_buffer_size",
    "db_write_buffer_size",
    "max_total_wal_size",
    "block_cache_size",
    "max_bytes_for_level_base",
    "target_file_size_base",
    "max_compaction_bytes",
    "bytes_per_sync",
    "wal_bytes_per_sync",
    "compaction_readahead_size",
    "soft_pending_compaction_bytes_limit",
    "hard_pending_compaction_bytes_limit",
    "writable_file_max_buffer_size",
)
# Note: delayed_write_rate and rate_limiter_bytes_per_sec are bytes per
# *second* — virtual time is never scaled, and per-op byte rates match
# the paper's (same value sizes, same op costs), so rates stay unscaled.


def scale_bytes(options: Options, factor: float) -> Options:
    """Return a copy with byte-denominated options scaled by ``factor``.

    Values are clamped to each option's minimum, so extreme factors stay
    valid. ``factor=1`` returns a plain copy.
    """
    if factor <= 0:
        raise ValueError("byte scale factor must be positive")
    scaled = options.copy()
    for name in BYTE_SCALED_OPTIONS:
        value = options.get(name)
        if not value:
            continue  # 0 and -1 are semantic (off/auto), never scale
        scaled.set(name, scale_byte_value(name, value, factor))
    return scaled


def scale_byte_value(name: str, value: Any, factor: float) -> Any:
    """Scale one option value exactly like :func:`scale_bytes` would.

    Non-byte-denominated options and semantic zero/-1 values pass
    through unchanged, so ``DB.set_options`` can apply a paper-unit diff
    to a byte-scaled live configuration one value at a time.
    """
    if name not in BYTE_SCALED_OPTIONS or not value:
        return value
    spec = spec_for(name)
    new = int(value * factor)
    if spec.min is not None:
        new = max(int(spec.min), new)
    if spec.max is not None:
        new = min(int(spec.max), new)
    return new
