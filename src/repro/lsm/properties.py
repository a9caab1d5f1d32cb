"""RocksDB-style DB property strings.

``db.get_property("pylsm.stats")`` etc. — the string-keyed inspection
API administrators (and tuning prompts) rely on. Property names mirror
RocksDB's ``rocksdb.*`` family with a ``pylsm.`` prefix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.lsm.db import DB


def _num_files_at_level(db: "DB", level: int) -> str:
    return str(db.version.num_files(level))


def _levelstats(db: "DB") -> str:
    return db.version.describe()


def _stats(db: "DB") -> str:
    return db.statistics.describe()


def _estimate_num_keys(db: "DB") -> str:
    live = sum(f.num_entries for f in db.version.all_files())
    live += sum(m.num_entries for m in db.memtables)
    return str(live)


def _cur_size_all_mem_tables(db: "DB") -> str:
    return str(sum(m.approximate_memory_usage for m in db.memtables))


def _num_immutable_mem_table(db: "DB") -> str:
    return str(db.num_immutable_memtables)


def _block_cache_usage(db: "DB") -> str:
    return str(db.block_cache.used_bytes)


def _block_cache_capacity(db: "DB") -> str:
    return str(db.block_cache.capacity_bytes)


def _total_sst_files_size(db: "DB") -> str:
    return str(db.approximate_size())


def _num_snapshots(db: "DB") -> str:
    return str(db.live_snapshots)


def _num_live_versions(db: "DB") -> str:
    return str(db.version.num_files())


def _background_errors(db: "DB") -> str:
    return "0"


_SIMPLE: dict[str, Callable[["DB"], str]] = {
    "pylsm.levelstats": _levelstats,
    "pylsm.stats": _stats,
    "pylsm.estimate-num-keys": _estimate_num_keys,
    "pylsm.cur-size-all-mem-tables": _cur_size_all_mem_tables,
    "pylsm.num-immutable-mem-table": _num_immutable_mem_table,
    "pylsm.block-cache-usage": _block_cache_usage,
    "pylsm.block-cache-capacity": _block_cache_capacity,
    "pylsm.total-sst-files-size": _total_sst_files_size,
    "pylsm.num-snapshots": _num_snapshots,
    "pylsm.num-live-versions": _num_live_versions,
    "pylsm.background-errors": _background_errors,
}

_LEVEL_PREFIX = "pylsm.num-files-at-level"


def get_property(db: "DB", name: str) -> str | None:
    """Resolve one property; returns None for unknown names (RocksDB
    convention: absent, not an error)."""
    handler = _SIMPLE.get(name)
    if handler is not None:
        return handler(db)
    if name.startswith(_LEVEL_PREFIX):
        suffix = name[len(_LEVEL_PREFIX):]
        try:
            level = int(suffix)
        except ValueError:
            return None
        if 0 <= level < db.version.num_levels:
            return _num_files_at_level(db, level)
        return None
    return None


def known_properties() -> tuple[str, ...]:
    """All fixed property names (level-indexed ones are dynamic)."""
    return tuple(sorted(_SIMPLE))
