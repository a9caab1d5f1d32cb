"""Flush job: immutable memtables -> one L0 SSTable."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from repro.lsm.memtable import MemTable
from repro.lsm.snapshot import SnapshotList, may_drop_version
from repro.lsm.sstable import FileMetaData, SSTableBuilder


@dataclass
class FlushResult:
    """Outcome of flushing a batch of immutable memtables."""

    file_meta: FileMetaData | None
    bytes_in: int
    bytes_out: int
    entries_in: int
    entries_out: int
    #: Highest sequence number in the flushed batch. Once the flush's
    #: VersionEdit is synced to the MANIFEST, everything at or below
    #: this sequence that lived in the batch is durable without the WAL
    #: (the durability source when ``disable_wal`` is set).
    last_sequence: int = 0


def run_flush(
    memtables: list[MemTable],
    open_builder: Callable[[], SSTableBuilder],
    snapshots: "SnapshotList | None" = None,
) -> FlushResult:
    """Write the merged contents of ``memtables`` into one new table.

    Shadowed duplicate versions *within the batch* are collapsed (the
    newest wins) unless a live snapshot still sees them; tombstones are
    kept — they still shadow older levels.
    """
    if not memtables:
        raise ValueError("flush needs at least one memtable")
    bytes_in = sum(mt.approximate_memory_usage for mt in memtables)
    entries_in = sum(mt.num_entries for mt in memtables)
    builder: SSTableBuilder | None = None
    no_snapshots = snapshots is None or len(snapshots) == 0
    max_seq = max(mt.last_seq for mt in memtables)
    entries_out = 0

    def live_entries():
        """Merged entries with shadowed versions collapsed.

        Materialize-and-sort, as ``run_compaction`` does: each memtable
        is a sorted run and internal keys are unique (embedded seqnos),
        so timsort merges the runs into the one possible order.
        Same-user-key detection compares ``internal[:-8]`` prefixes
        (escaped user key + terminator): the terminator appears only as
        the terminator, so equal prefixes == equal user keys; sequences
        are only extracted (cheaply, from the key tail) when a live
        snapshot makes the drop decision depend on them.
        """
        nonlocal entries_out
        last_prefix: bytes | None = None
        last_internal = b""
        if len(memtables) == 1:
            merged = memtables[0].view()
        else:
            merged = sorted(
                (e for mt in memtables for e in mt.view()), key=itemgetter(0)
            )
        for internal, kind, value in merged:
            prefix = internal[:-8]
            if prefix == last_prefix:
                # Newer version already emitted; droppable unless a
                # snapshot still needs this one.
                if no_snapshots:
                    continue
                newer_seq = 0xFFFFFFFFFFFFFFFF - int.from_bytes(
                    last_internal[-8:], "big"
                )
                older_seq = 0xFFFFFFFFFFFFFFFF - int.from_bytes(
                    internal[-8:], "big"
                )
                if may_drop_version(newer_seq, older_seq, snapshots):
                    continue
            last_prefix = prefix
            last_internal = internal
            entries_out += 1
            yield internal, kind, value

    if len(memtables) == 1 and no_snapshots:
        # Single memtable, no snapshots (the common rotation): the
        # memtable's per-key version lists already group shadowed
        # versions, so ask it for just the newest per user key — same
        # entry stream as the generic merge+dedupe below, minus the
        # sorted version view, the prefix compares, and the shadowed
        # encodes.
        mt = memtables[0]
        entries = mt.newest_entries()
        entries_out = mt.unique_keys
    else:
        entries = live_entries()
    first = next(entries, None)
    if first is not None:
        builder = open_builder()
        builder.add(*first)
        builder.add_many(entries)
    if builder is None:
        result = FlushResult(None, bytes_in, 0, entries_in, 0, last_sequence=max_seq)
    else:
        meta = builder.finish()
        result = FlushResult(
            file_meta=meta,
            bytes_in=bytes_in,
            bytes_out=meta.file_size,
            entries_in=entries_in,
            entries_out=entries_out,
            last_sequence=max_seq,
        )
    return result
