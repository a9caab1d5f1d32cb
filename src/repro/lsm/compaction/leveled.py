"""Leveled compaction execution: sorted merge with version GC.

Merges the input tables in internal-key order, keeps only the newest
version of each user key, drops tombstones when the output is the
bottommost populated level, and splits outputs at the per-level target
file size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from repro.lsm.compaction.picker import Compaction
from repro.lsm.snapshot import SnapshotList, may_drop_version
from repro.lsm.sstable import FileMetaData, ReadStats, SSTableBuilder, SSTableReader


@dataclass
class CompactionResult:
    """Everything the DB needs to install and price a finished compaction."""

    new_files: list[FileMetaData]
    bytes_read: int
    bytes_written: int
    entries_merged: int
    entries_dropped: int
    read_stats: ReadStats = field(default_factory=ReadStats)


def run_compaction(
    compaction: Compaction,
    readers: list[SSTableReader],
    target_file_size: int,
    *,
    new_table_path: Callable[[], str],
    open_builder: Callable[[str, int], SSTableBuilder],
    bottommost: bool,
    snapshots: "SnapshotList | None" = None,
) -> CompactionResult:
    """Execute ``compaction`` over already-open ``readers``.

    ``open_builder(path, output_level)`` lets the DB apply per-level
    build options (compression, bloom bits); ``target_file_size`` is
    the output level's split size. Output files are written but *not*
    installed; the caller applies the version edit.
    """
    # L0 outputs (universal-style merges) must stay ONE sorted run:
    # splitting them would multiply the run count every merge and the
    # compaction loop would never converge.
    target_size = (
        1 << 62 if compaction.output_level == 0 else target_file_size
    )
    stats = ReadStats()
    new_files: list[FileMetaData] = []
    bytes_written = 0
    entries_merged = 0
    entries_dropped = 0
    no_snapshots = snapshots is None or len(snapshots) == 0
    drop_tombstones = bottommost and no_snapshots

    def live_entries():
        """Merged entries with GC applied (version shadowing, bottommost
        tombstone drops).

        Same-user-key detection compares ``internal_key[:-8]`` prefixes
        (escaped user key + terminator): the terminator occurs only as
        the terminator, so equal prefixes == equal user keys and no
        entry needs decoding. Sequences are extracted from the key tail
        only when live snapshots make the drop decision depend on them.
        """
        nonlocal entries_merged, entries_dropped
        last_prefix: bytes | None = None
        last_internal = b""
        # Materialize-and-sort instead of a k-way heap merge: the inputs
        # are k sorted runs, which timsort merges with ~n C-level key
        # comparisons — far cheaper than per-entry heap churn plus three
        # generator resumes. Internal keys are unique (embedded seqnos),
        # so the resulting order is identical to the heap merge's. The
        # entries stay in packed block encoding end to end (see
        # ``read_packed``/``add_many_packed``); ``packed[0]`` is the
        # kind byte (0 == DELETE). Each surviving entry is yielded as the
        # tuple the merge holds, which a builder keeping its blocks keeps.
        merged: list[tuple[bytes, bytes]] = []
        for reader in readers:
            merged += reader.read_packed(stats=stats)
        if len(readers) > 1:
            merged.sort(key=itemgetter(0))
        for entry in merged:
            internal_key, packed = entry
            entries_merged += 1
            prefix = internal_key[:-8]
            if prefix == last_prefix:
                if no_snapshots:
                    entries_dropped += 1  # shadowed older version
                    continue
                newer_seq = 0xFFFFFFFFFFFFFFFF - int.from_bytes(
                    last_internal[-8:], "big"
                )
                older_seq = 0xFFFFFFFFFFFFFFFF - int.from_bytes(
                    internal_key[-8:], "big"
                )
                if may_drop_version(newer_seq, older_seq, snapshots):
                    entries_dropped += 1  # no snapshot needs this version
                    continue
            last_prefix = prefix
            last_internal = internal_key
            if drop_tombstones and packed[0] == 0:
                entries_dropped += 1  # tombstone reached the bottom
                continue
            yield entry

    entries = live_entries()
    first = next(entries, None)
    while first is not None:
        builder = open_builder(new_table_path(), compaction.output_level)
        builder.add_packed(*first)
        # Cuts fall only where the user key changes: see add_many_packed.
        first = builder.add_many_packed(entries, split_size=target_size)
        meta = builder.finish()
        bytes_written += meta.file_size
        new_files.append(meta)
    bytes_read = compaction.input_bytes
    return CompactionResult(
        new_files=new_files,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        entries_merged=entries_merged,
        entries_dropped=entries_dropped,
        read_stats=stats,
    )
