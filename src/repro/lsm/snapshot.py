"""Snapshots: consistent point-in-time read views.

A snapshot pins a sequence number; reads through it see exactly the
versions visible at acquisition time. Flush and compaction must then
retain any version that is the newest one visible to *some* live
snapshot — the classic LSM version-GC rule.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.errors import DBError


@dataclass(frozen=True)
class Snapshot:
    """A pinned read view. Release via :meth:`SnapshotList.release` or
    by using the DB's ``snapshot()`` context manager.

    Release is idempotent *per handle*: an explicit ``snap.release()``
    followed by the context manager's ``__exit__`` is a no-op, not a
    crash. Releasing a handle the list never acquired still raises.
    """

    sequence: int
    _list: "SnapshotList" = field(repr=False, compare=False)
    #: Set by SnapshotList.release the first time this handle is
    #: released; later releases of the same handle are no-ops.
    _released: bool = field(default=False, repr=False, compare=False)

    def release(self) -> None:
        self._list.release(self)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class SnapshotList:
    """Reference-counted multiset of live snapshot sequence numbers."""

    def __init__(self) -> None:
        self._seqs: list[int] = []  # sorted, with duplicates

    def __len__(self) -> int:
        return len(self._seqs)

    def acquire(self, sequence: int) -> Snapshot:
        bisect.insort(self._seqs, sequence)
        return Snapshot(sequence=sequence, _list=self)

    def release(self, snapshot: Snapshot) -> None:
        if snapshot._released:
            return  # double-release of the same handle is a no-op
        idx = bisect.bisect_left(self._seqs, snapshot.sequence)
        if idx >= len(self._seqs) or self._seqs[idx] != snapshot.sequence:
            raise DBError("snapshot already released")
        del self._seqs[idx]
        # The dataclass is frozen so reads can't mutate it by accident;
        # the list is the one sanctioned writer of the release mark.
        object.__setattr__(snapshot, "_released", True)

    def freeze(self) -> "SnapshotList":
        """A detached copy of the current snapshot set.

        Background flush/compaction jobs capture the snapshot floor at
        schedule time; a frozen copy makes the GC decision independent
        of snapshots acquired or released while the job is in flight.
        """
        frozen = SnapshotList()
        frozen._seqs = list(self._seqs)
        return frozen

    def oldest(self) -> int | None:
        return self._seqs[0] if self._seqs else None

    def has_snapshot_in(self, lo: int, hi: int) -> bool:
        """Any live snapshot s with lo <= s < hi?"""
        if lo >= hi:
            return False
        idx = bisect.bisect_left(self._seqs, lo)
        return idx < len(self._seqs) and self._seqs[idx] < hi


def may_drop_version(
    newer_seq: int, older_seq: int, snapshots: "SnapshotList | None"
) -> bool:
    """May the version at ``older_seq`` be dropped given a newer version
    at ``newer_seq`` exists for the same user key?

    Droppable unless some live snapshot sees the older version as its
    newest (i.e. a snapshot s with older_seq <= s < newer_seq).
    """
    if snapshots is None or len(snapshots) == 0:
        return True
    return not snapshots.has_snapshot_in(older_seq, newer_seq)
