"""Merged DB iterator: memtables + every level, user-visible view.

Merges all sources in internal-key order, collapses versions (newest
wins), and hides tombstones — producing the (user_key, value) stream a
Scan sees. A memtable's source is :meth:`MemTable.seek`, which already
speaks the merge protocol.

:func:`lazy_merge` is the pruning k-way merge behind ``DB.iterator()``
(and the repo's only heap merge: flush and compaction materialise and
sort instead). A source is an already-open iterator, which pays its
first pull up front, or a :class:`DeferredSource` — a *lower bound* on
the first internal key the source can produce, plus a thunk that opens
it. The bound sits in the heap like a real entry; only when it reaches
the top (i.e. the merge actually needs data from that key range) is the
source opened and its first entry pulled. A bounded scan that stops
early never opens the sources whose bounds it never reached — no table
opens, no index reads, no block fetches for them.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator

from repro.lsm import ikey as ikey_mod
from repro.lsm.memtable import Entry, ValueKind
from repro.lsm.sstable import FileMetaData

#: Heap-entry state tags: a _REAL entry carries a pulled (key, kind,
#: value); a _PENDING entry carries only a DeferredSource's lower bound.
_REAL = 0
_PENDING = 1


class DeferredSource:
    """A merge source that opens only when the heap first needs it.

    ``bound`` must be an *internal* key <= every entry the source can
    yield; ``open_fn`` materializes the entry iterator. Sources whose
    bound the merge never reaches are never opened at all.
    """

    __slots__ = ("bound", "open_fn")

    def __init__(self, bound: bytes, open_fn: Callable[[], Iterator[Entry]]):
        self.bound = bound
        self.open_fn = open_fn


def file_source(
    meta: FileMetaData,
    open_fn: Callable[[], Iterator[Entry]],
    start: bytes | None = None,
) -> DeferredSource:
    """Deferred per-file source (L0): its bound is the first user key the
    file can contribute, so files above the scan's stopping point are
    never opened."""
    lo = meta.smallest_key
    if start is not None and start > lo:
        lo = start
    return DeferredSource(ikey_mod.seek_key(lo), open_fn)


def concat_source(
    files: list[FileMetaData],
    open_fn: Callable[[FileMetaData], Iterator[Entry]],
    start: bytes | None = None,
    end: bytes | None = None,
) -> DeferredSource | None:
    """Deferred concatenation of a sorted, non-overlapping run (L1+).

    The whole run enters the heap as *one* bound (the first key of the
    first candidate file); once opened, files are walked strictly one at
    a time in key order, stopping before any file wholly past the
    exclusive ``end`` bound. ``files`` must already be pruned at the
    front (first file's ``largest_key >= start``); use
    ``Version.files_from`` for that.
    """
    if not files:
        return None
    lo = files[0].smallest_key
    if start is not None and start > lo:
        lo = start

    def entries() -> Iterator[Entry]:
        for meta in files:
            if end is not None and meta.smallest_key >= end:
                break
            yield from open_fn(meta)

    return DeferredSource(ikey_mod.seek_key(lo), entries)


def lazy_merge(
    sources: Iterable[Iterator[Entry] | DeferredSource],
) -> Iterator[Entry]:
    """K-way merge by internal key with deferred source opening.

    A plain iterator source pays its first pull up front. Internal keys
    are unique (embedded sequence numbers), so the order is total.
    A :class:`DeferredSource` enters the heap as its lower bound and is
    opened only when that bound becomes the heap minimum: every entry
    the merge yields before then is provably smaller than anything the
    deferred source could produce, so the open is safe to postpone —
    and skipped entirely if the consumer stops first.
    """
    heap: list[tuple] = []
    for idx, source in enumerate(sources):
        if isinstance(source, DeferredSource):
            heap.append((source.bound, idx, _PENDING, None, None, source))
        else:
            first = next(source, None)
            if first is not None:
                key, kind, value = first
                heap.append((key, idx, _REAL, kind, value, source))
    heapq.heapify(heap)
    while heap:
        key, idx, state, kind, value, source = heap[0]
        if state == _PENDING:
            opened = source.open_fn()
            first = next(opened, None)
            if first is None:
                heapq.heappop(heap)
            else:
                nkey, nkind, nvalue = first
                # The first real entry is >= the bound, so replacing the
                # top preserves the heap invariant.
                heapq.heapreplace(heap, (nkey, idx, _REAL, nkind, nvalue, opened))
            continue
        yield key, kind, value
        nxt = next(source, None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            nkey, nkind, nvalue = nxt
            heapq.heapreplace(heap, (nkey, idx, _REAL, nkind, nvalue, source))


def user_view(
    merged: Iterator[Entry],
    snapshot_seq: int | None = None,
    end: bytes | None = None,
) -> Iterator[tuple[bytes, bytes]]:
    """Collapse versions and hide tombstones.

    With ``snapshot_seq``, versions newer than the snapshot are invisible
    and the newest remaining version per key wins. With ``end``, the view
    stops before the first user key >= end (exclusive upper bound),
    abandoning the merge without draining it.
    """
    last_user: bytes | None = None
    for internal, kind, value in merged:
        user_key, seq = ikey_mod.decode(internal)
        if end is not None and user_key >= end:
            return
        if snapshot_seq is not None and seq > snapshot_seq:
            continue
        if user_key == last_user:
            continue
        last_user = user_key
        if kind is ValueKind.DELETE:
            continue
        yield user_key, value
