"""MemTable: the in-memory write buffer.

A memtable maps internal keys (user key + sequence number + kind) to
values, tracks its approximate memory footprint against
``write_buffer_size``, and optionally carries a prefix/whole-key bloom
filter (``memtable_prefix_bloom_size_ratio``).

Representation: writes land in a per-user-key version map (one dict
lookup + list append per ``add`` — the fillrandom hot path), and the
internal-key-ordered view that flushes and iterators need is built
lazily by encoding + sorting once. Once a view exists, ``add`` also
notes the entry, and the next reader merges just those entries into a
*new* list (bisect + slice copies), so a scan after a put costs
O(added log n) compares, not a re-encode and re-sort of everything. A
view list is never mutated after it is handed out: a cursor that holds
one keeps reading the memtable as it was at its seek. Point lookups
never touch the view at all.

The view and the entries not yet merged into it are published together
as one tuple, and a refresh replaces the tuple without mutating either
half. That is what cursor stability rests on: a flush job and a cursor
that asked the same memtable for its view at different times each hold
a list that no later ``add`` or refresh can change.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import Iterator

from repro.lsm import ikey
from repro.lsm.bloom import BloomFilter, key_hashes


class ValueKind(enum.IntEnum):
    """Kind tag of an entry (mirrors RocksDB's ValueType)."""

    DELETE = 0
    VALUE = 1


#: Fixed per-entry overhead charged to the arena (node pointers, seq tag).
_ENTRY_OVERHEAD = 40

#: One versioned entry, (internal_key, kind, value): what the sorted
#: view holds and the protocol every read-path merge source speaks.
Entry = tuple[bytes, ValueKind, bytes]

# Hot-path binding: `add` runs once per write, so the encoder is
# resolved at module load instead of per call.
_encode = ikey.encode


def _iterate_from(view: list[Entry], at: int) -> Iterator[Entry]:
    for i in range(at, len(view)):
        yield view[i]


class MemTable:
    """A sorted in-memory buffer of versioned entries.

    Entries are *logically* ordered as ``user_key + encoded (seq, kind)``
    so multiple versions of a user key coexist, newest first, exactly
    like RocksDB's internal-key ordering; the order is materialized on
    demand (see module docstring).
    """

    def __init__(
        self,
        capacity_bytes: int,
        *,
        bloom_bits: int = 0,
        whole_key_filtering: bool = False,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("memtable capacity must be positive")
        #: user_key -> [(seq, kind, value), ...] in insertion order.
        #: Sequences increase monotonically across writes, so each list
        #: is sorted by seq ascending and the newest version is last.
        self._versions: dict[bytes, list] = {}
        self._versions_get = self._versions.get
        #: ``(view, pending)``, or None until a reader first asks (so a
        #: write-only memtable never pays for it). ``view`` is the
        #: internal-key-ordered [(internal_key, kind, value)], never
        #: mutated once built; ``pending`` is the (user_key, seq, kind,
        #: value) of entries added since, at most the memtable's own
        #: entry count. A refresh replaces the whole tuple in one
        #: assignment and never empties the old ``pending``.
        self._state: tuple[list[Entry], list] | None = None
        self.capacity_bytes = capacity_bytes
        #: Approximate arena usage; public so the write path can compare
        #: it against ``capacity_bytes`` without a property call.
        self.approx_bytes = 0
        self._num_entries = 0
        self._last_seq = 0
        #: The whole-key filter point lookups consult, or None.
        self._bloom: BloomFilter | None = None
        if bloom_bits > 0 and whole_key_filtering:
            self._bloom = BloomFilter(
                bits_per_key=bloom_bits,
                expected_keys=max(64, capacity_bytes // 128),
            )
        # `add` fast lane: resolve the bloom branch once — per-entry
        # attribute chasing is measurable at fillrandom rates.
        self._bloom_add = self._bloom.add if self._bloom is not None else None

    # -- mutation ----------------------------------------------------------

    def add(self, seq: int, kind: ValueKind, user_key: bytes, value: bytes) -> None:
        """Insert one versioned entry."""
        versions = self._versions_get(user_key)
        if versions is None:
            self._versions[user_key] = [(seq, kind, value)]
        else:
            versions.append((seq, kind, value))
        state = self._state
        if state is not None:
            state[1].append((user_key, seq, kind, value))
        self.approx_bytes += len(user_key) + len(value) + _ENTRY_OVERHEAD
        self._num_entries += 1
        if seq > self._last_seq:
            self._last_seq = seq
        bloom_add = self._bloom_add
        if bloom_add is not None:
            bloom_add(user_key)

    # -- queries -----------------------------------------------------------

    def get(
        self,
        user_key: bytes,
        snapshot_seq: int | None = None,
        hashes: tuple[int, int] | None = None,
    ):
        """Look up the newest visible version of ``user_key``.

        Returns ``(found, kind, value)``; ``found`` False means the
        memtable holds no visible entry (caller falls through to older
        data). ``hashes`` is the key's :func:`key_hashes` when the
        caller already has them (only read when the memtable has a
        filter).
        """
        bloom = self._bloom
        if bloom is not None and not bloom.may_contain_hashes(
            hashes if hashes is not None else key_hashes(user_key)
        ):
            return False, None, None
        versions = self._versions_get(user_key)
        if versions is None:
            return False, None, None
        if snapshot_seq is None:
            _seq, kind, value = versions[-1]
            return True, kind, value
        for seq, kind, value in reversed(versions):
            if seq <= snapshot_seq:
                return True, kind, value
        return False, None, None

    # -- accounting ----------------------------------------------------------

    @property
    def approximate_memory_usage(self) -> int:
        return self.approx_bytes

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def last_seq(self) -> int:
        return self._last_seq

    def should_flush(self) -> bool:
        """Full enough that the active memtable must rotate."""
        return self.approx_bytes >= self.capacity_bytes

    def empty(self) -> bool:
        return self._num_entries == 0

    # -- iteration -----------------------------------------------------------

    def view(self) -> list[Entry]:
        """Every entry as ``(internal_key, kind, value)``, in internal-key
        order (user key ascending, newest version first).

        The returned list is never mutated afterwards, so callers may
        hold it across later writes; they must not mutate it either.
        Internal keys are unique (sequences never repeat), so ordering
        the triples compares only the encoded keys.
        """
        state = self._state
        if state is None:
            view = [
                (_encode(user_key, seq), kind, value)
                for user_key, versions in self._versions.items()
                for seq, kind, value in versions
            ]
            view.sort()
        else:
            view, pending = state
            if not pending:
                return view
            # Merge the entries added since `view` was built into a new
            # list: each lands by bisect from where the previous one
            # did, and the stretches between them are slice copies.
            fresh = sorted(
                (_encode(user_key, seq), kind, value)
                for user_key, seq, kind, value in pending
            )
            merged: list[Entry] = []
            taken = 0
            for entry in fresh:
                at = bisect_left(view, entry, taken)
                merged += view[taken:at]
                merged.append(entry)
                taken = at
            merged += view[taken:]
            view = merged
        self._state = (view, [])
        return view

    def seek(self, user_key: bytes | None = None) -> Iterator[Entry]:
        """Yield the view's entries from the first one whose user key is
        ``>= user_key`` (from the start when None): a bisect, then one
        list index per entry consumed. The entries are those present at
        the call; later writes do not reach an iterator already made."""
        view = self.view()
        at = 0
        if user_key is not None:
            # A 1-tuple sorts just before any triple sharing its key.
            at = bisect_left(view, (ikey.seek_key(user_key),))
        return _iterate_from(view, at)

    @property
    def unique_keys(self) -> int:
        """Number of distinct user keys currently held."""
        return len(self._versions)

    def newest_entries(self) -> Iterator[tuple[bytes, ValueKind, bytes]]:
        """Yield only the newest version per user key, internal-key order.

        This is exactly what a single-memtable flush with no live
        snapshots emits, so the flush path can skip building (and
        sorting) the full version view and skip per-entry shadow
        detection: versions append in seq order, making ``versions[-1]``
        the newest, and raw-user-key sort order equals escaped order
        (the escape is order-preserving).
        """
        # ikey.encode inlined (seqs here were range-checked on insert):
        # escape(user_key) + 0x00 0x00 + big-endian(~seq).
        mask = 0xFFFFFFFFFFFFFFFF
        for user_key, versions in sorted(self._versions.items()):
            seq, kind, value = versions[-1]
            yield (
                user_key.replace(b"\x00", b"\x00\xff")
                + b"\x00\x00"
                + ((~seq) & mask).to_bytes(8, "big"),
                kind,
                value,
            )
