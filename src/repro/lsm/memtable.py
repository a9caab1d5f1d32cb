"""MemTable: the in-memory write buffer.

A memtable maps internal keys (user key + sequence number + kind) to
values, tracks its approximate memory footprint against
``write_buffer_size``, and optionally carries a prefix/whole-key bloom
filter (``memtable_prefix_bloom_size_ratio``).

Representation: writes land in a per-user-key version map (one dict
lookup + list append per ``add`` — the fillrandom hot path), and the
internal-key-ordered view that flushes and iterators need is built
lazily by encoding + sorting once, cached until the next write. A
rotated (immutable) memtable therefore sorts exactly once, and point
lookups never touch the sorted view at all.
"""

from __future__ import annotations

import enum
from typing import Iterator

from repro.lsm import ikey
from repro.lsm.bloom import BloomFilter


class ValueKind(enum.IntEnum):
    """Kind tag of an entry (mirrors RocksDB's ValueType)."""

    DELETE = 0
    VALUE = 1


#: Fixed per-entry overhead charged to the arena (node pointers, seq tag).
_ENTRY_OVERHEAD = 40

# Hot-path bindings: `add` runs once per write, so the encoder and the
# tombstone tag are resolved at module load instead of per call.
_encode = ikey.encode
_DELETE = ValueKind.DELETE


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
        seed: int | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("memtable capacity must be positive")
        del seed  # kept for API compatibility with the skiplist memtable
        #: user_key -> [(seq, kind, value), ...] in insertion order.
        #: Sequences increase monotonically across writes, so each list
        #: is sorted by seq ascending and the newest version is last.
        self._versions: dict[bytes, list] = {}
        self._versions_get = self._versions.get
        #: Cached internal-key-ordered [(internal, (kind, value))];
        #: None = stale (a write happened since it was built).
        self._sorted: list | None = None
        self.capacity_bytes = capacity_bytes
        #: Approximate arena usage; public so the write path can compare
        #: it against ``capacity_bytes`` without a property call.
        self.approx_bytes = 0
        self._num_entries = 0
        self._num_deletes = 0
        self._first_seq: int | None = None
        self._last_seq = 0
        self._bloom: BloomFilter | None = None
        if bloom_bits > 0:
            expected = max(64, capacity_bytes // 128)
            self._bloom = BloomFilter(bits_per_key=bloom_bits, expected_keys=expected)
        self._whole_key_filtering = whole_key_filtering
        # `add` fast lane: resolve the bloom branch once — per-entry
        # attribute chasing is measurable at fillrandom rates.
        self._bloom_add = (
            self._bloom.add
            if self._bloom is not None and whole_key_filtering
            else None
        )

    # -- encoding ----------------------------------------------------------

    @staticmethod
    def _internal_key(user_key: bytes, seq: int) -> bytes:
        return ikey.encode(user_key, seq)

    @staticmethod
    def _split(internal: bytes) -> tuple[bytes, int]:
        return ikey.decode(internal)

    # -- mutation ----------------------------------------------------------

    def add(self, seq: int, kind: ValueKind, user_key: bytes, value: bytes) -> None:
        """Insert one versioned entry."""
        versions = self._versions_get(user_key)
        if versions is None:
            self._versions[user_key] = [(seq, kind, value)]
        else:
            versions.append((seq, kind, value))
        self._sorted = None
        self.approx_bytes += len(user_key) + len(value) + _ENTRY_OVERHEAD
        self._num_entries += 1
        if kind is _DELETE:
            self._num_deletes += 1
        if self._first_seq is None:
            self._first_seq = seq
        if seq > self._last_seq:
            self._last_seq = seq
        bloom_add = self._bloom_add
        if bloom_add is not None:
            bloom_add(user_key)

    # -- queries -----------------------------------------------------------

    def get(self, user_key: bytes, snapshot_seq: int | None = None):
        """Look up the newest visible version of ``user_key``.

        Returns ``(found, kind, value)``; ``found`` False means the
        memtable holds no visible entry (caller falls through to older
        data).
        """
        if self._bloom is not None and self._whole_key_filtering:
            if not self._bloom.may_contain(user_key):
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

    def bloom_negative(self, user_key: bytes) -> bool:
        """True when the memtable bloom filter can rule the key out."""
        if self._bloom is None or not self._whole_key_filtering:
            return False
        return not self._bloom.may_contain(user_key)

    # -- accounting ----------------------------------------------------------

    @property
    def approximate_memory_usage(self) -> int:
        return self.approx_bytes

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def num_deletes(self) -> int:
        return self._num_deletes

    @property
    def first_seq(self) -> int | None:
        return self._first_seq

    @property
    def last_seq(self) -> int:
        return self._last_seq

    def should_flush(self) -> bool:
        """Full enough that the active memtable must rotate."""
        return self.approx_bytes >= self.capacity_bytes

    def empty(self) -> bool:
        return self._num_entries == 0

    # -- iteration -----------------------------------------------------------

    def _sorted_entries(self) -> list:
        """The internal-key-ordered view, (re)built when stale.

        Internal keys are unique (sequences never repeat), so sorting
        the pairs compares only the encoded keys — the same total order
        the skiplist maintained incrementally.
        """
        cached = self._sorted
        if cached is None:
            cached = [
                (_encode(user_key, seq), (kind, value))
                for user_key, versions in self._versions.items()
                for seq, kind, value in versions
            ]
            cached.sort()
            self._sorted = cached
        return cached

    def entries(self) -> Iterator[tuple[bytes, int, ValueKind, bytes]]:
        """Yield (user_key, seq, kind, value) in internal-key order."""
        decode = ikey.decode
        for internal, (kind, value) in self._sorted_entries():
            user_key, seq = decode(internal)
            yield user_key, seq, kind, value

    def raw_entries(self) -> Iterator[tuple[bytes, tuple[ValueKind, bytes]]]:
        """Yield ``(internal_key, (kind, value))`` without re-decoding.

        The flush merge sorts on internal key anyway, so handing it the
        encoded keys skips a decode/re-encode round-trip per entry.
        """
        return iter(self._sorted_entries())

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
