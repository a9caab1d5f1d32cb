"""SSTable builder and reader.

Layout (offsets grow downward)::

    [data block envelope] *
    [bloom filter envelope]      (optional)
    [index block envelope]       last internal key per block -> (offset, size)
    [footer]                     fixed-size struct + magic

Entries map internal keys to ``kind byte + value``. The reader performs
real binary searches over a real index and real bloom-filter probes, and
reports *what it touched* (a :class:`ReadStats`, or a point lookup's
probe shape) so the caller can charge virtual time for it.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import CorruptionError
from repro.lsm import ikey as ikey_mod
from repro.lsm.block import (
    BlockBuilder,
    _put_varint,
    block_entries_seek,
    compress_block,
    decode_block,
    decompress_block,
)
from repro.lsm.bloom import BloomFilter, key_hashes
from repro.lsm.env import MemFileSystem, RandomAccessFile
from repro.lsm.memtable import ValueKind

_FOOTER = struct.Struct("<QQQQQdQ")
_MAGIC = 0x88E241B785F4CFF7

# Entry hot-path tables: the kind tag is one byte (0 or 1), so prefix
# bytes and enum members are looked up instead of constructed per entry.
_KIND_BYTES = (b"\x00", b"\x01")
_KIND_OF = (ValueKind.DELETE, ValueKind.VALUE)

#: Decoded-block memo size per open reader (blocks) for what the reader
#: decodes itself; a seed (:meth:`SSTableReader.seed`) may hold more.
#: Nothing served from the memo is trusted without a byte compare
#: against what the modelled read just returned, so the bound only caps
#: memory.
_DECODED_CACHE_BLOCKS = 128

#: One finished block as its builder held it: ``(offset, envelope,
#: entries)``, the entries exactly what decoding the envelope yields.
KeptBlock = tuple[int, bytes, list[tuple[bytes, bytes]]]


@dataclass(frozen=True)
class FileMetaData:
    """Catalog entry for one SSTable (lives in the Version/MANIFEST)."""

    file_number: int
    file_size: int
    smallest_key: bytes  # user key
    largest_key: bytes  # user key
    num_entries: int
    level: int = 0

    def overlaps(self, lo: bytes | None, hi: bytes | None) -> bool:
        """Whether this file's user-key range intersects [lo, hi]."""
        if hi is not None and self.smallest_key > hi:
            return False
        if lo is not None and self.largest_key < lo:
            return False
        return True


@dataclass(slots=True)
class ReadStats:
    """What a table read touched, for the caller to price.

    ``block_reads`` records ``(nbytes, source)`` per data block touched,
    where source is ``"cache"`` (block cache, decompressed), ``"page"``
    (OS page cache, compressed), or ``"device"``. A point lookup's
    probe (:meth:`SSTableReader.get`) fills none: the cost model prices
    its shape (:meth:`~repro.lsm.perf_model.PerfModel.probe_cost_us`).
    """

    bloom_checked: bool = False
    index_read: bool = False
    block_reads: list[tuple[int, str]] = field(default_factory=list)
    #: Batched lookups (:meth:`SSTableReader.multi_get`) record *per-key*
    #: probe work in these counters — one stats object is shared across
    #: the whole batch, so the per-probe flags above cannot carry the
    #: counts.
    bloom_probes: int = 0
    bloom_negatives: int = 0
    index_searches: int = 0
    block_searches: int = 0

    def device_block_bytes(self) -> int:
        return sum(n for n, source in self.block_reads if source == "device")


class SSTableBuilder:
    """Builds one table; entries must arrive in internal-key order."""

    def __init__(
        self,
        fs: MemFileSystem,
        path: str,
        *,
        block_size: int = 4096,
        restart_interval: int = 16,
        compression: str = "none",
        bloom_bits_per_key: float = -1.0,
        whole_key_filtering: bool = True,
        keep_blocks: bool = False,
    ) -> None:
        """``keep_blocks``: hold every finished block's entries, for
        :attr:`kept_blocks`."""
        self._file = fs.create(path)
        self._path = path
        self._block_size = max(256, block_size)
        self._restart_interval = restart_interval
        self._compression = compression
        self._bloom_bits = bloom_bits_per_key
        self._whole_key = whole_key_filtering
        self._block = BlockBuilder(restart_interval)
        self._index: list[tuple[bytes, int, int]] = []
        self._offset = 0
        self._num_entries = 0
        self._first_ikey: bytes | None = None
        self._last_ikey = b""
        #: Escaped-user-key prefixes (``internal_key[:-8]``) of bloom
        #: candidates, ascending. The escape is injective and the
        #: terminator occurs only as the terminator, so distinct
        #: prefixes == distinct user keys, and the versions of one user
        #: key are adjacent: skipping a repeat of the last prefix keeps
        #: the list unique. Decoding is deferred to :meth:`finish`, once
        #: per unique key instead of once per entry.
        self._bloom_prefixes: list[bytes] = []
        self._collect_bloom = bloom_bits_per_key > 0 and whole_key_filtering
        #: The open block's entries while blocks are kept, else None.
        self._kept: list[tuple[bytes, bytes]] | None = [] if keep_blocks else None
        self._kept_blocks: list[KeptBlock] = []
        self._finished = False

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def kept_blocks(self) -> list[KeptBlock]:
        """The finished blocks kept under ``keep_blocks``, in file order."""
        return self._kept_blocks

    @property
    def current_size(self) -> int:
        return self._offset + self._block.size_estimate()

    def add(self, internal_key: bytes, kind: ValueKind, value: bytes) -> None:
        self.add_packed(internal_key, _KIND_BYTES[kind] + value)

    def _note_bloom_prefix(self, prefix: bytes) -> None:
        prefixes = self._bloom_prefixes
        if not prefixes or prefixes[-1] != prefix:
            prefixes.append(prefix)

    def add_packed(self, internal_key: bytes, packed_value: bytes) -> None:
        """:meth:`add` with the value already in block encoding (kind
        byte prepended) — what :meth:`SSTableReader.read_packed` yields."""
        if self._finished:
            raise CorruptionError("add() after finish()")
        if self._num_entries and internal_key <= self._last_ikey:
            raise CorruptionError("sstable keys must be strictly increasing")
        if self._first_ikey is None:
            self._first_ikey = internal_key
        self._last_ikey = internal_key
        self._num_entries += 1
        if self._collect_bloom:
            self._note_bloom_prefix(internal_key[:-8])
        if self._kept is not None:
            self._kept.append((internal_key, packed_value))
        if self._block.add(internal_key, packed_value) >= self._block_size:
            self._flush_block()

    def add_many(
        self, entries: Iterator[tuple[bytes, ValueKind, bytes]]
    ) -> None:
        """Bulk :meth:`add` over ``(internal, kind, value)`` — the flush
        kernel: each value is packed (kind byte prepended) on its way
        into the :meth:`add_many_packed` loop. A second copy of that
        loop with the pack inlined bought nothing measurable on
        ``fill`` (docs/performance.md), so there is one."""
        kind_bytes = _KIND_BYTES
        self.add_many_packed(
            (internal_key, kind_bytes[kind] + value)
            for internal_key, kind, value in entries
        )

    def add_many_packed(
        self,
        entries: Iterator[tuple[bytes, bytes]],
        split_size: int | None = None,
    ) -> tuple[bytes, bytes] | None:
        """Bulk :meth:`add_packed`: one tight loop over ``(internal_key,
        kind_byte + value)`` pairs, as :meth:`SSTableReader.read_packed`
        yields them.

        Byte-identical to calling :meth:`add_packed` per entry — the
        block encoding is inlined here (flush/compaction push every
        entry of every table through this loop, so the per-entry call
        stack is the cost that matters). With ``split_size``, the table
        is full once its estimated size reaches it, and consumption
        stops at the next entry *of another user key*: versions of one
        user key (kept apart by a live snapshot) never straddle two
        tables, because table bounds are user keys and two L1+ files
        sharing one would overlap (RocksDB's rule). Returns the entry
        that starts the next table — consumed from ``entries`` but not
        added — or None when ``entries`` was exhausted.

        The loop keeps the block's size estimate as a running count and
        the previous key as an int (one ``int.from_bytes`` per entry),
        and writes one- and two-byte value lengths inline. Under
        ``keep_blocks`` the entry tuples themselves are kept.
        """
        if self._finished:
            raise CorruptionError("add() after finish()")
        block = self._block
        buf = block._buf
        restarts = block._restarts
        counter = block._counter
        last = block._last_key
        from_bytes = int.from_bytes
        last_int = from_bytes(last, "big")
        block_entries = block._num_entries
        interval = block._restart_interval
        block_size = self._block_size
        estimate = block.size_estimate()
        # The table is full once estimate >= room (split_size - offset).
        no_split = split_size is None
        room = 1 << 62 if no_split else split_size - self._offset
        kept = self._kept
        collect = self._collect_bloom
        prefixes = self._bloom_prefixes
        last_prefix = prefixes[-1] if prefixes else None
        last_ikey = self._last_ikey
        num = self._num_entries
        first_unset = self._first_ikey is None
        full = estimate >= room
        carry = None
        for entry in entries:
            internal_key, val = entry
            if full and internal_key[:-8] != last_ikey[:-8]:
                carry = entry
                break
            if num and internal_key <= last_ikey:
                raise CorruptionError("sstable keys must be strictly increasing")
            if first_unset:
                self._first_ikey = internal_key
                first_unset = False
            last_ikey = internal_key
            num += 1
            if collect:
                prefix = internal_key[:-8]
                if prefix != last_prefix:
                    prefixes.append(prefix)
                    last_prefix = prefix
            if kept is not None:
                kept.append(entry)
            key_len = len(internal_key)
            key_int = from_bytes(internal_key, "big")
            if counter < interval:
                n = len(last)
                if key_len == n:
                    # Equal-length keys (the norm: fixed-width user keys
                    # + 10-byte suffix): XOR whole keys, no slicing.
                    diff = key_int ^ last_int
                else:
                    if key_len < n:
                        n = key_len
                    diff = (
                        from_bytes(internal_key[:n], "big")
                        ^ from_bytes(last[:n], "big")
                    )
                shared = n if diff == 0 else n - ((diff.bit_length() + 7) >> 3)
            else:
                restarts.append(len(buf))
                estimate += 4
                counter = 0
                shared = 0
            non_shared = key_len - shared
            val_len = len(val)
            if shared < 0x80 and non_shared < 0x80:
                buf.append(shared)
                buf.append(non_shared)
                if val_len < 0x80:
                    buf.append(val_len)
                    estimate += 3
                elif val_len < 0x4000:
                    buf.append(val_len & 0x7F | 0x80)
                    buf.append(val_len >> 7)
                    estimate += 4
                else:
                    before = len(buf)
                    _put_varint(buf, val_len)
                    estimate += 2 + len(buf) - before
            else:
                before = len(buf)
                _put_varint(buf, shared)
                _put_varint(buf, non_shared)
                _put_varint(buf, val_len)
                estimate += len(buf) - before
            buf += internal_key[shared:]
            buf += val
            estimate += non_shared + val_len
            last = internal_key
            last_int = key_int
            counter += 1
            block_entries += 1
            if estimate >= block_size:
                block._counter = counter
                block._last_key = last
                block._num_entries = block_entries
                self._last_ikey = last_ikey
                self._num_entries = num
                self._flush_block()
                block = self._block
                buf = block._buf
                restarts = block._restarts
                counter = 0
                last = b""
                last_int = 0
                block_entries = 0
                kept = self._kept
                if not no_split:
                    room = split_size - self._offset
                estimate = 8  # empty block: one restart slot + trailer
            if estimate >= room:
                full = True
        block._counter = counter
        block._last_key = last
        block._num_entries = block_entries
        self._last_ikey = last_ikey
        self._num_entries = num
        return carry

    def _flush_block(self) -> None:
        if self._block.empty():
            return
        envelope = compress_block(self._block.finish(), self._compression)
        kept = self._kept
        if kept is not None:
            self._kept_blocks.append((self._offset, envelope, kept))
            self._kept = []
        self._file.append(envelope)
        self._index.append((self._last_ikey, self._offset, len(envelope)))
        self._offset += len(envelope)
        self._block = BlockBuilder(self._restart_interval)

    def finish(self) -> FileMetaData:
        """Flush pending data, write filter+index+footer, return metadata."""
        if self._finished:
            raise CorruptionError("finish() called twice")
        self._flush_block()
        filter_off = filter_sz = 0
        if self._bloom_bits > 0 and self._bloom_prefixes:
            bloom = BloomFilter(self._bloom_bits, len(self._bloom_prefixes))
            # prefix = escape(user_key) + terminator; unescape once per
            # unique key (reader probes with plain user keys). Unescaped
            # keys ascend as the prefixes do, which is the order
            # add_run hashes fastest in.
            bloom.add_run(
                prefix[:-2].replace(b"\x00\xff", b"\x00")
                for prefix in self._bloom_prefixes
            )
            payload = compress_block(bloom.to_bytes(), "none")
            filter_off = self._offset
            filter_sz = len(payload)
            self._file.append(payload)
            self._offset += filter_sz
        index = BlockBuilder(1)
        for last_key, off, size in self._index:
            index.add(last_key, struct.pack("<QI", off, size))
        index_payload = compress_block(index.finish(), "none")
        index_off = self._offset
        self._file.append(index_payload)
        self._offset += len(index_payload)
        self._file.append(
            _FOOTER.pack(
                index_off,
                len(index_payload),
                filter_off,
                filter_sz,
                self._num_entries,
                self._bloom_bits,
                _MAGIC,
            )
        )
        self._file.sync()
        self._file.close()
        self._finished = True
        file_number = _file_number_from_path(self._path)
        first = self._first_ikey
        return FileMetaData(
            file_number=file_number,
            file_size=self._file.size(),
            smallest_key=ikey_mod.user_key_of(first) if first is not None else b"",
            largest_key=(
                ikey_mod.user_key_of(self._last_ikey) if first is not None else b""
            ),
            num_entries=self._num_entries,
        )


def _file_number_from_path(path: str) -> int:
    name = path.rsplit("/", 1)[-1]
    digits = name.split(".", 1)[0]
    try:
        return int(digits)
    except ValueError:
        return 0


CacheGet = Callable[[tuple[int, int]], bytes | None]
CachePut = Callable[[tuple[int, int], bytes, int], None]


def _version_at(entries: list[tuple[bytes, bytes]], seek: bytes) -> bytes | None:
    """The packed value of the newest version ``seek`` (a
    :func:`~repro.lsm.ikey.seek_key`) can see in a decoded block: the
    one entry the seek lands on, if it belongs to the same user key."""
    at = block_entries_seek(entries, seek)
    if at < len(entries):
        entry_ikey, packed = entries[at]
        # Same escaped user key + terminator <=> same user key.
        if entry_ikey[:-8] == seek[:-8]:
            return packed
    return None


class SSTableReader:
    """Reads one table; index and filter are loaded once at open."""

    def __init__(
        self,
        file: RandomAccessFile,
        file_number: int,
        *,
        verify_checksums: bool = True,
    ) -> None:
        self._file = file
        self.file_number = file_number
        self._verify = verify_checksums
        size = file.size()
        if size < _FOOTER.size:
            raise CorruptionError(f"table {file.path} shorter than footer")
        footer = file.read(size - _FOOTER.size, _FOOTER.size)
        (index_off, index_sz, filter_off, filter_sz, num_entries,
         bloom_bits, magic) = _FOOTER.unpack(footer)
        if magic != _MAGIC:
            raise CorruptionError(f"bad magic in table {file.path}")
        self.num_entries = num_entries
        index_payload = decompress_block(
            file.read(index_off, index_sz), verify_checksum=verify_checksums
        )
        self._index: list[tuple[bytes, int, int]] = []
        for last_key, packed in decode_block(index_payload):
            off, sz = struct.unpack("<QI", packed)
            self._index.append((last_key, off, sz))
        #: Last internal key of each block, for bisecting.
        self._index_keys = [entry[0] for entry in self._index]
        self.index_size_bytes = index_sz
        self._bloom: BloomFilter | None = None
        self.filter_size_bytes = filter_sz
        if filter_sz:
            bloom_payload = decompress_block(
                file.read(filter_off, filter_sz), verify_checksum=verify_checksums
            )
            self._bloom = BloomFilter.from_bytes(bloom_payload, bloom_bits)
        # offset -> (envelope, payload, decoded entries). A repeat read
        # still makes every modelled access (block cache, page cache,
        # file) in the same order; the memo only spares recomputing
        # what those bytes decode to. A block-cache hit is matched on
        # its payload, a page-cache or file read on its envelope — an
        # envelope that differs by one byte takes the full verifying
        # path, so corruption is detected exactly as without the memo.
        # ``envelope`` is None for a slot first filled from the block
        # cache; ``payload`` is None for a slot seeded from the table's
        # builder (:meth:`seed`), so a block-cache hit on one decodes
        # and a file read that fills the block cache decompresses.
        self._decoded: dict[
            int, tuple[bytes | None, bytes | None, list[tuple[bytes, bytes]]]
        ] = {}

    def seed(self, blocks: list[KeptBlock]) -> None:
        """Start the decoded-block memo from what this table's builder
        kept (:attr:`SSTableBuilder.kept_blocks`), so the table's first
        reads need not decode what was just encoded. Each slot is still
        matched on the envelope a read returns."""
        decoded = self._decoded
        for off, envelope, entries in blocks:
            decoded[off] = (envelope, None, entries)

    def _block_index_for(self, internal_key: bytes) -> int | None:
        """First block whose last key >= internal_key, else None."""
        idx = bisect_left(self._index_keys, internal_key)
        return idx if idx < len(self._index_keys) else None

    def _read_block(
        self,
        idx: int,
        cache_get: CacheGet | None,
        cache_put: CachePut | None,
        page_get: CacheGet | None,
        page_put: CachePut | None,
    ) -> tuple[list[tuple[bytes, bytes]], tuple[int, str]]:
        """Block ``idx``'s entries and the read that fetched it:
        ``(nbytes, source)`` as :attr:`ReadStats.block_reads` records it."""
        _last, off, sz = self._index[idx]
        cache_key = (self.file_number, off)
        memo = self._decoded.get(off)
        if cache_get is not None:
            cached = cache_get(cache_key)
            if cached is not None:
                if memo is not None and (cached is memo[1] or cached == memo[1]):
                    return memo[2], (sz, "cache")
                entries = decode_block(cached)
                self._remember(off, None, cached, entries)
                return entries, (sz, "cache")
        source = "device"
        envelope: bytes | None = None
        if page_get is not None:
            hit = page_get(cache_key)
            if hit is not None:
                envelope = hit  # type: ignore[assignment]
                source = "page"
        if envelope is None:
            envelope = self._file.read(off, sz)
            if page_put is not None:
                page_put(cache_key, envelope, len(envelope))
        if memo is not None and (envelope is memo[0] or envelope == memo[0]):
            _envelope, payload, entries = memo
            if payload is None and cache_put is not None:
                payload = decompress_block(envelope, verify_checksum=self._verify)
                self._decoded[off] = (envelope, payload, entries)
        else:
            payload = decompress_block(envelope, verify_checksum=self._verify)
            if memo is not None and payload == memo[1]:
                entries = memo[2]
            else:
                entries = decode_block(payload)
            self._remember(off, envelope, payload, entries)
        if cache_put is not None:
            cache_put(cache_key, payload, len(payload))
        return entries, (sz, source)

    def _remember(
        self,
        off: int,
        envelope: bytes | None,
        payload: bytes,
        entries: list[tuple[bytes, bytes]],
    ) -> None:
        decoded = self._decoded
        if off not in decoded and len(decoded) >= _DECODED_CACHE_BLOCKS:
            # Cheap bounded eviction (FIFO-ish); correctness never
            # depends on what gets dropped.
            decoded.pop(next(iter(decoded)))
        decoded[off] = (envelope, payload, entries)

    def get(
        self,
        user_key: bytes,
        seek: bytes,
        hashes: tuple[int, int] | None,
        cache_get: CacheGet | None,
        cache_put: CachePut | None,
        page_get: CacheGet | None,
        page_put: CachePut | None,
    ) -> tuple[bool, tuple[int, str] | None, bytes | None] | None:
        """Probe this table for the newest version of ``user_key`` that
        ``seek`` (its :func:`~repro.lsm.ikey.seek_key`) can see.

        ``hashes`` is the key's :func:`~repro.lsm.bloom.key_hashes` when
        the caller already has them (a lookup probing several tables
        hashes its key once); only read when the table has a filter.

        Returns None when the filter rules the table out (the filter was
        checked and nothing else touched). Otherwise ``(bloom_checked,
        block_read, packed)``: whether a filter was checked, the one
        data block read as ``(nbytes, source)`` (None when the index
        places the key past the table's last block), and the version's
        kind byte + value, or None when the table holds no visible
        version. An index search happened exactly when a block was read.
        """
        bloom = self._bloom
        if bloom is not None and not bloom.may_contain_hashes(
            hashes if hashes is not None else key_hashes(user_key)
        ):
            return None
        idx = bisect_left(self._index_keys, seek)
        if idx == len(self._index_keys):
            return bloom is not None, None, None
        entries, block_read = self._read_block(
            idx, cache_get, cache_put, page_get, page_put
        )
        return bloom is not None, block_read, _version_at(entries, seek)

    def multi_get(
        self,
        user_keys: list[bytes],
        snapshot_seq: int = ikey_mod.MAX_SEQUENCE,
        *,
        stats: ReadStats,
        hashes: dict[bytes, tuple[int, int]] | None = None,
        cache_get: CacheGet | None = None,
        cache_put: CachePut | None = None,
        page_get: CacheGet | None = None,
        page_put: CachePut | None = None,
    ) -> dict[bytes, tuple[ValueKind, bytes]]:
        """Batched point lookups sharing one ``stats`` and block fetches.

        ``user_keys`` must be sorted. Per-key bloom/index/block-search
        work lands in the counter fields of ``stats``; a block holding
        several of the batch's keys is fetched and decoded once for the
        whole call (the per-batch ``loaded`` memo), which is where the
        batching beats N independent ``get`` calls. ``hashes`` is the
        batch's ``{user_key: key_hashes}`` memo, filled here on first
        need, so a key probed in several tables is hashed once. Returns
        ``{user_key: (kind, value)}`` for the keys present.
        """
        out: dict[bytes, tuple[ValueKind, bytes]] = {}
        loaded: dict[int, list[tuple[bytes, bytes]]] = {}
        if hashes is None:
            hashes = {}
        for user_key in user_keys:
            if self._bloom is not None:
                stats.bloom_probes += 1
                pair = hashes.get(user_key)
                if pair is None:
                    pair = hashes[user_key] = key_hashes(user_key)
                if not self._bloom.may_contain_hashes(pair):
                    stats.bloom_negatives += 1
                    continue
            seek = ikey_mod.seek_key(user_key, snapshot_seq)
            idx = self._block_index_for(seek)
            if idx is None:
                continue
            stats.index_searches += 1
            entries = loaded.get(idx)
            if entries is None:
                entries, block_read = self._read_block(
                    idx, cache_get, cache_put, page_get, page_put
                )
                stats.block_reads.append(block_read)
                loaded[idx] = entries
            else:
                # A shared block: the fetch (and its search) was already
                # charged via block_reads; only the extra search is new.
                stats.block_searches += 1
            packed = _version_at(entries, seek)
            if packed is not None:
                out[user_key] = (_KIND_OF[packed[0]], packed[1:])
        return out

    def read_packed(
        self, *, stats: ReadStats | None = None
    ) -> list[tuple[bytes, bytes]]:
        """All ``(internal_key, kind_byte + value)`` pairs, in order.

        The raw block encoding, materialized list-per-block with zero
        per-entry work — the compaction merge consumes it directly and
        re-emits the packed value verbatim, skipping the kind decode /
        value slice / re-concat of the tuple path. Read accounting
        matches :meth:`iter_from` exactly.

        Compaction is the one caller, and the table dies when the
        compaction installs, so the decoded-block memo is dropped after
        this one front-to-back read.
        """
        reads = (stats if stats is not None else ReadStats()).block_reads
        out: list[tuple[bytes, bytes]] = []
        for idx in range(len(self._index)):
            entries, block_read = self._read_block(idx, None, None, None, None)
            reads.append(block_read)
            out += entries
        self._decoded.clear()
        return out

    def iter_from(
        self,
        user_key: bytes | None,
        *,
        cache_get: CacheGet | None = None,
        cache_put: CachePut | None = None,
        stats: ReadStats | None = None,
    ) -> Iterator[tuple[bytes, ValueKind, bytes]]:
        """In-order scan of (internal_key, kind, value) from the first
        entry >= user_key; ``None`` scans the whole table."""
        reads = (stats if stats is not None else ReadStats()).block_reads
        start, seek = 0, None
        if user_key is not None:
            seek = ikey_mod.seek_key(user_key)
            start = self._block_index_for(seek)
            if start is None:
                return
        for idx in range(start, len(self._index)):
            entries, block_read = self._read_block(
                idx, cache_get, cache_put, None, None
            )
            reads.append(block_read)
            if idx == start and seek is not None:
                entries = entries[block_entries_seek(entries, seek):]
            for entry_ikey, packed in entries:
                yield entry_ikey, _KIND_OF[packed[0]], packed[1:]
