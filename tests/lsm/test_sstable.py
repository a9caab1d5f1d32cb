"""Tests for SSTable build/read, bloom integration, and caches hooks."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm import ikey
from repro.lsm import sstable as sstable_mod
from repro.lsm.bloom import BloomFilter
from repro.lsm.env import MemFileSystem
from repro.lsm.memtable import ValueKind
from repro.lsm.sstable import FileMetaData, ReadStats, SSTableBuilder, SSTableReader


def build_table(fs, path="/db/000001.sst", keys=100, *, bloom=-1.0,
                compression="none", block_size=512):
    builder = SSTableBuilder(
        fs, path, block_size=block_size, compression=compression,
        bloom_bits_per_key=bloom,
    )
    for i in range(keys):
        builder.add(
            ikey.encode(b"key-%06d" % i, i + 1), ValueKind.VALUE, b"val-%d" % i
        )
    return builder.finish()


def open_reader(fs, path="/db/000001.sst", number=1):
    return SSTableReader(fs.open_random(path), number)


def lookup(reader, user_key, snapshot_seq=ikey.MAX_SEQUENCE, *,
           cache_get=None, cache_put=None, page_get=None, page_put=None):
    """One point lookup as ``(found, kind, value, probe)``: ``probe`` is
    what :meth:`SSTableReader.get` returned (None: the filter ruled the
    table out; else ``(bloom_checked, block_read, packed)``)."""
    probe = reader.get(
        user_key, ikey.seek_key(user_key, snapshot_seq), None,
        cache_get, cache_put, page_get, page_put,
    )
    if probe is None or probe[2] is None:
        return False, None, None, probe
    packed = probe[2]
    return True, ValueKind(packed[0]), packed[1:], probe


class TestBuilder:
    def test_metadata(self):
        fs = MemFileSystem()
        meta = build_table(fs, keys=50)
        assert meta.file_number == 1
        assert meta.num_entries == 50
        assert meta.smallest_key == b"key-000000"
        assert meta.largest_key == b"key-000049"
        assert meta.file_size == fs.file_size("/db/000001.sst")

    def test_rejects_out_of_order(self):
        fs = MemFileSystem()
        builder = SSTableBuilder(fs, "/db/000002.sst")
        builder.add(ikey.encode(b"b", 1), ValueKind.VALUE, b"")
        with pytest.raises(CorruptionError):
            builder.add(ikey.encode(b"a", 2), ValueKind.VALUE, b"")

    def test_finish_twice_rejected(self):
        fs = MemFileSystem()
        builder = SSTableBuilder(fs, "/db/000003.sst")
        builder.add(ikey.encode(b"a", 1), ValueKind.VALUE, b"")
        builder.finish()
        with pytest.raises(CorruptionError):
            builder.finish()

    def test_multiple_versions_of_one_key(self):
        fs = MemFileSystem()
        builder = SSTableBuilder(fs, "/db/000004.sst")
        builder.add(ikey.encode(b"k", 9), ValueKind.VALUE, b"new")
        builder.add(ikey.encode(b"k", 3), ValueKind.VALUE, b"old")
        builder.finish()
        reader = SSTableReader(fs.open_random("/db/000004.sst"), 4)
        found, _, value, _ = lookup(reader, b"k")
        assert found and value == b"new"


class TestReader:
    def test_point_lookups(self):
        fs = MemFileSystem()
        build_table(fs, keys=200)
        reader = open_reader(fs)
        for i in (0, 57, 199):
            found, kind, value, _ = lookup(reader, b"key-%06d" % i)
            assert found and kind is ValueKind.VALUE
            assert value == b"val-%d" % i

    def test_missing_key(self):
        fs = MemFileSystem()
        build_table(fs, keys=10)
        reader = open_reader(fs)
        found, _, _, _ = lookup(reader, b"key-999999")
        assert not found
        found, _, _, _ = lookup(reader, b"aaa")
        assert not found

    def test_missing_key_between_existing(self):
        fs = MemFileSystem()
        build_table(fs, keys=10)
        found, _, _, _ = lookup(open_reader(fs), b"key-000003x")
        assert not found

    def test_snapshot_lookup(self):
        fs = MemFileSystem()
        builder = SSTableBuilder(fs, "/db/000005.sst")
        builder.add(ikey.encode(b"k", 8), ValueKind.VALUE, b"new")
        builder.add(ikey.encode(b"k", 2), ValueKind.VALUE, b"old")
        builder.finish()
        reader = SSTableReader(fs.open_random("/db/000005.sst"), 5)
        found, _, value, _ = lookup(reader, b"k", 5)
        assert found and value == b"old"

    def test_tombstone_returned(self):
        fs = MemFileSystem()
        builder = SSTableBuilder(fs, "/db/000006.sst")
        builder.add(ikey.encode(b"k", 4), ValueKind.DELETE, b"")
        builder.finish()
        reader = SSTableReader(fs.open_random("/db/000006.sst"), 6)
        found, kind, _, _ = lookup(reader, b"k")
        assert found and kind is ValueKind.DELETE

    def test_iter_entries_in_order(self):
        fs = MemFileSystem()
        build_table(fs, keys=100, block_size=256)
        reader = open_reader(fs)
        keys = [ikey.decode(k)[0] for k, _, _ in reader.iter_from(None)]
        assert keys == sorted(keys)
        assert len(keys) == 100

    def test_iter_from(self):
        fs = MemFileSystem()
        build_table(fs, keys=100, block_size=256)
        reader = open_reader(fs)
        out = [ikey.decode(k)[0] for k, _, _ in reader.iter_from(b"key-000090")]
        assert out == [b"key-%06d" % i for i in range(90, 100)]

    def test_iter_from_past_end(self):
        fs = MemFileSystem()
        build_table(fs, keys=10)
        assert list(open_reader(fs).iter_from(b"zzz")) == []

    def test_bad_magic(self):
        fs = MemFileSystem()
        build_table(fs)
        size = fs.file_size("/db/000001.sst")
        fs.corrupt("/db/000001.sst", size - 1, 0x00)
        with pytest.raises(CorruptionError):
            open_reader(fs)

    def test_corrupt_block_detected(self):
        fs = MemFileSystem()
        build_table(fs, keys=100, block_size=256)
        fs.corrupt("/db/000001.sst", 10, 0xFF)
        reader = open_reader(fs)
        with pytest.raises(CorruptionError):
            list(reader.iter_from(None))

    def test_memoised_block_is_still_read_and_verified(self):
        """The decoded-block memo spares recomputation, never a read: a
        memoised block is fetched again on every lookup, so a damaged
        byte or a failing device surfaces exactly as on a cold reader."""

        class FailingFile:
            def __init__(self, inner):
                self.inner, self.path, self.reads = inner, inner.path, 0
                self.fail = False

            def size(self):
                return self.inner.size()

            def read(self, offset, nbytes):
                if self.fail:
                    raise OSError("injected read error")
                self.reads += 1
                return self.inner.read(offset, nbytes)

        fs = MemFileSystem()
        build_table(fs, keys=100, block_size=256)
        file = FailingFile(fs.open_random("/db/000001.sst"))
        reader = SSTableReader(file, 1)
        opened = file.reads
        for _ in range(3):
            found, _, value, probe = lookup(reader, b"key-000001")
            assert found and value == b"val-1"
            assert probe[1][1] == "device"
        assert file.reads == opened + 3  # the memo never replaced a read
        file.fail = True
        with pytest.raises(OSError):
            lookup(reader, b"key-000001")
        file.fail = False
        fs.corrupt("/db/000001.sst", 10, 0xFF)
        with pytest.raises(CorruptionError):
            lookup(reader, b"key-000001")

    def test_checksum_off_skips_verification(self):
        fs = MemFileSystem()
        build_table(fs, keys=3, block_size=4096)
        reader = SSTableReader(
            fs.open_random("/db/000001.sst"), 1, verify_checksums=False
        )
        found, _, _, _ = lookup(reader, b"key-000001")
        assert found


class TestBloomIntegration:
    def test_bloom_negative_skips_block_read(self):
        fs = MemFileSystem()
        build_table(fs, keys=500, bloom=10.0)
        reader = open_reader(fs)
        assert reader._bloom is not None
        negatives = 0
        for i in range(200):
            found, _, _, probe = lookup(reader, b"nope-%d" % i)
            assert not found
            if probe is None:  # ruled out before the index or a block
                negatives += 1
            else:
                assert probe[0]  # the filter was checked
        assert negatives >= 190

    def test_bloom_never_blocks_present_keys(self):
        fs = MemFileSystem()
        build_table(fs, keys=500, bloom=10.0)
        reader = open_reader(fs)
        for i in range(500):
            found, _, _, _ = lookup(reader, b"key-%06d" % i)
            assert found

    @pytest.mark.parametrize("bulk", [False, True])
    def test_filter_is_sized_for_unique_user_keys(self, bulk):
        """Several versions of one user key (a live snapshot keeps them
        apart) are one filter key: the filter is the one a table holding
        each user key once gets, byte for byte — NUL-bearing keys
        included, which the builder has to unescape."""
        user_keys = sorted(
            [b"key-%03d" % i for i in range(40)]
            + [b"", b"\x00", b"\x00\xff", b"a\x00b", b"a\x00\xffb"]
        )
        fs = MemFileSystem()
        for path, versions in (("/db/000001.sst", 5), ("/db/000002.sst", 1)):
            entries = [
                (ikey.encode(key, 100 - v), b"\x01" + b"v%d" % v)
                for key in user_keys for v in range(versions)
            ]
            builder = SSTableBuilder(
                fs, path, block_size=256, bloom_bits_per_key=10.0
            )
            if bulk:
                builder.add_many_packed(iter(entries))
            else:
                for internal_key, packed in entries:
                    builder.add_packed(internal_key, packed)
            assert builder.finish().num_entries == len(user_keys) * versions
        many, once = open_reader(fs), open_reader(fs, "/db/000002.sst", 2)
        assert many._bloom.to_bytes() == once._bloom.to_bytes()
        expected = BloomFilter(10.0, len(user_keys))
        for key in user_keys:
            expected.add(key)
        assert many._bloom.to_bytes() == expected.to_bytes()

    def test_no_bloom_no_check(self):
        fs = MemFileSystem()
        build_table(fs, keys=10, bloom=-1.0)
        reader = open_reader(fs)
        assert reader._bloom is None
        _, _, _, probe = lookup(reader, b"key-000001")
        assert not probe[0]


class TestCacheHooks:
    def test_cache_put_and_get_called(self):
        fs = MemFileSystem()
        build_table(fs, keys=100, block_size=256)
        reader = open_reader(fs)
        store = {}
        def cget(key):
            return store.get(key)
        def cput(key, value, charge):
            store[key] = value
        _, _, _, probe1 = lookup(reader, b"key-000050", cache_get=cget, cache_put=cput)
        assert probe1[1][1] == "device"
        assert store
        _, _, _, probe2 = lookup(reader, b"key-000050", cache_get=cget, cache_put=cput)
        assert probe2[1][1] == "cache"

    def test_page_cache_layer(self):
        fs = MemFileSystem()
        build_table(fs, keys=100, block_size=256)
        reader = open_reader(fs)
        pages = {}
        def pget(key):
            return pages.get(key)
        def pput(key, value, charge):
            pages[key] = value
        _, _, _, p1 = lookup(reader, b"key-000050", page_get=pget, page_put=pput)
        assert p1[1][1] == "device"
        _, _, _, p2 = lookup(reader, b"key-000050", page_get=pget, page_put=pput)
        assert p2[1][1] == "page"

    def test_device_block_bytes(self):
        fs = MemFileSystem()
        build_table(fs, keys=100, block_size=256)
        reader = open_reader(fs)
        stats = ReadStats()
        reader.multi_get([b"key-000050"], stats=stats)
        assert stats.device_block_bytes() > 0


class TestCompressionInTables:
    @pytest.mark.parametrize("codec", ["snappy", "zstd"])
    def test_round_trip(self, codec):
        fs = MemFileSystem()
        build_table(fs, keys=300, compression=codec, block_size=1024)
        reader = open_reader(fs)
        for i in (0, 150, 299):
            found, _, value, _ = lookup(reader, b"key-%06d" % i)
            assert found and value == b"val-%d" % i

    def test_compressed_table_is_smaller(self):
        fs1, fs2 = MemFileSystem(), MemFileSystem()
        build_table(fs1, keys=500, compression="none")
        build_table(fs2, keys=500, compression="zstd")
        assert fs2.file_size("/db/000001.sst") < fs1.file_size("/db/000001.sst")


class TestFileMetaData:
    def test_overlaps(self):
        meta = FileMetaData(1, 100, b"c", b"f", 10)
        assert meta.overlaps(b"a", b"d")
        assert meta.overlaps(b"d", b"e")
        assert meta.overlaps(None, None)
        assert not meta.overlaps(b"g", b"z")
        assert not meta.overlaps(b"a", b"b")

    @given(st.lists(st.integers(0, 999), min_size=1, max_size=60, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_reader_property_round_trip(self, key_ints):
        fs = MemFileSystem()
        builder = SSTableBuilder(fs, "/db/000009.sst", block_size=128)
        for n, k in enumerate(sorted(key_ints)):
            builder.add(ikey.encode(b"%03d" % k, n + 1), ValueKind.VALUE, b"v%d" % k)
        builder.finish()
        reader = SSTableReader(fs.open_random("/db/000009.sst"), 9)
        for k in key_ints:
            found, _, value, _ = lookup(reader, b"%03d" % k)
            assert found and value == b"v%d" % k


class TestPackedPath:
    """The packed merge path (`read_packed`/`add_packed`/`add_many_packed`)
    must be a byte-identical twin of the decode/re-encode path: compaction
    outputs feed determinism gates, so a single divergent byte is a bug."""

    @staticmethod
    def _entries(n, *, deletes=True):
        out = []
        for i in range(n):
            kind = (
                ValueKind.DELETE
                if deletes and i % 7 == 0
                else ValueKind.VALUE
            )
            value = b"" if kind is ValueKind.DELETE else b"val-%d" % (i * i)
            out.append((ikey.encode(b"key-%06d" % i, i + 1), kind, value))
        return out

    def test_read_packed_equals_iter_entries(self):
        fs = MemFileSystem()
        builder = SSTableBuilder(fs, "/db/000001.sst", block_size=256)
        for key, kind, value in self._entries(200):
            builder.add(key, kind, value)
        builder.finish()
        reader = open_reader(fs)
        unpacked = list(reader.iter_from(None))
        packed = reader.read_packed()
        assert len(packed) == len(unpacked)
        for (k1, kind, value), (k2, pv) in zip(unpacked, packed):
            assert k1 == k2
            assert pv[0] == kind.value
            assert pv[1:] == value

    def test_packed_build_is_byte_identical(self):
        fs = MemFileSystem()
        entries = self._entries(300)
        builder = SSTableBuilder(fs, "/db/a.sst", block_size=256,
                                 bloom_bits_per_key=10.0)
        for key, kind, value in entries:
            builder.add(key, kind, value)
        builder.finish()

        packed_builder = SSTableBuilder(fs, "/db/b.sst", block_size=256,
                                        bloom_bits_per_key=10.0)
        packed_builder.add_packed(*self._pack(entries[0]))
        carry = packed_builder.add_many_packed(
            self._pack(e) for e in entries[1:]
        )
        assert carry is None
        packed_builder.finish()
        assert fs.read_all("/db/a.sst") == fs.read_all("/db/b.sst")
        # ...and identical to what commit ce208f7 wrote for the same
        # entries (filter block included), before the filter's hashing
        # was rebuilt: the determinism digests do not name these bytes.
        assert hashlib.sha256(fs.read_all("/db/a.sst")).hexdigest() == (
            "3add8ee23907cafbffc31f862e6f7b7defd9fe8bb70ccb478e40f14af643266e"
        )

    def test_add_many_packed_split_size_matches_add_many(self):
        """The split lands where the per-entry API's ``current_size``
        first reaches it, and the entry after the cut is handed back."""
        fs = MemFileSystem()
        entries = self._entries(400, deletes=False)
        via_add = SSTableBuilder(fs, "/db/c.sst", block_size=256)
        it = iter(entries)
        while via_add.current_size < 2048:
            via_add.add(*next(it))
        via_add.finish()

        via_packed = SSTableBuilder(fs, "/db/d.sst", block_size=256)
        pit = (self._pack(e) for e in entries)
        via_packed.add_packed(*next(pit))
        carry = via_packed.add_many_packed(pit, split_size=2048)
        via_packed.finish()
        assert carry == self._pack(next(it))
        assert fs.read_all("/db/c.sst") == fs.read_all("/db/d.sst")

    def test_add_many_is_the_packed_loop(self):
        fs = MemFileSystem()
        entries = self._entries(300)
        via_add = SSTableBuilder(fs, "/db/e.sst", block_size=256)
        for entry in entries:
            via_add.add(*entry)
        via_add.finish()
        via_many = SSTableBuilder(fs, "/db/f.sst", block_size=256)
        via_many.add_many(iter(entries))
        via_many.finish()
        assert fs.read_all("/db/e.sst") == fs.read_all("/db/f.sst")

    def test_split_never_falls_between_versions_of_one_user_key(self):
        """Table bounds are user keys: two L1+ files sharing one would
        overlap, so a full table keeps taking entries until the user
        key changes (a live snapshot is what keeps several versions)."""
        fs = MemFileSystem()
        # 40 versions of each of 5 keys, newest first within a key.
        entries = [
            (ikey.encode(b"key-%02d" % k, 1000 - v), b"\x01" + bytes(40))
            for k in range(5) for v in range(40)
        ]
        builder = SSTableBuilder(fs, "/db/g.sst", block_size=256)
        pit = iter(entries)
        builder.add_packed(*next(pit))
        carry = builder.add_many_packed(pit, split_size=512)
        meta = builder.finish()
        assert meta.num_entries == 40  # 512 bytes is ~8 entries
        assert (meta.smallest_key, meta.largest_key) == (b"key-00", b"key-00")
        assert carry == entries[40]

    @staticmethod
    def _pack(entry):
        key, kind, value = entry
        return key, bytes([kind.value]) + value


class CountingFile:
    """A positional-read handle that counts its reads."""

    def __init__(self, inner):
        self.inner, self.path, self.reads = inner, inner.path, 0

    def size(self):
        return self.inner.size()

    def read(self, offset, nbytes):
        self.reads += 1
        return self.inner.read(offset, nbytes)


#: Value lengths either side of the one-, two- and three-byte varints.
VARINT_EDGES = [0, 1, 127, 128, 16383, 16384]

_user_keys = st.lists(st.binary(max_size=12), max_size=30, unique=True)


def _versioned_entries(user_keys, data):
    """Sorted packed entries: up to three versions per user key (a live
    snapshot keeps them apart), tombstones and edge-length values."""
    entries = []
    seq = 10_000
    for user_key in sorted({*user_keys, b"", b"\x00", b"a\x00\xffb"}):
        for _ in range(data.draw(st.integers(1, 3))):
            seq -= 1
            if data.draw(st.integers(0, 5)) == 0:
                entries.append((ikey.encode(user_key, seq), b"\x00"))
                continue
            n = data.draw(st.sampled_from(VARINT_EDGES + [5, 40, 300]))
            entries.append((ikey.encode(user_key, seq), b"\x01" + bytes([seq % 251]) * n))
    # Versions of one key descend by sequence: internal keys ascend.
    entries.sort(key=lambda e: e[0])
    return entries


def build_kept(fs, path, entries, *, block_size, restart_interval, codec,
               bloom=10.0):
    builder = SSTableBuilder(
        fs, path, block_size=block_size, restart_interval=restart_interval,
        compression=codec, bloom_bits_per_key=bloom, keep_blocks=True,
    )
    it = iter(entries)
    builder.add_packed(*next(it))
    assert builder.add_many_packed(it) is None
    builder.finish()
    return builder.kept_blocks


class TestKeptBlocks:
    """A builder under ``keep_blocks`` holds, per finished block, the
    entries decoding that block's bytes yields: the reader a compaction
    output is seeded with trusts them only after an envelope compare,
    but the entries themselves must be exactly right."""

    @given(
        user_keys=_user_keys,
        data=st.data(),
        restart_interval=st.sampled_from([1, 16]),
        block_size=st.sampled_from([256, 4096]),
        codec=st.sampled_from(["none", "snappy", "lz4", "zlib", "zstd"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_kept_entries_are_what_the_bytes_decode_to(
        self, user_keys, data, restart_interval, block_size, codec
    ):
        from repro.lsm.block import decode_block, decompress_block

        entries = _versioned_entries(user_keys, data)
        fs = MemFileSystem()
        kept = build_kept(
            fs, "/db/000001.sst", entries, block_size=block_size,
            restart_interval=restart_interval, codec=codec,
        )
        image = fs.read_all("/db/000001.sst")
        reader = open_reader(fs)
        offsets = [off for _last, off, _sz in reader._index]
        assert [off for off, _, _ in kept] == offsets
        for off, envelope, block_entries in kept:
            assert image[off : off + len(envelope)] == envelope
            assert decode_block(decompress_block(envelope)) == block_entries
        flat = [entry for _, _, block_entries in kept for entry in block_entries]
        assert flat == entries

    def test_blocks_are_kept_per_api(self):
        """``add``, ``add_packed`` and ``add_many`` keep what
        ``add_many_packed`` keeps, and a builder not asked keeps none."""
        fs = MemFileSystem()
        rows = TestPackedPath._entries(200)
        packed = [TestPackedPath._pack(row) for row in rows]
        reference = build_kept(fs, "/db/a.sst", packed, block_size=256,
                               restart_interval=16, codec="none", bloom=-1.0)
        for name, feed in [
            ("add", lambda b: [b.add(*row) for row in rows]),
            ("add_packed", lambda b: [b.add_packed(*p) for p in packed]),
            ("add_many", lambda b: b.add_many(iter(rows))),
        ]:
            builder = SSTableBuilder(fs, f"/db/{name}.sst", block_size=256,
                                     keep_blocks=True)
            feed(builder)
            builder.finish()
            assert builder.kept_blocks == reference, name
        plain = SSTableBuilder(fs, "/db/plain.sst", block_size=256)
        plain.add_many(iter(rows))
        plain.finish()
        assert plain.kept_blocks == []
        assert fs.read_all("/db/plain.sst") == fs.read_all("/db/a.sst")

    def test_every_block_is_kept(self):
        """A kept table keeps every block, past the reader's own memo
        bound: the handoff is bounded by the output level, not by it."""
        fs = MemFileSystem()
        entries = [
            (ikey.encode(b"key-%06d" % i, 1), b"\x01" + bytes(200))
            for i in range(400)
        ]
        kept = build_kept(fs, "/db/000001.sst", entries, block_size=256,
                          restart_interval=16, codec="none")
        offsets = [off for _last, off, _sz in open_reader(fs)._index]
        assert len(offsets) > sstable_mod._DECODED_CACHE_BLOCKS
        assert [off for off, _, _ in kept] == offsets


class TestSeededReader:
    """A reader seeded with its table's kept blocks answers every read
    as a cold reader does: same results, same ``ReadStats``, the same
    file reads in the same number, the same cache traffic."""

    @staticmethod
    def _side(fs, kept, hooked):
        """One reader with its file, and with its own block and page
        caches when ``hooked``."""
        file = CountingFile(fs.open_random("/db/000001.sst"))
        reader = SSTableReader(file, 1)
        if kept is not None:
            reader.seed(kept)
        blocks, pages = {}, {}
        hooks = {}
        if hooked:
            hooks = {
                "cache_get": blocks.get,
                "cache_put": lambda k, v, c: blocks.__setitem__(k, v),
                "page_get": pages.get,
                "page_put": lambda k, v, c: pages.__setitem__(k, v),
            }
        return reader, file, hooks, (blocks, pages)

    @pytest.mark.parametrize("codec", ["none", "zstd"])
    @pytest.mark.parametrize("hooked", [False, True])
    def test_seeded_reads_equal_cold_reads(self, codec, hooked, monkeypatch):
        import repro.lsm.sstable as sstable_mod

        entries = [
            (ikey.encode(b"key-%04d" % (i // 3), 900 - i),
             b"\x01" + b"v%d" % i * (i % 50))
            for i in range(600)
        ]
        entries.sort(key=lambda e: e[0])
        fs = MemFileSystem()
        kept = build_kept(fs, "/db/000001.sst", entries, block_size=512,
                          restart_interval=16, codec=codec)
        sides = [self._side(fs, None, hooked), self._side(fs, kept, hooked)]
        decodes = [0, 0]
        decode = sstable_mod.decode_block

        def both(call):
            out = []
            for i, (reader, _file, hooks, _stores) in enumerate(sides):
                def counted(payload, i=i):
                    decodes[i] += 1
                    return decode(payload)
                monkeypatch.setattr(sstable_mod, "decode_block", counted)
                out.append(call(reader, hooks))
            assert out[0] == out[1]
            assert sides[0][1].reads == sides[1][1].reads
            assert sides[0][3] == sides[1][3]  # same cache contents
            return out[0]

        for i in range(0, 220, 7):
            for snapshot in (ikey.MAX_SEQUENCE, 900 - 3 * i, 10):
                both(lambda r, h: lookup(r, b"key-%04d" % i, snapshot, **h))
            both(lambda r, h: lookup(r, b"key-%04dx" % i, **h))

        def scan(r, h, start):
            stats = ReadStats()
            rows = list(r.iter_from(start, stats=stats, **{
                k: v for k, v in h.items() if k.startswith("cache")
            }))
            return rows, stats

        for start in (b"", b"key-0100", b"key-9999"):
            both(lambda r, h: scan(r, h, start))

        def packed(r, h):
            stats = ReadStats()
            rows = r.read_packed(stats=stats)
            return rows, stats

        # The seeded reader decoded nothing the builder had kept.
        assert decodes[1] == 0 and decodes[0] == len(sides[0][0]._index)
        rows, _ = both(packed)
        assert rows == entries
        assert not sides[0][0]._decoded and not sides[1][0]._decoded

    def test_a_seeded_slot_is_not_trusted_over_damaged_bytes(self):
        entries = [
            (ikey.encode(b"key-%04d" % i, 1), b"\x01" + b"v" * 40)
            for i in range(100)
        ]
        fs = MemFileSystem()
        kept = build_kept(fs, "/db/000001.sst", entries, block_size=512,
                          restart_interval=16, codec="none")
        fs.corrupt("/db/000001.sst", 10, 0xFF)
        reader = open_reader(fs)
        reader.seed(kept)
        with pytest.raises(CorruptionError):
            lookup(reader, b"key-0000")
        with pytest.raises(CorruptionError):
            reader.read_packed()
