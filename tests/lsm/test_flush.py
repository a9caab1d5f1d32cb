"""Tests for flush jobs (memtables -> L0 table)."""

import pytest

from repro.lsm import ikey
from repro.lsm.env import MemFileSystem
from repro.lsm.flush import run_flush
from repro.lsm.memtable import MemTable, ValueKind
from repro.lsm.snapshot import SnapshotList
from repro.lsm.sstable import SSTableBuilder, SSTableReader
from tests.lsm.test_sstable import lookup


def make_mem(entries, capacity=1 << 20):
    mem = MemTable(capacity)
    for seq, kind, key, value in entries:
        mem.add(seq, kind, key, value)
    return mem


def builder_factory(fs):
    counter = [100]

    def open_builder():
        counter[0] += 1
        return SSTableBuilder(fs, f"/db/{counter[0]:06d}.sst")

    return open_builder


def flushed_entries(fs, result):
    reader = SSTableReader(fs.open_random("/db/000101.sst"),
                           result.file_meta.file_number)
    return list(reader.iter_from(None))


class TestMultiMemtableMerge:
    def test_interleaved_keys_in_order(self):
        fs = MemFileSystem()
        m1 = make_mem([(1, ValueKind.VALUE, b"a", b""),
                       (3, ValueKind.VALUE, b"c", b"")])
        m2 = make_mem([(2, ValueKind.VALUE, b"b", b""),
                       (4, ValueKind.VALUE, b"d", b"")])
        result = run_flush([m1, m2], builder_factory(fs))
        keys = [ikey.decode(k)[0] for k, _, _ in flushed_entries(fs, result)]
        assert keys == [b"a", b"b", b"c", b"d"]

    def test_cross_table_shadowed_version_dropped(self):
        fs = MemFileSystem()
        m1 = make_mem([(1, ValueKind.VALUE, b"k", b"old")])
        m2 = make_mem([(5, ValueKind.VALUE, b"k", b"new")])
        result = run_flush([m1, m2], builder_factory(fs))
        assert result.entries_in == 2 and result.entries_out == 1
        assert [v for _, _, v in flushed_entries(fs, result)] == [b"new"]

    def test_live_snapshot_retains_cross_table_version(self):
        """A snapshot between the two versions pins the older one; one
        below both pins nothing extra. Newest sorts first."""
        fs = MemFileSystem()
        m1 = make_mem([(1, ValueKind.VALUE, b"k", b"old"),
                       (2, ValueKind.VALUE, b"j", b"j-old")])
        m2 = make_mem([(5, ValueKind.VALUE, b"k", b"new"),
                       (6, ValueKind.VALUE, b"j", b"j-new")])
        snapshots = SnapshotList()
        snapshots.acquire(1)  # sees k@1, predates every version of j
        result = run_flush([m1, m2], builder_factory(fs), snapshots)
        assert result.entries_out == 3
        got = [(ikey.decode(k), v) for k, _, v in flushed_entries(fs, result)]
        assert got == [((b"j", 6), b"j-new"),
                       ((b"k", 5), b"new"),
                       ((b"k", 1), b"old")]


class TestRunFlush:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            run_flush([], lambda: None)

    def test_basic_flush(self):
        fs = MemFileSystem()
        mem = make_mem([(i + 1, ValueKind.VALUE, b"%04d" % i, b"v%d" % i)
                        for i in range(100)])
        result = run_flush([mem], builder_factory(fs))
        assert result.file_meta is not None
        assert result.entries_in == 100
        assert result.entries_out == 100
        assert result.bytes_out == result.file_meta.file_size
        reader = SSTableReader(fs.open_random("/db/000101.sst"),
                               result.file_meta.file_number)
        found, _, value, _ = lookup(reader, b"0042")
        assert found and value == b"v42"

    def test_duplicate_versions_collapsed(self):
        fs = MemFileSystem()
        mem = make_mem([
            (1, ValueKind.VALUE, b"k", b"v1"),
            (2, ValueKind.VALUE, b"k", b"v2"),
            (3, ValueKind.VALUE, b"k", b"v3"),
        ])
        result = run_flush([mem], builder_factory(fs))
        assert result.entries_in == 3
        assert result.entries_out == 1
        reader = SSTableReader(fs.open_random("/db/000101.sst"), 101)
        found, _, value, _ = lookup(reader, b"k")
        assert value == b"v3"

    def test_tombstones_survive_flush(self):
        fs = MemFileSystem()
        mem = make_mem([
            (1, ValueKind.VALUE, b"k", b"v"),
            (2, ValueKind.DELETE, b"k", b""),
        ])
        result = run_flush([mem], builder_factory(fs))
        reader = SSTableReader(fs.open_random("/db/000101.sst"), 101)
        found, kind, _, _ = lookup(reader, b"k")
        assert found and kind is ValueKind.DELETE
        assert result.entries_out == 1

    def test_multi_memtable_batch(self):
        fs = MemFileSystem()
        m1 = make_mem([(1, ValueKind.VALUE, b"a", b"1")])
        m2 = make_mem([(2, ValueKind.VALUE, b"b", b"2")])
        result = run_flush([m1, m2], builder_factory(fs))
        assert result.entries_out == 2
        assert result.bytes_in == (m1.approximate_memory_usage
                                   + m2.approximate_memory_usage)

    def test_empty_memtable_produces_no_file(self):
        mem = MemTable(1 << 20)
        result = run_flush([mem], lambda: pytest.fail("builder should not open"))
        assert result.file_meta is None
        assert result.bytes_out == 0
