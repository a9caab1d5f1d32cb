"""Tests for the memtable."""

import random

import pytest

from repro.lsm import ikey
from repro.lsm.memtable import MemTable, ValueKind


@pytest.fixture
def mem():
    return MemTable(capacity_bytes=1 << 20)


class TestBasics:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MemTable(0)

    def test_empty(self, mem):
        assert mem.empty()
        assert mem.num_entries == 0
        found, _, _ = mem.get(b"k")
        assert not found

    def test_add_and_get(self, mem):
        mem.add(1, ValueKind.VALUE, b"k", b"v")
        found, kind, value = mem.get(b"k")
        assert found and kind is ValueKind.VALUE and value == b"v"

    def test_newest_version_wins(self, mem):
        mem.add(1, ValueKind.VALUE, b"k", b"old")
        mem.add(2, ValueKind.VALUE, b"k", b"new")
        _, _, value = mem.get(b"k")
        assert value == b"new"

    def test_tombstone_visible(self, mem):
        mem.add(1, ValueKind.VALUE, b"k", b"v")
        mem.add(2, ValueKind.DELETE, b"k", b"")
        found, kind, _ = mem.get(b"k")
        assert found and kind is ValueKind.DELETE

    def test_snapshot_read_sees_old_version(self, mem):
        mem.add(5, ValueKind.VALUE, b"k", b"old")
        mem.add(9, ValueKind.VALUE, b"k", b"new")
        found, _, value = mem.get(b"k", snapshot_seq=7)
        assert found and value == b"old"

    def test_snapshot_before_first_write_sees_nothing(self, mem):
        mem.add(5, ValueKind.VALUE, b"k", b"v")
        found, _, _ = mem.get(b"k", snapshot_seq=4)
        assert not found


class TestAccounting:
    def test_memory_usage_grows(self, mem):
        before = mem.approximate_memory_usage
        mem.add(1, ValueKind.VALUE, b"key", b"x" * 100)
        assert mem.approximate_memory_usage > before + 100

    def test_should_flush_at_capacity(self):
        mem = MemTable(capacity_bytes=1024)
        assert not mem.should_flush()
        for i in range(20):
            mem.add(i + 1, ValueKind.VALUE, b"%04d" % i, b"v" * 64)
        assert mem.should_flush()

    def test_sequence_tracking(self, mem):
        mem.add(10, ValueKind.VALUE, b"a", b"")
        mem.add(12, ValueKind.VALUE, b"b", b"")
        assert mem.last_seq == 12


def user_keys(entries):
    return [ikey.decode(internal)[0] for internal, _, _ in entries]


class TestIteration:
    def test_entries_sorted_by_user_key(self, mem):
        for i, key in enumerate([b"c", b"a", b"b"]):
            mem.add(i + 1, ValueKind.VALUE, key, key)
        assert user_keys(mem.seek()) == [b"a", b"b", b"c"]
        assert user_keys(mem.view()) == [b"a", b"b", b"c"]

    def test_versions_newest_first(self, mem):
        mem.add(1, ValueKind.VALUE, b"k", b"v1")
        mem.add(2, ValueKind.VALUE, b"k", b"v2")
        assert [
            (ikey.decode(internal)[1], kind, value)
            for internal, kind, value in mem.seek()
        ] == [(2, ValueKind.VALUE, b"v2"), (1, ValueKind.VALUE, b"v1")]

    def test_seek_into_the_middle(self, mem):
        for i, key in enumerate([b"a", b"c", b"c", b"e", b"g"]):
            mem.add(i + 1, ValueKind.VALUE, key, b"%d" % i)
        # An exact hit lands on the key's newest version, a gap on the
        # next key up; NUL bytes and prefixes order as user keys do.
        assert user_keys(mem.seek(b"c")) == [b"c", b"c", b"e", b"g"]
        assert next(mem.seek(b"c"))[2] == b"2"
        assert user_keys(mem.seek(b"d")) == [b"e", b"g"]
        mem.add(6, ValueKind.VALUE, b"c\x00", b"")
        mem.add(7, ValueKind.VALUE, b"cc", b"")
        assert user_keys(mem.seek(b"c\x00")) == [b"c\x00", b"cc", b"e", b"g"]

    def test_seek_past_the_end(self, mem):
        assert list(mem.seek(b"a")) == []
        mem.add(1, ValueKind.VALUE, b"a", b"")
        assert list(mem.seek(b"b")) == []
        assert user_keys(mem.seek(b"a")) == [b"a"]

    def test_view_kept_current_matches_a_fresh_sort(self, mem):
        """Entries added after a view exists are merged in, never
        re-sorted from scratch: the result must equal what a memtable
        that saw the same adds and built its view once would hold."""
        rng = random.Random(7)
        twin = MemTable(capacity_bytes=1 << 20)
        for seq in range(1, 400):
            key = b"k%03d" % rng.randrange(120)
            kind = ValueKind.DELETE if rng.random() < 0.1 else ValueKind.VALUE
            mem.add(seq, kind, key, b"v%d" % seq)
            twin.add(seq, kind, key, b"v%d" % seq)
            if rng.random() < 0.3:
                mem.view()  # refresh at irregular intervals
        assert mem.view() == twin.view()
        assert mem.view() == sorted(mem.view())

    def test_a_view_handed_out_is_never_mutated(self, mem):
        mem.add(1, ValueKind.VALUE, b"b", b"")
        held = mem.view()
        cursor = mem.seek()
        frozen = list(held)
        mem.add(2, ValueKind.VALUE, b"a", b"")
        mem.add(3, ValueKind.VALUE, b"c", b"")
        assert user_keys(mem.view()) == [b"a", b"b", b"c"]
        assert held == frozen
        assert user_keys(cursor) == [b"b"]


def bloom_negative(mem, user_key):
    """The filter rules ``user_key`` out (what a point read checks)."""
    return mem._bloom is not None and not mem._bloom.may_contain(user_key)


class TestMemtableBloom:
    def test_bloom_negative_short_circuits(self):
        mem = MemTable(1 << 20, bloom_bits=10, whole_key_filtering=True)
        mem.add(1, ValueKind.VALUE, b"present", b"v")
        assert not bloom_negative(mem, b"present")
        # An absent key is *usually* filtered; check over many keys.
        negatives = sum(bloom_negative(mem, b"absent-%d" % i) for i in range(100))
        assert negatives > 90

    def test_no_bloom_never_negative(self, mem):
        assert not bloom_negative(mem, b"anything")

    def test_get_honors_bloom(self):
        mem = MemTable(1 << 20, bloom_bits=10, whole_key_filtering=True)
        mem.add(1, ValueKind.VALUE, b"k", b"v")
        found, _, value = mem.get(b"k")
        assert found and value == b"v"
