"""Tests for the merged-iterator building blocks."""

from types import SimpleNamespace

from repro.lsm import ikey
from repro.lsm.iterator import (
    DeferredSource,
    concat_source,
    file_source,
    lazy_merge,
    user_view,
)
from repro.lsm.memtable import MemTable, ValueKind


def mem_with(entries):
    mem = MemTable(1 << 20)
    for seq, kind, key, value in entries:
        mem.add(seq, kind, key, value)
    return mem


class TestMemtableSeek:
    def test_yields_internal_keys_in_order(self):
        mem = mem_with([(1, ValueKind.VALUE, b"b", b""),
                        (2, ValueKind.VALUE, b"a", b"")])
        keys = [ikey.decode(k)[0] for k, _, _ in mem.seek()]
        assert keys == [b"a", b"b"]

    def test_start_filter(self):
        mem = mem_with([(1, ValueKind.VALUE, b"a", b""),
                        (2, ValueKind.VALUE, b"c", b"")])
        keys = [ikey.decode(k)[0] for k, _, _ in mem.seek(b"b")]
        assert keys == [b"c"]


class TestMergePlainSources:
    def test_global_internal_order(self):
        m1 = mem_with([(1, ValueKind.VALUE, b"a", b""),
                       (3, ValueKind.VALUE, b"c", b"")])
        m2 = mem_with([(2, ValueKind.VALUE, b"b", b"")])
        merged = lazy_merge([m1.seek(), m2.seek()])
        keys = [ikey.decode(k)[0] for k, _, _ in merged]
        assert keys == [b"a", b"b", b"c"]

    def test_same_user_key_newest_first(self):
        m1 = mem_with([(1, ValueKind.VALUE, b"k", b"old")])
        m2 = mem_with([(9, ValueKind.VALUE, b"k", b"new")])
        merged = lazy_merge([m1.seek(), m2.seek()])
        values = [v for _, _, v in merged]
        assert values == [b"new", b"old"]

    def test_empty_sources(self):
        assert list(lazy_merge([])) == []
        assert list(lazy_merge([iter([])])) == []


class TestUserView:
    def test_collapses_versions(self):
        mem = mem_with([(1, ValueKind.VALUE, b"k", b"v1"),
                        (2, ValueKind.VALUE, b"k", b"v2")])
        rows = list(user_view(lazy_merge([mem.seek()])))
        assert rows == [(b"k", b"v2")]

    def test_hides_tombstones(self):
        mem = mem_with([(1, ValueKind.VALUE, b"a", b"x"),
                        (2, ValueKind.DELETE, b"a", b""),
                        (3, ValueKind.VALUE, b"b", b"y")])
        rows = list(user_view(lazy_merge([mem.seek()])))
        assert rows == [(b"b", b"y")]

    def test_tombstone_does_not_hide_newer_write(self):
        mem = mem_with([(1, ValueKind.DELETE, b"k", b""),
                        (2, ValueKind.VALUE, b"k", b"alive")])
        rows = list(user_view(lazy_merge([mem.seek()])))
        assert rows == [(b"k", b"alive")]

    def test_end_bound_is_exclusive(self):
        mem = mem_with([(1, ValueKind.VALUE, b"a", b"1"),
                        (2, ValueKind.VALUE, b"b", b"2"),
                        (3, ValueKind.VALUE, b"c", b"3")])
        rows = list(user_view(lazy_merge([mem.seek()]),
                              end=b"b"))
        assert rows == [(b"a", b"1")]

    def test_end_bound_abandons_merge_without_draining(self):
        pulled = []

        def spy():
            for seq, key in enumerate([b"a", b"m", b"z"], start=1):
                pulled.append(key)
                yield ikey.encode(key, seq), ValueKind.VALUE, b""

        rows = list(user_view(spy(), end=b"m"))
        assert rows == [(b"a", b"")]
        assert b"z" not in pulled


def entry(key, seq=1, kind=ValueKind.VALUE, value=b""):
    return ikey.encode(key, seq), kind, value


class TestLazyMerge:
    def test_matches_sorted_entries(self):
        m1 = mem_with([(1, ValueKind.VALUE, b"a", b"x"),
                       (4, ValueKind.VALUE, b"c", b"y")])
        m2 = mem_with([(2, ValueKind.DELETE, b"b", b""),
                       (3, ValueKind.VALUE, b"c", b"z")])
        expected = sorted(list(m1.seek())
                          + list(m2.seek()))
        lazy = list(lazy_merge([m1.seek(), m2.seek()]))
        assert lazy == expected

    def test_deferred_source_opened_when_bound_reached(self):
        opened = []

        def open_b():
            opened.append("b")
            return iter([entry(b"b")])

        merged = lazy_merge([iter([entry(b"a"), entry(b"c")]),
                             DeferredSource(ikey.seek_key(b"b"), open_b)])
        assert next(merged)[0] == ikey.encode(b"a", 1)
        assert opened == []  # bound b not yet the minimum
        assert next(merged)[0] == ikey.encode(b"b", 1)
        assert opened == ["b"]

    def test_source_past_stop_point_never_opened(self):
        opened = []

        def open_z():
            opened.append("z")
            return iter([entry(b"z")])

        merged = lazy_merge([iter([entry(b"a"), entry(b"b")]),
                             DeferredSource(ikey.seek_key(b"z"), open_z)])
        assert next(merged)[0] == ikey.encode(b"a", 1)
        assert next(merged)[0] == ikey.encode(b"b", 1)
        del merged  # consumer stops before the z bound
        assert opened == []

    def test_empty_deferred_source_is_dropped(self):
        merged = lazy_merge([DeferredSource(ikey.seek_key(b"a"),
                                            lambda: iter([])),
                             iter([entry(b"b")])])
        assert [k for k, _, _ in merged] == [ikey.encode(b"b", 1)]

    def test_all_deferred(self):
        sources = [DeferredSource(ikey.seek_key(k),
                                  lambda k=k: iter([entry(k)]))
                   for k in (b"c", b"a", b"b")]
        keys = [ikey.decode(k)[0] for k, _, _ in lazy_merge(sources)]
        assert keys == [b"a", b"b", b"c"]


def fmeta(lo, hi):
    return SimpleNamespace(smallest_key=lo, largest_key=hi)


class TestFileSource:
    def test_bound_is_file_smallest(self):
        src = file_source(fmeta(b"f", b"m"), lambda: iter([]))
        assert src.bound == ikey.seek_key(b"f")

    def test_start_inside_file_raises_bound(self):
        src = file_source(fmeta(b"f", b"m"), lambda: iter([]), start=b"h")
        assert src.bound == ikey.seek_key(b"h")

    def test_start_before_file_keeps_file_bound(self):
        src = file_source(fmeta(b"f", b"m"), lambda: iter([]), start=b"a")
        assert src.bound == ikey.seek_key(b"f")


class TestConcatSource:
    def _run(self, files, consumed=None, **kwargs):
        opened = []

        def open_fn(meta):
            opened.append(meta.smallest_key)
            return iter([entry(meta.smallest_key)])

        src = concat_source(files, open_fn, **kwargs)
        keys = []
        for k, _, _ in src.open_fn():
            keys.append(ikey.decode(k)[0])
            if consumed is not None and len(keys) >= consumed:
                break
        return opened, keys

    def test_empty_run_is_none(self):
        assert concat_source([], lambda meta: iter([])) is None

    def test_walks_files_in_order_one_at_a_time(self):
        files = [fmeta(b"a", b"c"), fmeta(b"d", b"f"), fmeta(b"g", b"i")]
        opened, keys = self._run(files, consumed=1)
        assert keys == [b"a"]
        assert opened == [b"a"]  # later files untouched

    def test_end_stops_before_disjoint_files(self):
        files = [fmeta(b"a", b"c"), fmeta(b"d", b"f"), fmeta(b"g", b"i")]
        opened, keys = self._run(files, end=b"e")
        # d..f straddles end (its entries are range-checked downstream by
        # user_view); g..i is wholly past it and must not be opened.
        assert opened == [b"a", b"d"]

    def test_bound_respects_start(self):
        files = [fmeta(b"d", b"f")]
        src = concat_source(files, lambda meta: iter([]), start=b"e")
        assert src.bound == ikey.seek_key(b"e")
