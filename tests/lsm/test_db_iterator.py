"""Tests for the DB.iterator() cursor and its lazy table pruning."""

import pytest

from repro.errors import DBError
from repro.hardware import make_profile
from repro.lsm import DB, Options
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer

VALUE = b"x" * 50


def key(i):
    return b"%06d" % i


def open_db(path, tracer=None):
    return DB.open(
        path,
        Options({"write_buffer_size": 16 * 1024,
                 "target_file_size_base": 8 * 1024,
                 "max_bytes_for_level_base": 32 * 1024,
                 "bloom_filter_bits_per_key": 10.0}),
        profile=make_profile(4, 8),
        tracer=tracer,
    )


@pytest.fixture
def multilevel():
    """A quiesced tree with multi-file L1 and L2 (no L0)."""
    db = open_db("/cursor-tree")
    for i in range(4000):
        db.put(key(i * 2654435761 % 10_000), VALUE)
    db.flush()
    assert db.version.num_files(1) > 1 and db.version.num_files(2) > 1
    yield db
    db.close()


class TestCursor:
    def test_full_walk_matches_scan(self, multilevel):
        expected = multilevel.scan()
        it = multilevel.iterator()
        it.seek(None)
        rows = []
        while it.valid:
            rows.append((it.key, it.value))
            it.next()
        it.close()
        assert rows == expected

    def test_seek_positions_at_first_key_geq_target(self, multilevel):
        it = multilevel.iterator()
        it.seek(key(5000))
        assert it.valid and it.key >= key(5000)
        first = multilevel.scan(start=key(5000), limit=1)[0]
        assert (it.key, it.value) == first
        it.close()

    def test_reseek_moves_backwards(self, multilevel):
        with multilevel.iterator() as it:
            it.seek(key(9000))
            high = it.key
            it.seek(key(10))
            assert it.key < high

    def test_end_bound_is_exclusive(self, multilevel):
        lo, hi = key(100), key(400)
        with multilevel.iterator(end=hi) as it:
            it.seek(lo)
            rows = []
            while it.valid:
                rows.append(it.key)
                it.next()
        assert rows == [k for k, _ in multilevel.scan(start=lo)
                        if k < hi]
        assert all(k < hi for k in rows)

    def test_seek_past_everything_is_invalid(self, multilevel):
        with multilevel.iterator() as it:
            it.seek(b"\xff" * 6)
            assert not it.valid
            with pytest.raises(DBError):
                _ = it.key
            with pytest.raises(DBError):
                _ = it.value
            with pytest.raises(DBError):
                it.next()

    def test_snapshot_pins_the_view(self):
        db = open_db("/cursor-snap")
        db.put(b"k1", b"old")
        snap = db.snapshot()
        db.put(b"k1", b"new")
        db.put(b"k2", b"invisible")
        with db.iterator(snapshot=snap) as it:
            it.seek(None)
            rows = []
            while it.valid:
                rows.append((it.key, it.value))
                it.next()
        assert rows == [(b"k1", b"old")]
        snap.release()
        db.close()

    def test_sees_memtable_and_files_merged(self, multilevel):
        multilevel.put(key(77), b"fresh")  # overwrites in the memtable
        with multilevel.iterator() as it:
            it.seek(key(77))
            assert it.key == key(77)
            assert it.value == b"fresh"

    def test_cursor_is_stable_under_writes_and_other_readers(self):
        """A cursor reads the memtables as they were at its seek: puts
        before, at and after its position, and a scan and a second
        cursor that both make the memtable refresh its sorted view,
        neither repeat, skip nor add a key. A re-seek sees them all."""
        db = open_db("/cursor-stable")
        for i in range(0, 60, 2):
            db.put(key(i), b"file")
        db.flush()
        for i in range(0, 60, 4):
            db.put(key(i), b"mem")
        db.scan(limit=1)  # a view exists: later puts are merged into it
        at_seek = db.scan(start=key(10))
        it = db.iterator()
        other = db.iterator()
        it.seek(key(10))
        seen = []
        while it.valid:
            seen.append((it.key, it.value))
            here = int(it.key)
            db.put(key(here - 9), b"new")  # before the cursor, a new key
            db.put(it.key, b"new")  # at it
            db.put(key(here + 3), b"new")  # ahead of it, a new key
            db.put(key(here + 4), b"new")  # ahead of it, an overwrite
            assert db.scan(start=key(here), limit=2)[0] == (it.key, b"new")
            other.seek(key(here + 3))
            assert (other.key, other.value) == (key(here + 3), b"new")
            it.next()
        assert seen == at_seek
        assert [k for k, _ in seen] == sorted({k for k, _ in seen})
        assert db.version.num_files(0) == 1  # no rotation: one memtable
        it.seek(key(10))
        rows = []
        while it.valid:
            rows.append((it.key, it.value))
            it.next()
        assert rows == db.scan(start=key(10))
        assert rows[0] == (key(10), b"new") and len(rows) > len(seen)
        it.close()
        other.close()
        db.close()

    def test_closed_cursor_rejects_use(self, multilevel):
        it = multilevel.iterator()
        it.seek(None)
        it.close()
        it.close()  # idempotent
        with pytest.raises(DBError):
            it.seek(None)
        with pytest.raises(DBError):
            it.next()

    def test_latencies_advance_virtual_clock(self, multilevel):
        before = multilevel.now_us if hasattr(multilevel, "now_us") else None
        with multilevel.iterator() as it:
            latency = it.seek(None)
            assert latency > 0
            assert it.next() > 0
        if before is not None:
            assert multilevel.now_us > before


class TestLazyPruning:
    """The acceptance property: a bounded scan opens no table whose key
    range lies outside the query's range on L1+."""

    def _touched(self, db, start, end):
        touched = []
        cache = db._table_cache
        original = cache.get

        def spying_get(file_number):
            touched.append(file_number)
            return original(file_number)

        cache.get = spying_get
        try:
            with db.iterator(end=end) as it:
                it.seek(start)
                while it.valid:
                    it.next()
        finally:
            cache.get = original
        return set(touched)

    def test_narrow_range_touches_only_overlapping_files(self, multilevel):
        start, end = key(100), key(400)
        touched = self._touched(multilevel, start, end)
        by_number = {}
        for level in range(multilevel.version.num_levels):
            for meta in multilevel.version.files_at(level):
                by_number[meta.file_number] = meta
        for number in touched:
            meta = by_number[number]
            assert meta.largest_key >= start, meta
            assert meta.smallest_key < end, meta
        # ... and pruning actually pruned: most of the tree untouched.
        assert len(touched) < len(by_number)

    def test_bounded_limit_stops_opening_tables(self, multilevel):
        # A limit-1 scan from the very front needs at most one file per
        # level; the files further right must never be opened.
        touched = self._touched(multilevel, key(0), key(2))
        per_level = {}
        for level in range(multilevel.version.num_levels):
            for meta in multilevel.version.files_at(level):
                if meta.file_number in touched:
                    per_level[level] = per_level.get(level, 0) + 1
        assert all(count == 1 for count in per_level.values())


class TestIteratorEvents:
    def test_seek_and_close_events_emitted(self):
        ring = RingSink()
        db = open_db("/cursor-trace", tracer=Tracer(ring))
        for i in range(200):
            db.put(key(i), VALUE)
        db.flush()
        with db.iterator() as it:
            it.seek(key(10))
            it.next()
        types = [type(e).TYPE for e in ring.events]
        assert "iterator.seek" in types
        assert "iterator.close" in types
        close = [e for e in ring.events
                 if type(e).TYPE == "iterator.close"][-1]
        assert close.seeks == 1 and close.nexts == 1
        db.close()
