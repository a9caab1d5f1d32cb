"""Tests for snapshots: consistent reads across flushes and compactions."""

import pytest

from repro.errors import DBError
from repro.hardware import make_profile
from repro.lsm import DB, Options
from repro.lsm.snapshot import Snapshot, SnapshotList, may_drop_version


def open_db(path="/snap-db"):
    return DB.open(path, Options({"write_buffer_size": 16 * 1024}),
                   profile=make_profile(4, 8))


class TestSnapshotList:
    def test_acquire_release(self):
        snaps = SnapshotList()
        s = snaps.acquire(10)
        assert len(snaps) == 1
        s.release()
        assert len(snaps) == 0

    def test_double_release_same_handle_is_noop(self):
        # Regression: an explicit release() followed by the context
        # manager's __exit__ used to raise "snapshot already released".
        snaps = SnapshotList()
        s = snaps.acquire(10)
        s.release()
        s.release()  # same handle: idempotent
        assert len(snaps) == 0

    def test_release_never_acquired_handle_rejected(self):
        snaps = SnapshotList()
        snaps.acquire(10)
        stray = Snapshot(sequence=99, _list=snaps)
        with pytest.raises(DBError):
            stray.release()

    def test_double_release_does_not_steal_duplicate(self):
        # Two handles pinning the same sequence: releasing one of them
        # twice must not decrement the other handle's refcount.
        snaps = SnapshotList()
        a = snaps.acquire(10)
        b = snaps.acquire(10)
        a.release()
        a.release()  # no-op, b's pin survives
        assert len(snaps) == 1
        b.release()
        assert len(snaps) == 0

    def test_duplicates_allowed(self):
        snaps = SnapshotList()
        a = snaps.acquire(10)
        b = snaps.acquire(10)
        a.release()
        assert len(snaps) == 1
        b.release()

    def test_oldest(self):
        snaps = SnapshotList()
        assert not snaps.has_snapshot_in(0, 1 << 62)
        snaps.acquire(30)
        snaps.acquire(10)
        assert not snaps.has_snapshot_in(0, 10)
        assert snaps.has_snapshot_in(10, 11)

    def test_has_snapshot_in(self):
        snaps = SnapshotList()
        snaps.acquire(15)
        assert snaps.has_snapshot_in(10, 20)
        assert snaps.has_snapshot_in(15, 16)
        assert not snaps.has_snapshot_in(16, 30)
        assert not snaps.has_snapshot_in(20, 10)

    def test_may_drop_version(self):
        snaps = SnapshotList()
        assert may_drop_version(10, 5, snaps)  # no snapshots at all
        assert may_drop_version(10, 5, None)
        snaps.acquire(7)
        assert not may_drop_version(10, 5, snaps)  # snapshot sees v5
        assert may_drop_version(5, 3, snaps)  # 7 not in [3, 5)


class TestSnapshotReads:
    def test_snapshot_ignores_later_writes(self):
        with open_db() as db:
            db.put(b"k", b"v1")
            with db.snapshot() as snap:
                db.put(b"k", b"v2")
                assert db.get(b"k") == b"v2"
                assert db.get(b"k", snapshot=snap) == b"v1"

    def test_snapshot_ignores_later_deletes(self):
        with open_db() as db:
            db.put(b"k", b"v")
            with db.snapshot() as snap:
                db.delete(b"k")
                assert db.get(b"k") is None
                assert db.get(b"k", snapshot=snap) == b"v"

    def test_snapshot_before_key_existed(self):
        with open_db() as db:
            with db.snapshot() as snap:
                db.put(b"k", b"v")
                assert db.get(b"k", snapshot=snap) is None

    def test_snapshot_survives_flush(self):
        with open_db() as db:
            db.put(b"k", b"v1")
            with db.snapshot() as snap:
                db.put(b"k", b"v2")
                db.flush()
                assert db.get(b"k", snapshot=snap) == b"v1"

    def test_snapshot_survives_compaction(self):
        with open_db() as db:
            for i in range(300):
                db.put(b"%04d" % i, b"old")
            with db.snapshot() as snap:
                for i in range(300):
                    db.put(b"%04d" % i, b"new")
                for _ in range(6):
                    db.flush()
                db.compact_range()
                assert db.get(b"0042", snapshot=snap) == b"old"
                assert db.get(b"0042") == b"new"

    def test_released_snapshot_allows_gc(self):
        with open_db() as db:
            db.put(b"k", b"v1")
            snap = db.snapshot()
            db.put(b"k", b"v2")
            snap.release()
            db.flush()
            db.compact_range()
            assert db.get(b"k") == b"v2"
            assert db.live_snapshots == 0

    def test_snapshot_scan(self):
        with open_db() as db:
            db.put(b"a", b"1")
            db.put(b"b", b"2")
            with db.snapshot() as snap:
                db.put(b"c", b"3")
                db.delete(b"a")
                assert db.scan(snapshot=snap) == [(b"a", b"1"), (b"b", b"2")]
                assert db.scan() == [(b"b", b"2"), (b"c", b"3")]

    def test_snapshot_scan_sees_old_versions(self):
        with open_db() as db:
            db.put(b"k", b"old")
            with db.snapshot() as snap:
                db.put(b"k", b"new")
                db.flush()
                assert db.scan(snapshot=snap) == [(b"k", b"old")]

    def test_multiple_snapshots_layered(self):
        with open_db() as db:
            db.put(b"k", b"v1")
            s1 = db.snapshot()
            db.put(b"k", b"v2")
            s2 = db.snapshot()
            db.put(b"k", b"v3")
            db.flush()
            db.compact_range()
            assert db.get(b"k", snapshot=s1) == b"v1"
            assert db.get(b"k", snapshot=s2) == b"v2"
            assert db.get(b"k") == b"v3"
            s1.release()
            s2.release()

    def test_explicit_release_inside_context_manager(self):
        # Regression: releasing early inside the `with` block made
        # __exit__ raise DBError("snapshot already released").
        with open_db() as db:
            db.put(b"k", b"v")
            with db.snapshot() as snap:
                assert db.get(b"k", snapshot=snap) == b"v"
                snap.release()  # __exit__ must tolerate this
            assert db.live_snapshots == 0
