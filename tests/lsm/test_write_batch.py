"""Tests for atomic write batches."""

import pytest

from repro.errors import DBError
from repro.hardware import make_profile
from repro.lsm import DB, Env, Options
from repro.lsm.write_batch import WriteBatch


def open_db(env=None, path="/wb-db"):
    return DB.open(path, Options({"write_buffer_size": 16 * 1024}),
                   env=env, profile=make_profile(4, 8))


class TestWriteBatchObject:
    def test_builder_chaining(self):
        batch = WriteBatch().put(b"a", b"1").delete(b"b").put(b"c", b"3")
        assert len(batch) == 3

    def test_empty_key_rejected(self):
        with pytest.raises(DBError):
            WriteBatch().put(b"", b"v")
        with pytest.raises(DBError):
            WriteBatch().delete(b"")

    def test_clear(self):
        batch = WriteBatch().put(b"a", b"1")
        batch.clear()
        assert len(batch) == 0


class TestDBWrite:
    def test_batch_applied(self):
        with open_db() as db:
            db.put(b"doomed", b"x")
            batch = WriteBatch().put(b"a", b"1").put(b"b", b"2").delete(b"doomed")
            latency = db.write(batch)
            assert latency > 0
            assert db.get(b"a") == b"1"
            assert db.get(b"b") == b"2"
            assert db.get(b"doomed") is None

    def test_empty_batch_is_noop(self):
        with open_db() as db:
            assert db.write(WriteBatch()) == 0.0

    def test_batch_order_within_key(self):
        with open_db() as db:
            batch = WriteBatch().put(b"k", b"v1").delete(b"k").put(b"k", b"v2")
            db.write(batch)
            assert db.get(b"k") == b"v2"

    def test_snapshot_sees_none_or_all(self):
        with open_db() as db:
            db.put(b"k1", b"old")
            snap = db.snapshot()
            db.write(WriteBatch().put(b"k1", b"new").put(b"k2", b"new"))
            # The pre-batch snapshot sees neither batch write.
            assert db.get(b"k1", snapshot=snap) == b"old"
            assert db.get(b"k2", snapshot=snap) is None
            snap.release()

    def test_batch_survives_crash(self):
        env = Env()
        db = open_db(env)
        db.write(WriteBatch().put(b"a", b"1").put(b"b", b"2"))
        del db  # crash: batch only in WAL
        db2 = open_db(env)
        assert db2.get(b"a") == b"1"
        assert db2.get(b"b") == b"2"
        db2.close()

    def test_large_batch_triggers_flush(self):
        with open_db() as db:
            batch = WriteBatch()
            for i in range(500):
                batch.put(b"%05d" % i, b"x" * 64)
            db.write(batch)
            # The batch filled one memtable, which rotated after it.
            assert db.memtables[0].empty()
            for i in range(0, 500, 97):
                assert db.get(b"%05d" % i) == b"x" * 64


class TestDoubleCrashRecovery:
    def test_data_survives_repeated_crashes(self):
        env = Env()
        db = open_db(env)
        db.put(b"k", b"v")
        del db  # crash 1
        db = open_db(env)
        assert db.get(b"k") == b"v"
        del db  # crash 2 — recovered entry must have been re-persisted
        db = open_db(env)
        assert db.get(b"k") == b"v"
        del db  # crash 3
        db = open_db(env)
        assert db.get(b"k") == b"v"
        db.close()

    def test_wal_numbers_never_collide_after_reopen(self):
        env = Env()
        db = open_db(env)
        db.put(b"a", b"1")
        del db
        db = open_db(env)
        db.put(b"b", b"2")
        del db
        db = open_db(env)
        assert db.get(b"a") == b"1"
        assert db.get(b"b") == b"2"
        db.close()
