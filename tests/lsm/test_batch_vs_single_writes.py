"""Batch-vs-single write parity audit.

``DB.write`` (batch) must follow RocksDB's write-group accounting:
per-key effects — data visibility, sequence numbers, keys-written and
WAL-byte tickers, the durable watermark — match N single ``put`` calls
exactly, while per-*write* effects — commit count, WAL-write count,
sync boundaries under ``use_fsync`` — count the batch once.
"""

import pytest

from repro.errors import DBError, InjectedIOError, SimulatedCrash
from repro.hardware import make_profile
from repro.lsm import DB, Env, Options
from repro.lsm.faults import FaultFS
from repro.lsm.ikey import decode
from repro.lsm.memtable import ValueKind
from repro.lsm.statistics import Statistics, Ticker
from repro.lsm.write_batch import BatchOp, WriteBatch

N = 20


def open_db(path, *, use_fsync, env=None):
    stats = Statistics()
    db = DB.open(
        path,
        Options({"use_fsync": use_fsync}),
        env=env,
        profile=make_profile(4, 8),
        statistics=stats,
    )
    return db, stats


def memtable_sequences(db):
    return [
        decode(internal)[1]
        for mt in db.memtables for internal, _, _ in mt.view()
    ]


def kv(i):
    return b"key-%04d" % i, b"value-%04d" % i


@pytest.mark.parametrize("use_fsync", [False, True])
class TestBatchEqualsSingles:
    def test_per_key_effects_match(self, use_fsync):
        single, s_stats = open_db("/audit-single", use_fsync=use_fsync)
        batched, b_stats = open_db("/audit-batch", use_fsync=use_fsync)
        batch = WriteBatch()
        for i in range(N):
            k, v = kv(i)
            single.put(k, v)
            batch.put(k, v)
        batched.write(batch)

        assert single.last_sequence == batched.last_sequence == N
        assert single.durable_sequence == batched.durable_sequence
        if use_fsync:
            assert batched.durable_sequence == N
        for i in range(N):
            k, v = kv(i)
            assert single.get(k) == v
            assert batched.get(k) == v
        for ticker in (Ticker.NUMBER_KEYS_WRITTEN, Ticker.WAL_BYTES):
            assert s_stats.ticker(ticker) == b_stats.ticker(ticker), ticker
        assert b_stats.ticker(Ticker.NUMBER_KEYS_WRITTEN) == N
        single.close()
        batched.close()

    def test_per_write_effects_count_batch_once(self, use_fsync):
        single, s_stats = open_db("/audit-single2", use_fsync=use_fsync)
        batched, b_stats = open_db("/audit-batch2", use_fsync=use_fsync)
        batch = WriteBatch()
        for i in range(N):
            k, v = kv(i)
            single.put(k, v)
            batch.put(k, v)
        batched.write(batch)

        assert s_stats.ticker(Ticker.WRITE_DONE_BY_SELF) == N
        assert b_stats.ticker(Ticker.WRITE_DONE_BY_SELF) == 1
        assert s_stats.ticker(Ticker.WRITE_WITH_WAL) == N
        assert b_stats.ticker(Ticker.WRITE_WITH_WAL) == 1
        if use_fsync:
            assert s_stats.ticker(Ticker.WAL_SYNCS) == N
            assert b_stats.ticker(Ticker.WAL_SYNCS) == 1
        else:
            assert s_stats.ticker(Ticker.WAL_SYNCS) == 0
            assert b_stats.ticker(Ticker.WAL_SYNCS) == 0
        single.close()
        batched.close()

    def test_batch_recovers_like_singles(self, use_fsync):
        single, _ = open_db("/audit-single3", use_fsync=use_fsync)
        batched, _ = open_db("/audit-batch3", use_fsync=use_fsync)
        batch = WriteBatch()
        for i in range(N):
            k, v = kv(i)
            single.put(k, v)
            batch.put(k, v)
        batched.write(batch)
        single = single.crash_and_reopen()
        batched = batched.crash_and_reopen()
        # Whatever survives the crash must survive identically: both
        # paths synced (or didn't) at the same watermark.
        for i in range(N):
            k, v = kv(i)
            assert single.get(k) == batched.get(k)
        assert single.last_sequence == batched.last_sequence
        single.close()
        batched.close()


class TestBatchAtomicity:
    def test_invalid_op_mid_batch_leaves_db_untouched(self):
        # Regression: validation used to happen per-op mid-loop, so a
        # bad key discovered halfway left earlier ops in the WAL with
        # no committed sequence — half a batch after replay.
        db, stats = open_db("/audit-atomic", use_fsync=True)
        batch = WriteBatch()
        batch.put(b"good-1", b"v")
        # WriteBatch.put rejects empty keys at build time, so smuggle
        # one in the way a deserialized/hand-built batch could carry it:
        # DB.write must still validate before touching WAL or memtable.
        batch.ops.append(BatchOp(kind=ValueKind.VALUE, key=b"", value=b"v"))
        batch.put(b"good-2", b"v")
        with pytest.raises(DBError):
            db.write(batch)
        assert db.last_sequence == 0
        assert db.get(b"good-1") is None
        assert stats.ticker(Ticker.NUMBER_KEYS_WRITTEN) == 0
        db = db.crash_and_reopen()
        assert db.get(b"good-1") is None
        assert db.last_sequence == 0
        db.close()

    def test_empty_batch_is_free(self):
        db, stats = open_db("/audit-empty", use_fsync=True)
        assert db.write(WriteBatch()) == 0.0
        assert db.last_sequence == 0
        assert stats.ticker(Ticker.WRITE_DONE_BY_SELF) == 0
        db.close()

    @pytest.mark.parametrize("use_fsync", [False, True])
    @pytest.mark.parametrize("batched", [True, False], ids=["group", "single"])
    def test_failed_append_changes_nothing(self, batched, use_fsync):
        # The WAL append comes before any memtable insert, and the
        # sequences commit after both: a write whose append fails is
        # neither readable nor holding sequence numbers.
        fs = FaultFS()
        db, stats = open_db("/audit-io", use_fsync=use_fsync, env=Env(fs=fs))
        db.put(b"before", b"v")
        written = stats.ticker(Ticker.NUMBER_KEYS_WRITTEN)
        batch = WriteBatch().put(b"x", b"1")
        if batched:
            batch.put(b"y", b"2").put(b"z", b"3")
        fs.schedule_error(fs.op_index)  # the write's one WAL append
        with pytest.raises(InjectedIOError):
            if batched:
                db.write(batch)
            else:
                db.put(b"x", b"1")
        for op in batch.ops:
            assert db.get(op.key) is None
        assert stats.ticker(Ticker.NUMBER_KEYS_WRITTEN) == written
        db.put(b"after", b"v")
        # The next write takes a sequence no memtable entry holds.
        seqs = memtable_sequences(db)
        assert sorted(seqs) == sorted(set(seqs))
        assert max(seqs) == db.last_sequence
        assert db.get(b"before") == db.get(b"after") == b"v"
        db.close()


class TestBatchAcrossCrash:
    """What a crash inside a batch's WAL append recovers.

    The batch is N records in one append and replay stops at the first
    damaged record, so a torn append recovers a prefix of the batch:
    its first k ops, in order, for some k — not all or nothing."""

    KEYS = [b"batch-%d" % i for i in range(4)]

    def recovered_ops(self, seed):
        fs = FaultFS(seed=seed)
        env = Env(fs=fs)
        db, _ = open_db("/torn", use_fsync=True, env=env)
        db.put(b"durable", b"d")
        batch = WriteBatch()
        for key in self.KEYS:
            batch.put(key, key + b"-value")
        fs.schedule_crash(fs.op_index)  # tear the batch's one append
        with pytest.raises(SimulatedCrash):
            db.write(batch)
        fs.crash()
        db, _ = open_db("/torn", use_fsync=True, env=env)
        assert db.get(b"durable") == b"d"
        got = [db.get(key) for key in self.KEYS]
        db.close()
        return got

    def test_recovery_surfaces_a_prefix_of_the_batch(self):
        partial = 0
        for seed in range(40):
            got = self.recovered_ops(seed)
            k = sum(value is not None for value in got)
            assert got == [key + b"-value" for key in self.KEYS[:k]] + [
                None
            ] * (len(self.KEYS) - k), (seed, got)
            partial += 0 < k < len(self.KEYS)
        # Not all-or-nothing: some crash recovers only part of the batch.
        assert partial > 0
