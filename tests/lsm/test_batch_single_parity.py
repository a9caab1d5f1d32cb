"""Batch-vs-singles parity across the write-path config matrix.

``put``/``delete`` and ``write`` commit through the one ``DB._write``,
whose data path branches on its input: one op encodes its WAL record
inline, a batch's ops land in one WAL append (group commit). These
properties pin the two branches to each other across
{use_fsync} x {disable_wal} x {memtable bloom}:

- per-key state (values, sequences, durable watermark) is identical,
- per-key tickers are identical; per-write tickers count the batch once,
- virtual time: with the WAL sync boundary out of the picture a batch
  costs exactly the sum of its ops; with ``use_fsync`` the batch pays
  one sync where singles pay N.
"""

import pytest

from repro.hardware import make_profile
from repro.lsm import DB, Options
from repro.lsm.statistics import OpClass, Statistics, Ticker
from repro.lsm.write_batch import WriteBatch

N = 20

MATRIX = [
    pytest.param(fsync, no_wal, bloom,
                 id=f"fsync={fsync}-nowal={no_wal}-bloom={bloom}")
    for fsync in (False, True)
    for no_wal in (False, True)
    for bloom in (False, True)
]


def open_db(path, *, use_fsync, disable_wal, bloom):
    opts = {"use_fsync": use_fsync, "disable_wal": disable_wal}
    if bloom:
        opts["memtable_prefix_bloom_size_ratio"] = 0.1
        opts["memtable_whole_key_filtering"] = True
    stats = Statistics()
    db = DB.open(path, Options(opts), profile=make_profile(4, 8),
                 statistics=stats)
    return db, stats


def kv(i):
    return b"key-%04d" % i, b"value-%04d" % i


def run_pair(tmp_name, use_fsync, disable_wal, bloom):
    single, s_stats = open_db(f"/{tmp_name}-single", use_fsync=use_fsync,
                              disable_wal=disable_wal, bloom=bloom)
    batched, b_stats = open_db(f"/{tmp_name}-batch", use_fsync=use_fsync,
                               disable_wal=disable_wal, bloom=bloom)
    batch = WriteBatch()
    single_costs = []
    for i in range(N):
        k, v = kv(i)
        single_costs.append(single.put(k, v))
        batch.put(k, v)
    batch_cost = batched.write(batch)
    return single, s_stats, single_costs, batched, b_stats, batch_cost


@pytest.mark.parametrize("use_fsync,disable_wal,bloom", MATRIX)
class TestParityMatrix:
    def test_per_key_state_matches(self, use_fsync, disable_wal, bloom):
        single, _, _, batched, _, _ = run_pair(
            "parity-state", use_fsync, disable_wal, bloom)
        assert single.last_sequence == batched.last_sequence == N
        assert single.durable_sequence == batched.durable_sequence
        for i in range(N):
            k, v = kv(i)
            assert single.get(k) == v
            assert batched.get(k) == v
        # Overwrites resolve to the newest version on both paths.
        k0, _ = kv(0)
        single.put(k0, b"v2")
        b2 = WriteBatch()
        b2.put(k0, b"v2")
        batched.write(b2)
        assert single.get(k0) == batched.get(k0) == b"v2"
        single.close()
        batched.close()

    def test_tickers_match(self, use_fsync, disable_wal, bloom):
        _, s_stats, _, _, b_stats, _ = run_pair(
            "parity-tickers", use_fsync, disable_wal, bloom)
        for ticker in (Ticker.NUMBER_KEYS_WRITTEN, Ticker.WAL_BYTES):
            assert s_stats.ticker(ticker) == b_stats.ticker(ticker), ticker
        assert b_stats.ticker(Ticker.NUMBER_KEYS_WRITTEN) == N
        assert s_stats.ticker(Ticker.WRITE_DONE_BY_SELF) == N
        assert b_stats.ticker(Ticker.WRITE_DONE_BY_SELF) == 1
        expect_wal = 0 if disable_wal else 1
        assert b_stats.ticker(Ticker.WRITE_WITH_WAL) == expect_wal
        if disable_wal:
            assert s_stats.ticker(Ticker.WAL_BYTES) == 0
            assert s_stats.ticker(Ticker.WAL_SYNCS) == 0
            assert b_stats.ticker(Ticker.WAL_SYNCS) == 0
        elif use_fsync:
            assert s_stats.ticker(Ticker.WAL_SYNCS) == N
            assert b_stats.ticker(Ticker.WAL_SYNCS) == 1

    def test_virtual_time_relationship(self, use_fsync, disable_wal, bloom):
        single, _, single_costs, batched, _, batch_cost = run_pair(
            "parity-vtime", use_fsync, disable_wal, bloom)
        singles_total = sum(single_costs)
        if use_fsync and not disable_wal:
            # The batch shares one sync boundary where singles pay N:
            # group commit must be strictly cheaper, by exactly the
            # N-1 extra syncs (everything else is the same FP math).
            assert batch_cost < singles_total
            sync_cost = single._perf.wal_sync_cost_us()
            assert batch_cost + (N - 1) * sync_cost == pytest.approx(
                singles_total)
        else:
            # No sync boundary in play: a batch is exactly the sum of
            # its ops — same constants, same FP evaluation order.
            assert batch_cost == pytest.approx(singles_total)
        # The clock advanced by what the ops claimed to cost.
        assert single._env.clock.now_us == pytest.approx(singles_total)
        assert batched._env.clock.now_us == pytest.approx(batch_cost)
        single.close()
        batched.close()

    def test_batch_recovers_like_singles(self, use_fsync, disable_wal, bloom):
        single, _, _, batched, _, _ = run_pair(
            "parity-crash", use_fsync, disable_wal, bloom)
        single = single.crash_and_reopen()
        batched = batched.crash_and_reopen()
        for i in range(N):
            k, _ = kv(i)
            assert single.get(k) == batched.get(k)
        assert single.last_sequence == batched.last_sequence
        single.close()
        batched.close()


@pytest.mark.parametrize("use_fsync,disable_wal,bloom", MATRIX)
def test_batches_of_one_match_singles_exactly(use_fsync, disable_wal, bloom):
    """The case that admits no difference. ``put``/``delete`` take
    ``DB._write``'s one-op branch and a WriteBatch its group branch,
    kept apart on measurement (docs/performance.md, "Write path"), so N
    batches of *one* against N singles must leave the identical clock,
    ticker array (per-write tickers included), WAL bytes and durable
    watermark. The one intended difference is which histogram sees the
    op: a batch is observed under PUT whatever it holds, a single
    delete under DELETE."""
    single, s_stats = open_db("/one-single", use_fsync=use_fsync,
                              disable_wal=disable_wal, bloom=bloom)
    batched, b_stats = open_db("/one-batch", use_fsync=use_fsync,
                               disable_wal=disable_wal, bloom=bloom)
    k0, v0 = kv(0)
    # An idle DB's first put is priced by the reference formula both
    # branches inline (nothing in src/ calls it), plus the sync it pays.
    expected = single._perf.put_cost_us(
        len(k0), len(v0), wal_enabled=not disable_wal)
    if use_fsync and not disable_wal:
        expected += single._perf.wal_sync_cost_us()
    assert single.put(k0, v0) == expected
    assert batched.write(WriteBatch().put(k0, v0)) == expected
    for i in range(1, N):
        k, v = kv(i)
        if i % 5 == 0:
            s_cost = single.delete(k0)
            b_cost = batched.write(WriteBatch().delete(k0))
        else:
            s_cost = single.put(k, v)
            b_cost = batched.write(WriteBatch().put(k, v))
        assert s_cost == b_cost
    assert single._env.clock.now_us == batched._env.clock.now_us
    assert list(s_stats.raw_tickers()) == list(b_stats.raw_tickers())
    assert s_stats.ticker(Ticker.WRITE_DONE_BY_SELF) == N
    assert single.last_sequence == batched.last_sequence == N
    assert single.durable_sequence == batched.durable_sequence
    if disable_wal:
        assert single._wal is None and batched._wal is None
    else:
        assert (single._env.fs.read_all(single._wal.path)
                == batched._env.fs.read_all(batched._wal.path))
    deletes = (N - 1) // 5
    assert s_stats.histogram(OpClass.PUT).count == N - deletes
    assert s_stats.histogram(OpClass.DELETE).count == deletes
    assert b_stats.histogram(OpClass.PUT).count == N
    assert b_stats.histogram(OpClass.DELETE).count == 0
    single.close()
    batched.close()
