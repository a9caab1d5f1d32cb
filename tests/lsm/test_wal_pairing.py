"""Regression pins for flush <-> WAL pairing (`DB._imm_wal`).

The historical hazard: pairing WALs to a flush batch by *list slice*
(``_imm_wal_paths[-len(batch):]``) breaks the moment batches are not
popped strictly from the tail — a flush already in flight, or a batch
assembled while another is pending, can pair a neighbour's WAL and
delete it before that data reached an SST. The engine now keys the
mapping by memtable identity (``id(mt) -> wal path``, recorded at
rotation, looked up by batch membership at schedule time); these tests
pin that structure from the outside.
"""

import pytest

from repro.errors import ImmutableOptionError
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.options import Options


def _open(**extra):
    base = {
        # roomy enough that only _force_rotate's explicit rotations
        # happen — an auto-rotation mid-fill would add a surprise batch
        "write_buffer_size": 64 * 1024,
        "max_background_jobs": 8,
    }
    base.update(extra)
    env = Env()
    return DB.open("/walpair", Options(base), env=env), env


def _force_rotate(db, tag, entries=40):
    """Fill and rotate one memtable; return (memtable_id, wal_path)."""
    for i in range(entries):
        db.put(b"%s-%04d" % (tag, i), b"v" * 80)
    mt_id = id(db._mem)
    wal_path = db._wal.path if db._wal is not None else None
    db._rotate_memtable()
    return mt_id, wal_path


def _memtable_ids(job):
    return [id(mt) for mt in job.spec.memtables]


def test_inflight_flushes_pair_their_own_wals():
    """Two flush jobs pending at once: each carries exactly the WALs of
    its own memtables, recorded at rotation — never a positional slice."""
    db, _ = _open()
    expected = dict([_force_rotate(db, b"a"), _force_rotate(db, b"b")])
    flushes = db._bg.inflight("flush")
    assert flushes, "rotations scheduled no flush"
    # in flight in virtual time: run at submit, not joined until the bound
    assert db.background_stats["jobs_pending"] == len(flushes) == 2
    seen_wals = []
    for job in flushes:
        assert job.wal_paths == [expected[m] for m in _memtable_ids(job)]
        seen_wals += job.wal_paths
    # jobs never share a WAL: each path belongs to exactly one batch
    assert len(seen_wals) == len(set(seen_wals))
    db.close()


def test_merged_flush_carries_every_member_wal():
    """min_write_buffer_number_to_merge=2: one job, two memtables, two
    WALs — and install deletes both and clears the pairing map."""
    db, env = _open(min_write_buffer_number_to_merge=2)
    first = _force_rotate(db, b"a")
    assert not db._bg.inflight("flush"), "flush scheduled below the merge width"
    second = _force_rotate(db, b"b")
    flushes = db._bg.inflight("flush")
    assert len(flushes) == 1
    assert db.background_stats["jobs_pending"] == 1
    assert _memtable_ids(flushes[0]) == [first[0], second[0]]
    assert flushes[0].wal_paths == [first[1], second[1]]
    db.wait_for_background()
    assert db._imm_wal == {}
    assert not env.fs.exists(first[1]) and not env.fs.exists(second[1])
    db.close()


def test_crash_with_flush_inflight_replays_wals():
    """Data whose flush never installed must come back from its WAL."""
    db, env = _open()
    expected = {}
    for tag in (b"a", b"b", b"c"):
        _force_rotate(db, tag)
        for i in range(40):
            expected[b"%s-%04d" % (tag, i)] = b"v" * 80
    assert db._bg.inflight("flush")
    assert db.background_stats["jobs_pending"] > 0
    db2 = db.crash_and_reopen()
    for key, value in expected.items():
        assert db2.get(key) == value, f"lost {key!r} across crash"
    db2.close()


def test_disable_wal_is_not_hot_swappable():
    """The mid-run ``disable_wal`` toggle the pairing audit worried
    about cannot happen: WAL existence is resolved at open and
    ``set_options`` must reject it (half of the structural fix)."""
    db, _ = _open()
    with pytest.raises(ImmutableOptionError):
        db.set_options({"disable_wal": True})
    db.close()


def test_wal_disabled_runs_have_no_pairings():
    db, _ = _open(disable_wal=True)
    _force_rotate(db, b"a")
    assert db._imm_wal == {}
    flushes = db._bg.inflight("flush")
    assert flushes, "the rotation scheduled no flush"
    for job in flushes:
        assert job.wal_paths == []
    db.wait_for_background()
    db.close()
