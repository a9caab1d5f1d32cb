"""Memory follows liveness.

A closed store frees what only its reads used: the table cache's open
readers with their decoded-block memos, and the block cache's payloads.
That holds for a clean ``close()``, for a ``close()`` that dies on a
``SimulatedCrash`` (``DbBench.run`` swallows that one and drops the
DB), and for the DB ``crash_and_reopen()`` abandons. The checks run
with the cycle collector off, so what is not freed by reference
counting counts as held.

A flush's or compaction's finished table moves from the job's scratch
file into the store uncopied, as the same FaultFS operations a copy
made: pinned op indices, the same torn prefix when the crash lands on
the install's append, and no buffer shared between the job and the
live file.
"""

import gc
import hashlib
import random
import weakref

import pytest

from repro.errors import SimulatedCrash
from repro.hardware import make_profile
from repro.lsm import DB, Env, Options
from repro.lsm.faults import FaultFS

GEOMETRY = {
    "write_buffer_size": 4096,
    "target_file_size_base": 4096,
    "max_bytes_for_level_base": 16384,
    "bloom_filter_bits_per_key": 10,
    "level0_file_num_compaction_trigger": 2,
    "block_cache_size": 64 * 1024,
}


class _List(list):
    """A memo's entry list that can be weakly referenced."""


class _Payload(bytearray):
    """A block-cache payload that can be weakly referenced."""


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _open(env):
    return DB.open("/live", Options(GEOMETRY), env=env, profile=make_profile(2, 4))


def _warm(env):
    """A multi-level store after puts and a round of gets, with a
    memtable's worth of unflushed writes for ``close`` to flush."""
    db = _open(env)
    rng = random.Random(3)
    for _ in range(2500):
        db.put(b"%08d" % rng.randrange(2500), b"v" * rng.choice([10, 100]))
    db.wait_for_background()
    for i in range(0, 2500, 5):
        db.get(b"%08d" % i)
    for i in range(40):
        db.put(b"%08d" % i, b"tail")
    return db


def _track(db):
    """Weak references to one open reader, one memoised block's entry
    list and that block's block-cache payload. The list and payload are
    swapped for equal, weakly referenceable copies in place."""
    for reader in db._table_cache._handles.values():
        for off, (envelope, payload, entries) in reader._decoded.items():
            key = (reader.file_number, off)
            if payload is None or db.block_cache.get(key) is None:
                continue
            listed, held = _List(entries), _Payload(payload)
            reader._decoded[off] = (envelope, payload, listed)
            db.block_cache.put(key, held, len(held))
            return [weakref.ref(reader), weakref.ref(listed), weakref.ref(held)]
    raise AssertionError("no block is both memoised and cached")


def _alive(refs):
    return [name for name, ref in zip(("reader", "memo", "payload"), refs)
            if ref() is not None]


def test_close_frees_readers_memos_and_payloads(no_gc):
    db = _warm(Env())
    refs = _track(db)
    db.close()
    assert _alive(refs) == []
    assert db.block_cache.used_bytes == 0
    assert db.block_cache.hits > 0, "the counters stay"


@pytest.mark.parametrize("ops_later", [0, 2, 5])
def test_a_close_that_crashes_frees_them_too(no_gc, ops_later):
    fs = FaultFS(seed=9)
    db = _warm(Env(fs=fs))
    refs = _track(db)
    fs.schedule_crash(fs.op_index + ops_later)
    try:
        db.close()
    except SimulatedCrash:
        pass
    else:
        pytest.fail("close did not reach the scheduled crash")
    assert _alive(refs) == []


def test_crash_and_reopen_frees_the_old_store(no_gc):
    db = _warm(Env())
    refs = _track(db)
    reopened = db.crash_and_reopen()
    assert _alive(refs) == []
    assert reopened.get(b"%08d" % 5) is not None
    reopened.close()


# ------------------------------------------------- the move, under FaultFS


class _LoggingFS(FaultFS):
    """FaultFS that logs every mutating call as ``(index, op, path)``
    (appends with their length)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.log = []

    def _gate(self, op, path):
        self.log.append((self.op_index, op, path))
        super()._gate(op, path)

    def _gate_append(self, inner_file, data):
        self.log.append((self.op_index, "append", inner_file.path, len(data)))
        super()._gate_append(inner_file, data)


def _installs(monkeypatch, fs, crash_at=None):
    """Fill a store on ``fs`` with installs marked in its log. Returns
    the installed tables' bytes as each install began, by kind."""
    shipped = {"flush": [], "compaction": []}
    for kind in shipped:
        original = getattr(DB, f"_install_{kind}")

        def install(self, job, kind=kind, original=original):
            fs.log.append(("install", kind))
            shipped[kind].extend(bytes(b) for b in job.output.files)
            original(self, job)

        monkeypatch.setattr(DB, f"_install_{kind}", install)
    fs.schedule_crash(crash_at)
    db = _open(Env(fs=fs))
    rng = random.Random(5)
    for _ in range(1200):
        db.put(b"%08d" % rng.randrange(1200), b"w" * rng.choice([10, 100]))
    db.close()
    return shipped


def _first_table_ops(log, kind):
    """The create/append/sync of the first table a ``kind`` install
    writes."""
    start = log.index(("install", kind))
    ops = [e for e in log[start:] if len(e) > 2 and e[2].endswith(".sst")]
    return ops[:3]


def test_installs_keep_their_faultfs_op_indices(monkeypatch):
    fs = _LoggingFS(seed=4)
    _installs(monkeypatch, fs)
    # Pinned from the copying install: the move is the same three calls.
    assert len(fs.log) == 1824
    assert hashlib.sha256(repr(fs.log).encode()).hexdigest()[:16] == (
        "042581eea81ba0a4"
    )
    assert _first_table_ops(fs.log, "flush") == [
        (91, "create", "/live/000004.sst"),
        (92, "append", "/live/000004.sst", 562),
        (93, "sync", "/live/000004.sst"),
    ]
    assert _first_table_ops(fs.log, "compaction") == [
        (185, "create", "/live/000009.sst"),
        (186, "append", "/live/000009.sst", 1010),
        (187, "sync", "/live/000009.sst"),
    ]


@pytest.mark.parametrize("kind", ["flush", "compaction"])
def test_a_crash_on_the_install_append_tears_a_seeded_prefix(monkeypatch, kind):
    clean = _LoggingFS(seed=4)
    shipped = _installs(monkeypatch, clean)
    _create, append, _sync = _first_table_ops(clean.log, kind)
    index, _op, path, length = append
    fs = _LoggingFS(seed=4)
    with pytest.raises(SimulatedCrash):
        _installs(monkeypatch, fs, crash_at=index)
    torn = bytes(fs.inner._files[path].data)
    assert 0 < len(torn) < length
    assert torn == shipped[kind][0][: len(torn)]
    assert len(torn) == 241  # the seeded cut, pinned from the copy


def test_the_install_moves_the_output_and_the_job_keeps_none(monkeypatch):
    """The live file is the job's buffer, and the job gives it up: a
    corrupt file leaves the job's output as it was, and the reverse."""
    env = Env()
    moved = []
    for kind in ("flush", "compaction"):
        original = getattr(DB, f"_install_{kind}")

        def install(self, job, original=original):
            buffers = list(job.output.files)
            original(self, job)
            moved.append((job, buffers))

        monkeypatch.setattr(DB, f"_install_{kind}", install)
    db = _open(env)
    for i in range(1200):
        db.put(b"%08d" % (i * 7 % 1200), b"x" * 100)
    db.wait_for_background()
    assert {job.kind for job, _ in moved} == {"flush", "compaction"}
    files = env.fs._files
    live = {id(files[p].data): p for p in env.fs.list_dir("/live")}
    landed = [(job, live[id(b)]) for job, buffers in moved for b in buffers
              if id(b) in live]
    assert {job.kind for job, _ in landed} == {"flush", "compaction"}
    for job, path in landed:
        assert job.output.files == []
        before = env.fs.read_all(path)
        env.fs.corrupt(path, 0, before[0] ^ 0xFF)
        assert job.output.files == []
        job.output.files.append(bytearray(b"junk"))
        assert env.fs.read_all(path) != before
        job.output.files.pop()
        env.fs.corrupt(path, 0, before[0])
        assert env.fs.read_all(path) == before
    db.close()
