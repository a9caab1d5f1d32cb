"""Tests for the fault-injection layer (repro.lsm.faults.FaultFS)."""

import random

import pytest

from repro.errors import DBError, InjectedIOError, SimulatedCrash
from repro.hardware import make_profile
from repro.lsm import DB, Env, Options
from repro.lsm.env import MemFileSystem
from repro.lsm.faults import FaultFS, KVModel
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer


class TestStrictCrashModel:
    """MemFileSystem.crash(): the pessimistic only-synced-bytes model."""

    def test_unsynced_tail_dropped(self):
        fs = MemFileSystem()
        f = fs.create("/a")
        f.append(b"durable")
        f.sync()
        f.append(b"lost")
        fs.crash()
        assert fs.read_all("/a") == b"durable"

    def test_never_synced_file_vanishes(self):
        fs = MemFileSystem()
        fs.create("/a").append(b"junk")
        fs.crash()
        assert not fs.exists("/a")

    def test_fully_synced_file_intact(self):
        fs = MemFileSystem()
        f = fs.create("/a")
        f.append(b"all of it")
        f.sync()
        fs.crash()
        assert fs.read_all("/a") == b"all of it"


class TestOpCounting:
    def test_mutating_ops_counted_reads_not(self):
        fs = FaultFS()
        f = fs.create("/a")          # 1
        f.append(b"x")               # 2
        f.sync()                     # 3
        fs.exists("/a")
        fs.read_all("/a")
        fs.file_size("/a")
        fs.list_dir("/")
        fs.rename("/a", "/b")        # 4
        fs.delete("/b")              # 5
        assert fs.op_index == 5

    def test_open_writable_counted(self):
        fs = FaultFS()
        fs.open_writable("/a")
        assert fs.op_index == 1

    def test_read_heavy_run_keeps_its_syscall_count(self):
        """Crash schedules are coordinates in the mutating-call stream,
        so host-side shortcuts on the read path (decoded-block memo,
        seekable memtable view) must not move it: the counts and the
        virtual clock below were recorded at commit ce208f7."""
        fs = FaultFS()
        db = DB.open(
            "/ops",
            Options({"write_buffer_size": 8 * 1024,
                     "bloom_filter_bits_per_key": 10.0}),
            env=Env(fs=fs), profile=make_profile(4, 8),
        )
        rng = random.Random(5)
        for _ in range(600):
            db.put(b"%05d" % rng.randrange(400), b"v" * 40)
        assert fs.op_index == 656
        for _ in range(3000):
            draw = rng.random()
            if draw < 0.8:
                db.get(b"%05d" % rng.randrange(500))
            elif draw < 0.9:
                db.scan(b"%05d" % rng.randrange(400), 10)
            else:
                db.put(b"%05d" % rng.randrange(400), b"w" * 40)
        assert fs.op_index == 1001
        assert db.env.clock.now_us == 10102.969076328241
        db.close()
        assert fs.op_index == 1010


class TestScheduledCrash:
    def test_crash_fires_at_exact_index(self):
        fs = FaultFS()
        fs.schedule_crash(2)
        f = fs.create("/a")          # op 0
        f.append(b"x")               # op 1
        with pytest.raises(SimulatedCrash):
            f.sync()                 # op 2: boom
        assert fs.crashed

    def test_dead_filesystem_rejects_everything(self):
        fs = FaultFS()
        fs.schedule_crash(0)
        with pytest.raises(SimulatedCrash):
            fs.create("/a")
        with pytest.raises(SimulatedCrash):
            fs.exists("/a")
        with pytest.raises(SimulatedCrash):
            fs.list_dir("/")

    def test_crash_on_nonappend_op_not_applied(self):
        fs = FaultFS()
        f = fs.create("/a")
        f.append(b"x")
        fs.schedule_crash(fs.op_index)
        with pytest.raises(SimulatedCrash):
            f.sync()
        fs.crash()
        # The sync never happened, so under any survival draw the byte
        # was unsynced; it may survive partially but never as "synced".
        if fs.exists("/a"):
            assert fs.inner._files["/a"].synced_bytes == len(
                fs.inner._files["/a"].data
            )

    def test_torn_append_keeps_strict_prefix(self):
        fs = FaultFS(seed=11)
        f = fs.create("/a")
        f.append(b"base")
        f.sync()
        fs.schedule_crash(fs.op_index)
        payload = b"ABCDEFGHIJKLMNOP"
        with pytest.raises(SimulatedCrash):
            f.append(payload)
        data = bytes(fs.inner._files["/a"].data)
        assert data.startswith(b"base")
        torn = data[len(b"base"):]
        # Never the complete record: a torn append is always a tear.
        assert len(torn) < len(payload)
        assert payload.startswith(torn)

    def test_crash_clears_flag_and_revives(self):
        fs = FaultFS(seed=3)
        f = fs.create("/a")
        f.append(b"x")
        f.sync()
        fs.schedule_crash(fs.op_index)
        with pytest.raises(SimulatedCrash):
            f.append(b"y")
        fs.crash()
        assert not fs.crashed
        assert fs.read_all("/a").startswith(b"x")
        fs.create("/b")  # alive again, no schedule armed

    def test_seeded_crash_image_is_deterministic(self):
        def build(seed):
            fs = FaultFS(seed=seed)
            f = fs.create("/a")
            f.append(b"durable" * 10)
            f.sync()
            f.append(b"maybe" * 20)
            g = fs.create("/never-synced")
            g.append(b"junk" * 50)
            fs.crash()
            return {p: bytes(fs.inner._files[p].data)
                    for p in sorted(fs.inner._files)}

        assert build(42) == build(42)
        images = {tuple(sorted(build(s).items())) for s in range(8)}
        assert len(images) > 1  # the survival draw actually varies

    def test_synced_bytes_always_survive_crash(self):
        for seed in range(20):
            fs = FaultFS(seed=seed)
            f = fs.create("/a")
            f.append(b"keep me")
            f.sync()
            f.append(b"maybe lost")
            fs.crash()
            assert fs.read_all("/a")[:7] == b"keep me"


class TestInjectedErrors:
    def test_error_fires_once_and_fs_survives(self):
        fs = FaultFS()
        f = fs.create("/a")          # op 0
        fs.schedule_error(1)
        with pytest.raises(InjectedIOError):
            f.append(b"x")           # op 1: fails, op still counted
        assert not fs.crashed
        assert fs.op_index == 2
        f.append(b"x")               # retry succeeds
        assert fs.read_all("/a") == b"x"

    def test_failed_op_not_applied(self):
        fs = FaultFS()
        f = fs.create("/a")
        f.append(b"x")
        fs.schedule_error(fs.op_index)
        with pytest.raises(InjectedIOError):
            f.sync()
        assert f.unsynced_bytes() == len(b"x")


class TestDelegation:
    def test_full_filesystem_surface(self):
        fs = FaultFS()
        f = fs.create("/db/file")
        f.append(b"hello")
        f.sync()
        assert f.path == "/db/file"
        assert f.size() == 5
        assert f.unsynced_bytes() == 0
        f.close()
        assert fs.exists("/db/file")
        assert fs.file_size("/db/file") == 5
        assert fs.list_dir("/db") == ["/db/file"]
        assert fs.total_bytes() == 5
        assert fs.open_random("/db/file").read(0, 5) == b"hello"
        fs.corrupt("/db/file", 0, ord("j"))
        assert fs.read_all("/db/file") == b"jello"
        fs.truncate("/db/file", 1)
        assert fs.read_all("/db/file") == b"j"

    def test_create_collision_fails_loudly(self):
        fs = FaultFS()
        fs.create("/a")
        with pytest.raises(DBError, match="already exists"):
            fs.create("/a")


class TestTraceEvents:
    def test_crash_and_torn_append_emit_events(self):
        ring = RingSink()
        fs = FaultFS(seed=5, tracer=Tracer(ring))
        f = fs.create("/a")
        f.append(b"x")
        f.sync()
        fs.schedule_crash(fs.op_index)
        with pytest.raises(SimulatedCrash):
            f.append(b"payload")
        fs.crash()
        types = [type(e).TYPE for e in ring.events]
        assert "fault.injected" in types
        assert "fault.crash" in types
        injected = next(e for e in ring.events if type(e).TYPE == "fault.injected")
        assert injected.kind == "torn_append"
        assert injected.op == "append"
        assert injected.op_index == 3

    def test_io_error_emits_event(self):
        ring = RingSink()
        fs = FaultFS(tracer=Tracer(ring))
        fs.schedule_error(0)
        with pytest.raises(InjectedIOError):
            fs.create("/a")
        (event,) = ring.events
        assert event.kind == "io_error"
        assert event.op == "create"


class TestKVModel:
    def test_durable_watermark_is_monotonic(self):
        model = KVModel()
        model.mark_durable(5)
        model.mark_durable(3)
        assert model.durable == 5

    def test_history_accumulates_versions(self):
        model = KVModel()
        model.record(b"k", b"v1", 1)
        model.record(b"k", None, 2)
        assert model.history[b"k"] == [(1, b"v1"), (2, None)]
