"""Crash-recovery property tests and satellite-bugfix regressions.

The sweep tests exercise the full harness (``repro.lsm.faults``); the
regression classes each pin one recovery bug that existed before this
suite: L0 recency lost on MANIFEST replay, WAL deleted before the
flush's edit was durable, and WAL-replay backlogs piling into one
oversized memtable.
"""

import random

import pytest

from repro.errors import SimulatedCrash
from repro.hardware import make_profile
from repro.lsm import DB, Env, Options
from repro.lsm.faults import (
    FaultFS,
    KVModel,
    check_crash_invariants,
    run_crash_schedule,
    sweep,
)
from repro.lsm.manifest import VersionEdit
from tests.lsm.test_compaction import TINY_GEOMETRY


def new_db(env, overrides, path="/db"):
    return DB.open(path, Options(overrides), env=env,
                   profile=make_profile(4, 8))


class TestSweep:
    def test_clean_run_has_no_violations_per_style(self):
        for style in ("level", "universal", "fifo"):
            result = run_crash_schedule(style, None, seed=5)
            assert result.violations == [], (style, result.violations)
            assert not result.crashed
            assert result.ops_issued > 100

    def test_seeded_sweep_is_violation_free(self):
        # The bounded in-suite sweep; scripts/check.sh runs the larger
        # gate and scripts/crashmonkey.py the full acceptance sweep.
        results = sweep(24, seed=1234)
        failing = [r for r in results if not r.ok]
        assert failing == [], [
            (r.style, r.crash_at, r.seed, r.violations) for r in failing
        ]
        assert any(r.crashed for r in results)

    def test_sweep_crashes_inside_group_commits(self, monkeypatch):
        # The workload mixes WriteBatches in, so some crash points land
        # inside DB.write (its one WAL append, or the rotation after it).
        batch_crashes = []
        write = DB.write

        def watched_write(db, batch):
            try:
                return write(db, batch)
            except SimulatedCrash:
                batch_crashes.append(len(batch))
                raise

        monkeypatch.setattr(DB, "write", watched_write)
        results = sweep(60, seed=77)
        assert [r for r in results if not r.ok] == []
        assert batch_crashes and all(2 <= n <= 4 for n in batch_crashes)

    def test_schedule_is_reproducible(self):
        a = run_crash_schedule("universal", 77, seed=9)
        b = run_crash_schedule("universal", 77, seed=9)
        assert (a.crashed, a.ops_issued, a.violations) == (
            b.crashed, b.ops_issued, b.violations
        )

    def test_oracle_rejects_lost_durable_writes(self):
        # Sanity that the invariant checker actually bites: a crash
        # model that also loses *synced* WAL bytes must be caught.
        orig = FaultFS.crash

        def lossy_crash(self):
            for path in sorted(self.inner._files):
                f = self.inner._files[path]
                if path.endswith(".log") and f.synced_bytes > 40:
                    f.synced_bytes -= 40
            return orig(self)

        FaultFS.crash = lossy_crash
        try:
            caught = [
                run_crash_schedule("level", at, seed=3).violations
                for at in (60, 120, 250, 400)
            ]
        finally:
            FaultFS.crash = orig
        assert any(caught)


class TestCrashAndReopen:
    def test_durable_writes_survive(self):
        env = Env()
        db = new_db(env, {"write_buffer_size": 16 * 1024})
        for i in range(50):
            db.put(b"k%03d" % i, b"v%d" % i)
        db.flush(wait_compactions=False)
        durable = db.durable_sequence
        assert durable >= 50
        db2 = db.crash_and_reopen()
        for i in range(50):
            assert db2.get(b"k%03d" % i) == b"v%d" % i
        db2.close()

    def test_unsynced_tail_may_vanish_acked_or_not(self):
        env = Env()
        db = new_db(env, {"write_buffer_size": 64 * 1024})
        db.put(b"durable", b"1")
        db.flush(wait_compactions=False)
        db.put(b"tail", b"2")  # acked, WAL not yet synced
        assert db.durable_sequence < db.last_sequence
        db2 = db.crash_and_reopen()
        assert db2.get(b"durable") == b"1"
        assert db2.get(b"tail") is None  # strict model: unsynced = gone
        db2.close()

    def test_old_handle_is_dead_after_crash(self):
        env = Env()
        db = new_db(env, {})
        db.put(b"k", b"v")
        db2 = db.crash_and_reopen()
        with pytest.raises(Exception):
            db.put(b"x", b"y")  # original handle closed by the crash
        db2.close()


class TestL0RecencyAcrossReopen:
    """Satellite 1: universal-compaction outputs installed at the L0
    front must come back at the front after MANIFEST replay."""

    def _build(self, env):
        # Two large overlapping L0 runs trigger a (long) universal
        # compaction; a tiny newer flush lands while it runs, so the
        # merged output is installed at the front *behind* newer data.
        db = new_db(env, {
            "compaction_style": "universal",
            "write_buffer_size": 256 * 1024,
            "level0_file_num_compaction_trigger": 2,
        })
        for i in range(300):
            db.put(b"key%03d" % i, b"v1-%d" % i)
        db.flush(wait_compactions=False)
        for i in range(300):
            db.put(b"key%03d" % i, b"v2-%d" % i)
        db.flush(wait_compactions=False)  # triggers compaction of both
        db.put(b"key000", b"v3-newest")
        db.flush(wait_compactions=False)  # newer tiny file
        db.wait_for_background()          # merged output installs last
        return db

    def test_front_install_actually_happened(self):
        # Guard against this scenario going vacuous if scheduling
        # changes: the merged (wide) file must sit in front of the
        # newer single-key file.
        env = Env()
        db = self._build(env)
        l0 = db.version.files_at(0)
        assert len(l0) >= 2
        assert l0[0].largest_key >= b"key299"  # merged, wide range
        db.close()

    def test_reopen_preserves_l0_order_and_recency(self):
        env = Env()
        db = self._build(env)
        order_before = [f.file_number for f in db.version.files_at(0)]
        assert db.get(b"key000") == b"v3-newest"
        db.close()
        db2 = new_db(env, {"compaction_style": "universal"})
        assert [f.file_number for f in db2.version.files_at(0)] == order_before
        assert db2.get(b"key000") == b"v3-newest"
        assert db2.get(b"key123") == b"v2-123"
        db2.close()

    def test_prefix_bug_would_be_caught(self, monkeypatch):
        # Emulate the pre-fix replay (l0_front ignored, outputs appended
        # as newest) and confirm the assertion above detects it — i.e.
        # the regression test is not vacuous.
        env = Env()
        db = self._build(env)
        db.close()
        orig = VersionEdit.from_json.__func__

        def without_front(cls, raw):
            edit = orig(cls, raw)
            edit.l0_front = []
            return edit

        monkeypatch.setattr(
            VersionEdit, "from_json", classmethod(without_front)
        )
        db2 = new_db(env, {"compaction_style": "universal"})
        assert db2.get(b"key000") == b"v2-0"  # the stale read, pre-fix
        db2.close()


class _RecordingFaultFS(FaultFS):
    """FaultFS that logs every mutating call for schedule targeting."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls: list[tuple[str, str]] = []

    def _gate(self, op, path):
        self.calls.append((op, path))
        super()._gate(op, path)

    def _gate_append(self, inner_file, data):
        self.calls.append(("append", inner_file.path))
        super()._gate_append(inner_file, data)


class TestFlushInstallOrdering:
    """Satellite 2: the flush's VersionEdit must reach the synced
    MANIFEST before its WAL generations are deleted. Crash at and right
    after the WAL delete and check nothing durable is lost."""

    OPTS = {"write_buffer_size": 4096, "max_write_buffer_number": 3}

    def _drive(self, fs, model=None):
        env = Env(fs=fs)
        db = DB.open("/db", Options(self.OPTS), env=env,
                     profile=make_profile(4, 8))
        seq = 0
        for i in range(160):  # enough to rotate + flush at 4 KiB
            key, value = b"k%03d" % (i % 40), b"x" * 60 + b"%d" % i
            if model is not None:
                model.record(key, value, db.last_sequence + 1)
            db.put(key, value)
            if model is not None:
                model.mark_durable(db.durable_sequence)
        db.wait_for_background()
        if model is not None:
            model.mark_durable(db.durable_sequence)
        db.close()

    def test_crash_around_wal_delete_loses_nothing(self):
        probe = _RecordingFaultFS(seed=1)
        self._drive(probe)
        wal_deletes = [i for i, (op, path) in enumerate(probe.calls)
                       if op == "delete" and path.endswith(".log")]
        assert wal_deletes, "workload never deleted a WAL generation"
        first = wal_deletes[0]
        # Pre-fix, ops [first, first+2] bracket the delete-then-append
        # window where the flushed data exists nowhere durable.
        for crash_at in range(first, first + 3):
            fs = FaultFS(seed=1)
            fs.schedule_crash(crash_at)
            model = KVModel()
            try:
                self._drive(fs, model)
            except SimulatedCrash:
                pass
            fs.crash()
            db = DB.open("/db", Options(self.OPTS), env=Env(fs=fs),
                         profile=make_profile(4, 8))
            violations = check_crash_invariants(db, model)
            assert violations == [], (crash_at, violations)
            db.close()


class TestWalBacklogReplay:
    """Satellite 3: recovering a WAL backlog larger than the write
    buffer must rotate into flushes, not build one oversized memtable."""

    def test_replay_rotates_oversized_backlog(self):
        env = Env()
        buffer = 4096
        db = new_db(env, {
            "write_buffer_size": 64 * 1024,  # big: no flush before crash
            "avoid_flush_during_shutdown": True,
        })
        for i in range(300):  # ~25 KiB of records
            db.put(b"k%04d" % i, b"x" * 60)
        db._wal.sync()
        env.fs.crash()
        # Reopen with a small buffer: the backlog is several buffers.
        db2 = new_db(env, {"write_buffer_size": buffer})
        assert db2._mem.approximate_memory_usage <= buffer
        db2.wait_for_background()
        assert db2.version.num_files() >= 2  # backlog drained as tables
        for i in range(300):
            assert db2.get(b"k%04d" % i) == b"x" * 60
        db2.close()

    def test_recovered_backlog_survives_second_crash(self):
        env = Env()
        db = new_db(env, {"write_buffer_size": 64 * 1024,
                          "avoid_flush_during_shutdown": True})
        for i in range(200):
            db.put(b"k%04d" % i, b"y" * 50)
        db._wal.sync()
        env.fs.crash()
        db2 = new_db(env, {"write_buffer_size": 4096})
        # Crash again immediately: replayed entries must already be in
        # a synced WAL (or flushed tables), not memory only.
        db3 = db2.crash_and_reopen()
        for i in range(200):
            assert db3.get(b"k%04d" % i) == b"y" * 50
        db3.close()


class TestBenchRunnerCrashAware:
    def test_simulated_crash_aborts_cleanly(self):
        from repro.bench.runner import DbBench
        from repro.bench.spec import WorkloadSpec

        fs = FaultFS(seed=2)
        fs.schedule_crash(120)
        spec = WorkloadSpec(
            name="fillrandom", num_ops=2000, num_keys=500,
            preload_keys=0, read_fraction=0.0, distribution="uniform",
            value_size=64,
        )
        bench = DbBench(spec, Options({"write_buffer_size": 8 * 1024}),
                        make_profile(4, 8), env=Env(fs=fs))
        result = bench.run()
        assert result.aborted
        assert result.ops_done < spec.num_ops


class TestSnapshotHeldAcrossCrash:
    """A crash-at-Nth-syscall schedule under the tiny geometry, with a
    snapshot held across the crash point: the pinned versions make
    flushes and merges keep several versions of a hot key, and a crash
    anywhere from there on must still recover every durable write."""

    KEYS = [b"k%05d" % i for i in range(300)]
    OPS = 2400
    SNAPSHOT_AT = 1000
    CRASH_POINTS = 50

    def _run(self, style, crash_at):
        """One schedule, checked after recovery: (crashed, syscalls
        issued before the snapshot, syscalls issued in all, L1 files at
        the end of a clean run)."""
        overrides = {**TINY_GEOMETRY, "compaction_style": style}
        fs = FaultFS(seed=7)
        env = Env(fs=fs)
        model = KVModel()
        fs.schedule_crash(crash_at)
        rng = random.Random(1)
        crashed, snapshot_at_syscall, l1_files = False, None, 0
        try:
            db = new_db(env, overrides)
            for op in range(self.OPS):
                key, value = rng.choice(self.KEYS), b"%0100d" % op
                # recorded before the put: see faults._step
                model.record(key, value, db.last_sequence + 1)
                db.put(key, value)
                model.mark_durable(db.durable_sequence)
                if op == self.SNAPSHOT_AT:
                    db.snapshot()  # never released: held to the end
                    snapshot_at_syscall = fs.op_index
            l1_files = db.version.num_files(1)
        except SimulatedCrash:
            crashed = True
        issued = fs.op_index
        fs.crash()
        db = new_db(env, overrides)
        assert check_crash_invariants(db, model) == [], (style, crash_at)
        gets = {key: db.get(key) for key in self.KEYS}
        assert db.scan(limit=None) == sorted(
            (key, value) for key, value in gets.items() if value is not None
        ), (style, crash_at)
        db.close()
        return crashed, snapshot_at_syscall, issued, l1_files

    @pytest.mark.parametrize("style", ["level", "universal", "fifo"])
    def test_every_crash_point_recovers(self, style):
        crashed, first, total, l1_files = self._run(style, None)
        assert not crashed
        if style == "level":
            # not vacuous: outputs were split while the snapshot pinned
            # several versions of one key (the case that used to overlap)
            assert l1_files >= 2
        span = total - first
        assert span > self.CRASH_POINTS
        for i in range(self.CRASH_POINTS):
            crash_at = first + i * span // self.CRASH_POINTS
            crashed, *_ = self._run(style, crash_at)
            assert crashed, (style, crash_at)
