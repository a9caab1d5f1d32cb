"""Executor-mode equivalence: the background pipeline must be invisible.

Virtual time is the contract. Whatever host vehicle runs a flush or
compaction — inline on the foreground thread or a worker thread — the
*simulation* must be bit-identical: same logical state, same tickers,
same virtual clock, same trace bytes, same durable sequence. These
tests run one seeded workload under both executor modes and diff
everything observable, across all three compaction styles.
"""

import os
import threading

import pytest

from repro.lsm.background import (
    BackgroundScheduler,
    BgJob,
    BgJobOutput,
    make_executor,
)
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.faults import FaultFS
from repro.lsm.options import Options
from repro.lsm.statistics import Statistics
from repro.obs.events import to_jsonl_line
from repro.obs.sinks import RingSink
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.clock import SimClock

MODES = ("inline", "thread")


def _options(mode, style, **extra):
    base = {
        "write_buffer_size": 4 * 1024,
        "target_file_size_base": 8 * 1024,
        "max_bytes_for_level_base": 32 * 1024,
        "background_executor": mode,
        "compaction_style": style,
    }
    base.update(extra)
    return Options(base)


def _pending(db):
    return db.background_stats["jobs_pending"]


def _workload(db, n, midrun=None):
    for i in range(n):
        key = b"k%05d" % ((i * 2654435761) % 600)
        db.put(key, b"v%06d" % i)
        if i % 11 == 0:
            db.delete(b"k%05d" % ((i * 7919) % 600))
        if i % 401 == 0:
            db.get(key)
        if midrun is not None and i == n // 2:
            midrun(db)


def _run(mode, style, n=3000, midrun=None, **extra):
    """One full run; returns every observable the modes must agree on."""
    sink = RingSink()
    env = Env()
    stats = Statistics()
    db = DB.open(
        f"/bg-eq-{mode}-{style}",
        _options(mode, style, **extra),
        env=env,
        statistics=stats,
        tracer=Tracer(sink),
    )
    _workload(db, n, midrun=midrun)
    state = db.scan(limit=None)
    db.close()
    trace = "\n".join(to_jsonl_line(e).rstrip("\n") for e in sink.events)
    return {
        "state": state,
        "tickers": list(stats.raw_tickers()),
        "clock_us": env.clock.now_us,
        "durable_seq": db.durable_sequence,
        "trace": trace,
    }


@pytest.mark.parametrize("style", ["level", "universal", "fifo"])
def test_mode_equivalence(style):
    baseline = _run("inline", style)
    assert baseline["trace"], "workload produced no trace events"
    got = _run("thread", style)
    for field in ("state", "tickers", "clock_us", "durable_seq", "trace"):
        assert got[field] == baseline[field], (
            f"thread/{style}: {field} diverged from inline"
        )


def test_mode_equivalence_with_midrun_width_change():
    """set_options() width changes resize the host pool mid-run without
    touching virtual results."""

    def widen(db):
        db.set_options({"max_background_jobs": 6})

    runs = {mode: _run(mode, "level", midrun=widen) for mode in MODES}
    assert runs["thread"] == runs["inline"]


def test_close_joins_inflight_jobs():
    """close() must join every scheduled job, then reopen sees all data."""
    env = Env()
    db = DB.open("/bg-close", _options("thread", "level"), env=env)
    seen_pending = False
    for i in range(2500):
        db.put(b"k%05d" % (i % 500), b"v" * 64)
        seen_pending = seen_pending or _pending(db) > 0
    assert seen_pending, "workload never had a job in flight"
    db.close()
    assert _pending(db) == 0
    reopened = DB.open("/bg-close", _options("inline", "level"), env=env)
    assert len(reopened.scan(limit=None)) == 500
    reopened.close()


def test_scan_during_a_worker_flush_sees_every_acknowledged_key(monkeypatch):
    """With a live snapshot the flush worker reads the rotated
    memtable's full view, refreshing it if writes followed the last
    scan. Hold the worker in the middle of that refresh: a foreground
    scan, cursor and get must still see every acknowledged key, and so
    must the table the flush goes on to write."""
    from repro.lsm import memtable as memtable_mod

    merging, release = threading.Event(), threading.Event()
    real_bisect = memtable_mod.bisect_left

    def gated_bisect(*args):
        if threading.current_thread() is not threading.main_thread():
            merging.set()
            assert release.wait(10)
        return real_bisect(*args)

    db = DB.open("/bg-scan-race", _options("thread", "level"))
    expected = {}

    def put(i):
        key = b"k%05d" % ((i * 2654435761) % 100000)
        expected[key] = b"v%06d" % i
        db.put(key, expected[key])

    for i in range(20):
        put(i)
    assert db.scan(limit=1)  # the active memtable now keeps a view
    snap = db.snapshot()
    monkeypatch.setattr(memtable_mod, "bisect_left", gated_bisect)
    i = 20
    while not db._imm:
        put(i)
        i += 1
    try:
        assert merging.wait(10), "the flush never refreshed the view"
        assert db.scan(limit=None) == sorted(expected.items())
        cursor = db.iterator()
        cursor.seek(None)
        assert cursor.key == min(expected)
        assert db.get(max(expected)) == expected[max(expected)]
    finally:
        release.set()
    db.wait_for_background()
    snap.release()
    assert db.scan(limit=None) == sorted(expected.items())
    db.close()


def test_crash_and_reopen_matches_inline_crash():
    """A crash with worker jobs in flight recovers to the exact
    durable state an inline run crashes to at the same operation."""

    def crash_run(mode):
        db = DB.open(f"/bg-crash-{mode}", _options(mode, "level"))
        for i in range(2200):
            db.put(b"k%05d" % (i % 400), b"v%06d" % i)
        db2 = db.crash_and_reopen()
        state = db2.scan(limit=None)
        durable = db2.durable_sequence
        db2.close()
        return state, durable

    assert crash_run("thread") == crash_run("inline")


def test_fault_injection_pins_inline_executor():
    """Crash-at-Nth-syscall schedules count foreground fs ops; a worker
    racing that count would make chaos runs nondeterministic."""
    env = Env(fs=FaultFS())
    db = DB.open("/bg-faultfs", _options("thread", "level"), env=env)
    assert db.background_stats["executor_mode"] == "inline"
    db.close()


def test_shared_executor_not_closed_by_db():
    shared = make_executor("thread", 2)
    try:
        a = DB.open("/bg-shared-a", _options("thread", "level"), executor=shared)
        b = DB.open("/bg-shared-b", _options("thread", "level"), executor=shared)
        assert a._bg.shared_executor is shared
        assert b._bg.shared_executor is shared
        for i in range(1200):
            a.put(b"k%04d" % (i % 300), b"v" * 32)
            b.put(b"k%04d" % (i % 300), b"v" * 32)
        a.close()
        b.close()
        # still usable after both DBs closed: the owner (caller) decides
        c = DB.open("/bg-shared-a", _options("thread", "level"), executor=shared)
        assert c._bg.shared_executor is shared
        c.close()
    finally:
        shared.close()


def test_set_options_leaves_shared_executor_to_its_owner():
    """A DB that was handed a shared pool must not resize it: the
    teardown would block on the other DB's in-flight job and leave the
    pool at this DB's width. The owner resizes it (the service does,
    once, after its fan-out)."""
    # wider than executor_width() can return, so a resize would show
    width = (os.cpu_count() or 2) + 1
    shared = make_executor("thread", width)
    try:
        a = DB.open("/bg-resize-a", _options("thread", "level"), executor=shared)
        b = DB.open("/bg-resize-b", _options("thread", "level"), executor=shared)
        i = 0
        while not _pending(a):
            a.put(b"k%05d" % (i % 500), b"v" * 64)
            i += 1
            assert i < 5000, "workload never had a job in flight"
        pool = shared._pool
        assert pool is not None
        b.set_options({"max_background_jobs": 1})
        assert shared._pool is pool and shared._workers == width
        assert _pending(a), "b's set_options joined a's job"
        a.close()
        b.close()
    finally:
        shared.close()


def test_background_stats_gauge():
    db = DB.open("/bg-gauge", _options("thread", "level"))
    for i in range(1500):
        db.put(b"k%05d" % (i % 400), b"v" * 48)
    db.wait_for_background()
    stats = db.background_stats
    assert stats["executor_mode"] == "thread"
    assert stats["jobs_submitted"] > 0
    assert stats["jobs_joined"] == stats["jobs_submitted"]
    assert stats["jobs_pending"] == 0
    assert stats["join_stall_seconds"] >= 0.0
    db.close()


def test_background_stats_count_this_db_on_a_shared_executor():
    """jobs_submitted is the scheduler's own count, so the
    joined == submitted identity holds per DB on a shared executor too
    (it used to read the executor's counter: the fleet total)."""
    shared = make_executor("inline")
    dbs = [
        DB.open(f"/bg-two-{name}",
                _options("inline", "level", write_buffer_size=16 * 1024),
                executor=shared)
        for name in "ab"
    ]
    for db, puts in zip(dbs, (3000, 600)):
        for i in range(puts):
            db.put(b"k%05d" % (i % 900), b"v" * 64)
        db.wait_for_background()
    a, b = (db.background_stats for db in dbs)
    for stats in (a, b):
        assert stats["jobs_submitted"] > 0
        assert stats["jobs_joined"] == stats["jobs_submitted"]
        assert stats["jobs_pending"] == 0
    assert a["jobs_submitted"] > b["jobs_submitted"]
    for db in dbs:
        db.close()


# ------------------------------------------------ the scheduler, no DB


class _Perf:
    """Duration = bytes in + bytes out, in microseconds: a job's lower
    bound (output bytes unknown, taken as zero) is its bytes_in."""

    def flush_duration_us(self, bytes_in, bytes_out, entries):
        return float(bytes_in + bytes_out)

    compaction_duration_us = flush_duration_us


class _Harness:
    """A BackgroundScheduler over fake jobs and an inline executor."""

    def __init__(self, **options):
        self.clock = SimClock()
        self.sched = BackgroundScheduler(
            Options(options), _Perf(), self.clock, NULL_TRACER
        )
        self.jobs = []
        self.installed = []

    def submit(self, name, kind, lower_bound, extra):
        """A job done ``lower_bound + extra`` us after it starts."""

        def run(spec):
            return BgJobOutput(
                result=name, files=[], work=(lower_bound, extra, 0),
                run_event=None,
            )

        job = BgJob(
            kind=kind, run=run, spec=name,
            install=lambda job: self.installed.append(job.spec),
            bytes_in=lower_bound, entries_in=0, swap_factor=1.0,
        )
        self.sched.submit(job)
        self.jobs.append(job)
        self.check_next_event()
        return job

    def joined(self):
        return [job.spec for job in self.jobs if job.output is not None]

    def check_next_event(self):
        """next_event_us is never later than the true next event."""
        waiting = [job for job in self.jobs if job.spec not in self.installed]
        truth = min(
            (job.lb_due_us if job.output is None else job.done_at_us
             for job in waiting),
            default=float("inf"),
        )
        assert self.sched.next_event_us <= truth
        if not waiting:
            assert self.sched.next_event_us == float("inf")

    def poll(self, now_us):
        self.clock.advance_to(now_us)
        self.sched.poll(now_us)
        self.check_next_event()


def test_same_microsecond_completions_install_in_submit_order():
    h = _Harness()
    h.submit("first", "compaction", 80, 20)   # done at 100
    h.submit("second", "flush", 50, 50)       # done at 100 too
    h.poll(60)
    assert h.joined() == ["second"], "only the due job is joined"
    assert h.installed == []
    h.poll(100)
    assert h.installed == ["first", "second"]


def test_rate_limiter_joins_the_jobs_ahead_of_a_due_one():
    """Strict FIFO: limiter requests replay in submit order, so a due
    job drags the earlier-submitted ones into the join with it."""
    h = _Harness(rate_limiter_bytes_per_sec=1 << 30)
    h.submit("first", "compaction", 80, 20)
    h.submit("second", "flush", 50, 50)
    h.submit("third", "compaction", 90, 0)
    h.poll(60)
    assert h.joined() == ["first", "second"]


def test_next_event_tracks_every_transition():
    h = _Harness()
    assert h.sched.next_event_us == float("inf")
    h.submit("a", "flush", 40, 30)            # bound 40, done at 70
    assert h.sched.next_event_us == 40
    h.submit("b", "compaction", 100, 0)
    h.sched.join_all()
    h.check_next_event()
    assert h.sched.next_event_us == 70
    assert h.sched.wait_next().spec == "a"
    h.check_next_event()
    assert h.clock.now_us == 70 and h.installed == ["a"]
    assert h.sched.wait_next("flush") is None, "no flush left in flight"
    assert h.clock.now_us == 70 and h.installed == ["a"]
    assert h.sched.wait_next().spec == "b"
    assert h.sched.wait_next() is None
    h.check_next_event()
    assert h.clock.now_us == 100


def test_drop_forgets_pending_work_without_joining_it():
    h = _Harness()
    h.submit("a", "flush", 40, 0)
    h.submit("b", "compaction", 60, 0)
    h.sched.drop()
    stats = h.sched.stats
    assert stats["jobs_submitted"] == 2
    assert stats["jobs_joined"] == 0 and stats["jobs_pending"] == 0
    assert h.sched.next_event_us == float("inf")
    h.sched.poll(1000.0)
    assert h.sched.wait_next() is None
    assert h.joined() == [] and h.installed == []


def test_busy_never_undercounts_before_a_bound_is_crossed():
    """Two flushes chained on one slot: the first runs 0-150 (bound
    100), the second 150-210 (booked 100-150 until the first settles).
    busy() reads 1 until the exact end whenever it is asked, joining a
    job only once its bound has passed."""
    h = _Harness(max_background_flushes=1)
    h.submit("a", "flush", 100, 50)
    h.submit("b", "flush", 50, 10)
    for now in range(0, 240, 10):
        assert h.sched.busy(float(now)) == (1 if now < 210 else 0), now
        if now < 100:
            assert h.joined() == []
        h.check_next_event()
