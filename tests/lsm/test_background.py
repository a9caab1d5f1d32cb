"""The background pipeline: a DB's job counts, and the scheduler alone.

Virtual time is the contract. A flush or compaction runs on the host at
submit; in virtual time it is in flight until the clock crosses its
lower bound, and it installs at its exact completion time. The DB tests
read the public job counts; the scheduler suite drives
``BackgroundScheduler`` over fake jobs with no DB at all.
"""

from repro.lsm.background import BackgroundScheduler, BgJob, BgJobOutput
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import SimClock


def _options(**extra):
    base = {
        "write_buffer_size": 4 * 1024,
        "target_file_size_base": 8 * 1024,
        "max_bytes_for_level_base": 32 * 1024,
    }
    base.update(extra)
    return Options(base)


def test_background_stats_gauge():
    db = DB.open("/bg-gauge", _options())
    for i in range(1500):
        db.put(b"k%05d" % (i % 400), b"v" * 48)
    db.wait_for_background()
    stats = db.background_stats
    assert stats["jobs_submitted"] > 0
    assert stats["jobs_joined"] == stats["jobs_submitted"]
    assert stats["jobs_pending"] == 0
    assert stats["join_stall_seconds"] == 0.0
    db.close()


def test_background_stats_count_this_db_on_a_shared_executor():
    """jobs_submitted is the scheduler's own count: two DBs in one
    process share nothing, so the joined == submitted identity holds
    per DB and neither reports the other's jobs."""
    dbs = [
        DB.open(f"/bg-two-{name}", _options(write_buffer_size=16 * 1024))
        for name in "ab"
    ]
    for db, puts in zip(dbs, (3000, 600)):
        for i in range(puts):
            db.put(b"k%05d" % (i % 900), b"v" * 64)
        db.wait_for_background()
    a, b = (db.background_stats for db in dbs)
    for stats, jobs in ((a, 25), (b, 5)):
        assert stats["jobs_submitted"] == jobs
        assert stats["jobs_joined"] == jobs
        assert stats["jobs_pending"] == 0
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
    """A BackgroundScheduler over fake jobs, run at submit."""

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
        assert job.output.result == name, "a job runs at submit"
        self.jobs.append(job)
        self.check_next_event()
        return job

    @staticmethod
    def is_joined(job):
        # Every fake job takes time, so a priced completion is nonzero.
        return job.done_at_us > 0.0

    def joined(self):
        return [job.spec for job in self.jobs if self.is_joined(job)]

    def check_next_event(self):
        """next_event_us is never later than the true next event."""
        waiting = [job for job in self.jobs if job.spec not in self.installed]
        truth = min(
            (job.done_at_us if self.is_joined(job) else job.lb_due_us
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
