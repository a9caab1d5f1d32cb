"""Flush and compaction jobs: pure job functions and their virtual schedule.

At schedule time the DB captures every deterministic input of a flush
or compaction — the immutable memtable batch, the table cache's open
readers over the input tables, a frozen snapshot floor, the build
options — into a job spec. The job function is **pure**: it builds into
a private scratch :class:`MemFileSystem` and returns result counters
plus the finished table bytes, never touching the DB's filesystem,
block or page cache, tracer, or clock. (Reading an input does drop
that reader's decoded-block memo: host state, never modelled.)

On the host a job runs at submit, on the foreground: concurrency is
modelled, not executed. In virtual time the job stays in flight —
:class:`BackgroundScheduler` books it a slot until a lower bound on its
completion, settles the exact duration when the clock crosses that
bound (the join), and installs the result at its completion time. The
threaded and forked host vehicles this module once carried are parked
in DESIGN.md §7 with the measurements that retired them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.lsm.compaction.leveled import CompactionResult, run_compaction
from repro.lsm.compaction.picker import Compaction
from repro.lsm.env import MemFileSystem
from repro.lsm.flush import FlushResult, run_flush
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.perf_model import PerfModel
from repro.lsm.rate_limiter import RateLimiter
from repro.lsm.snapshot import SnapshotList
from repro.lsm.sstable import KeptBlock, SSTableBuilder, SSTableReader
from repro.obs.events import BgJoin, BgSubmit, CompactionRun, FlushRun
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.sim.resources import CompletionQueue, SlotPool

# --------------------------------------------------------------- job specs


@dataclass
class BuilderConfig:
    """Schedule-time snapshot of everything ``DB._make_builder`` reads.

    Captured once per job so a concurrent ``set_options`` (impossible
    today — pending jobs are resolved first — but cheap to make
    structurally true) or a version change can never alter an in-flight
    build.
    """

    block_size: int
    restart_interval: int
    compression: str
    bloom_bits_per_key: float
    whole_key_filtering: bool

    def open(
        self, fs: MemFileSystem, path: str, *, keep_blocks: bool = False
    ) -> SSTableBuilder:
        return SSTableBuilder(
            fs,
            path,
            block_size=self.block_size,
            restart_interval=self.restart_interval,
            compression=self.compression,
            bloom_bits_per_key=self.bloom_bits_per_key,
            whole_key_filtering=self.whole_key_filtering,
            keep_blocks=keep_blocks,
        )


@dataclass
class FlushJobSpec:
    """Deterministic inputs of one flush job."""

    memtables: list[MemTable]
    snapshots: SnapshotList
    builder: BuilderConfig


@dataclass
class CompactionJobSpec:
    """Deterministic inputs of one compaction job.

    ``readers`` are the table cache's open readers over the inputs
    (``compaction.all_inputs`` order). A job runs at submit, so it reads
    them before the install that retires the tables can happen.
    """

    compaction: Compaction
    readers: list[SSTableReader]
    #: Whether the output level is the bottommost populated one. An
    #: output above it will be compacted again, so its builder keeps
    #: its blocks for the table cache to seed that table's reader with.
    bottommost: bool
    snapshots: SnapshotList
    builder: BuilderConfig
    #: ``options.target_file_size(output_level)`` at schedule time;
    #: unused for L0 outputs (run_compaction keeps those unsplit).
    target_file_size: int


@dataclass
class BgJobOutput:
    """What a job ships back: counters plus finished table bytes.

    ``files`` aligns 1:1 with the result's output metas (``file_meta``
    for a flush, ``new_files`` for a compaction); the metas carry
    job-local file numbers that the DB replaces when it materializes
    the bytes on its own filesystem at install time.
    """

    result: FlushResult | CompactionResult
    files: list[bytes]
    #: ``(bytes in, bytes out, entries)`` as the duration formulas take
    #: them, and as the trace event the foreground emits at the join.
    work: tuple[int, int, int]
    run_event: FlushRun | CompactionRun
    #: Aligned with ``files`` for a compaction above the bottommost
    #: level: each output's kept blocks (see ``SSTableBuilder``).
    blocks: list[list[KeptBlock]] = field(default_factory=list)


def _scratch_path(number: int) -> str:
    return f"bg/{number:06d}.sst"


def execute_flush_job(spec: FlushJobSpec) -> BgJobOutput:
    """Pure flush: merge the batch into (at most) one table's bytes."""
    fs = MemFileSystem()
    counter = iter(range(1, 1 << 30))

    def open_builder() -> SSTableBuilder:
        return spec.builder.open(fs, _scratch_path(next(counter)))

    result = run_flush(spec.memtables, open_builder, spec.snapshots)
    files: list[bytes] = []
    if result.file_meta is not None:
        files.append(fs.read_all(_scratch_path(result.file_meta.file_number)))
    return BgJobOutput(
        result=result,
        files=files,
        work=(result.bytes_in, result.bytes_out, result.entries_in),
        run_event=FlushRun(
            memtables=len(spec.memtables),
            entries_in=result.entries_in,
            entries_out=result.entries_out,
            bytes_in=result.bytes_in,
            bytes_out=result.bytes_out,
        ),
    )


def execute_compaction_job(spec: CompactionJobSpec) -> BgJobOutput:
    """Pure compaction: merge input tables into new tables' bytes."""
    fs = MemFileSystem()
    counter = iter(range(1, 1 << 30))
    keep = not spec.bottommost
    builders: list[SSTableBuilder] = []

    def open_builder(path: str, level: int) -> SSTableBuilder:
        builder = spec.builder.open(fs, path, keep_blocks=keep)
        builders.append(builder)
        return builder

    result = run_compaction(
        spec.compaction,
        spec.readers,
        spec.target_file_size,
        new_table_path=lambda: _scratch_path(next(counter)),
        open_builder=open_builder,
        bottommost=spec.bottommost,
        snapshots=spec.snapshots,
    )
    files = [
        fs.read_all(_scratch_path(meta.file_number))
        for meta in result.new_files
    ]
    return BgJobOutput(
        result=result,
        files=files,
        blocks=[builder.kept_blocks for builder in builders] if keep else [],
        work=(result.bytes_read, result.bytes_written, result.entries_merged),
        run_event=CompactionRun(
            level=spec.compaction.level,
            output_level=spec.compaction.output_level,
            inputs=len(spec.compaction.all_inputs),
            bytes_read=result.bytes_read,
            bytes_written=result.bytes_written,
            entries_merged=result.entries_merged,
            entries_dropped=result.entries_dropped,
        ),
    )


# --------------------------------------------------------------- scheduler


@dataclass(eq=False)
class BgJob:
    """One background job: the same record from submit to install.

    The DB fills the first block when it captures the job,
    :meth:`BackgroundScheduler.submit` runs it and books the second,
    the join prices the third, and ``install`` reads what it needs of
    all three.
    """

    #: ``"flush"`` or ``"compaction"``: names the slot pool, the
    #: duration formula and the trace events.
    kind: str
    #: The pure job function and its captured inputs (``run(spec)``).
    run: Callable[[Any], BgJobOutput]
    spec: Any
    #: Applies the joined job to the state of the DB that captured it.
    install: Callable[["BgJob"], None]
    #: What the duration formula knows at schedule time. Output bytes
    #: come only from the merge; the formula is monotonic in them, so at
    #: zero it gives a bound the exact duration can never undercut (the
    #: limiter charge is likewise >= 0).
    bytes_in: int
    entries_in: int
    swap_factor: float
    #: Subcompactions the merge is split over (1 for a flush).
    parallelism: int = 1
    #: WALs covering a flush's memtables, unlinked at install.
    wal_paths: list[str] = field(default_factory=list)

    # -- booked by submit
    #: Also the tie-break between completions on one virtual
    #: microsecond: submit order, whichever was joined first.
    job_id: int = 0
    #: What ``run(spec)`` returned. The schedule does not read it before
    #: the join: a slot is chosen by what is known at schedule time.
    output: BgJobOutput | None = None
    sched_now_us: float = 0.0
    slot: int = 0
    #: Lower bound on the completion time; the booking may chain behind
    #: an earlier unsettled job on the same slot.
    lb_due_us: float = 0.0

    # -- known once joined
    duration_us: float = 0.0
    done_at_us: float = 0.0


class BackgroundScheduler:
    """The flush/compaction pipeline between capture and install.

    The DB captures a :class:`BgJob` and installs its result. What lies
    between — running the job, booking a slot until its lower bound,
    joining it once virtual time crosses that bound, pricing the exact
    duration, ordering completions — happens here. A job is booked with
    what a scheduler can know at schedule time: its slot is chosen by
    the provisional end (input bytes, zero output), never by the result
    the host already holds, and the exact duration enters virtual time
    only at the join.
    """

    def __init__(
        self,
        options: Options,
        perf: PerfModel,
        clock: SimClock,
        tracer: Tracer,
    ) -> None:
        self._clock = clock
        self._tracer = tracer
        self._trace_on = tracer.enabled
        self._pools = {"flush": SlotPool(1), "compaction": SlotPool(1)}
        self._duration_us = {
            "flush": perf.flush_duration_us,
            "compaction": perf.compaction_duration_us,
        }
        self._rate_limiter = RateLimiter(0)
        #: Submitted-but-unjoined jobs, in submit (FIFO) order.
        self._pending: list[BgJob] = []
        #: Joined jobs awaiting install, by (done_at_us, job_id).
        self._completions = CompletionQueue()
        #: Earliest virtual time at which :meth:`poll` has work: a
        #: pending job's lower bound or a joined job's completion. The
        #: write hot path compares the clock against this one float.
        self.next_event_us = math.inf
        #: (valid_until, count) memo for :meth:`busy`: the count only
        #: changes when a slot's end or an event passes or a booking
        #: moves, so between those the per-op poll is one compare.
        self._busy_cache: tuple[float, int] = (-math.inf, 0)
        self._submitted = 0
        self._joined = 0
        self.rebind(options)

    def rebind(self, options: Options) -> None:
        """Adopt ``options``: pool widths and limiter rate.

        Pending jobs were priced under the old bindings and hold slot
        indices a resize would invalidate, so they are joined first.
        """
        self.join_all()
        self._rate_limiter.set_bytes_per_second(
            options.get("rate_limiter_bytes_per_sec"), now_us=self._clock.now_us
        )
        self._pools["flush"].resize(options.effective_max_background_flushes())
        self._pools["compaction"].resize(
            options.effective_max_background_compactions()
        )
        self._refresh()

    # -- submit / join -------------------------------------------------------

    def submit(self, job: BgJob) -> None:
        """Run ``job`` and book it a slot until its lower bound."""
        now = self._clock.now_us
        self._submitted += 1
        job.job_id = self._submitted
        job.sched_now_us = now
        lb_duration = (
            self._duration_us[job.kind](job.bytes_in, 0, job.entries_in)
            * job.swap_factor
            / job.parallelism
        )
        job.slot, _, job.lb_due_us = self._pools[job.kind].acquire_pending(
            now, lb_duration
        )
        job.output = job.run(job.spec)
        self._pending.append(job)
        self._refresh()
        if self._trace_on:
            self._tracer.emit(
                BgSubmit(
                    kind=job.kind,
                    job_id=job.job_id,
                    lower_bound_due_us=job.lb_due_us,
                )
            )

    def _join(self, job: BgJob) -> None:
        """Join one job and finish its schedule-time bookkeeping: the
        exact duration is priced from the result's counters, the
        provisional slot booking is settled, and the completion is
        queued under the job's id — so the queue orders as if the result
        had been known all along."""
        out = job.output
        self._joined += 1
        bytes_in, bytes_out, entries = out.work
        duration = (
            self._duration_us[job.kind](bytes_in, bytes_out, entries)
            * job.swap_factor
        )
        duration += self._rate_limiter.request(job.sched_now_us, bytes_out)
        duration /= job.parallelism
        job.duration_us = duration
        _, job.done_at_us = self._pools[job.kind].settle(
            job.slot, job.sched_now_us, duration
        )
        self._completions.push(job.done_at_us, job.job_id, job)
        if self._trace_on:
            self._tracer.emit(out.run_event)
            self._tracer.emit(
                BgJoin(
                    kind=job.kind,
                    job_id=job.job_id,
                    due_us=job.done_at_us,
                    duration_us=duration,
                )
            )

    def _join_due(self, now_us: float) -> None:
        """Join every pending job whose lower bound has passed. With a
        rate limiter active the jobs ahead of a due one are joined too:
        limiter requests must replay in strict submit order, since their
        returns feed durations. Without one they commute, so only the
        due jobs are joined (in submit order among themselves) and
        later-bounded work stays pending."""
        pending = self._pending
        if self._rate_limiter.enabled:
            while pending and min(j.lb_due_us for j in pending) <= now_us:
                self._join(pending.pop(0))
        else:
            self._pending = [j for j in pending if j.lb_due_us > now_us]
            for job in pending:
                if job.lb_due_us <= now_us:
                    self._join(job)

    def join_all(self) -> None:
        """Join every pending job (explicit waits, shutdown, rebinds)."""
        while self._pending:
            self._join(self._pending.pop(0))
        self._refresh()

    def _refresh(self) -> None:
        self.next_event_us = min(
            [self._completions.next_due_us]
            + [job.lb_due_us for job in self._pending]
        )
        self._busy_cache = (-math.inf, 0)

    # -- foreground polls ----------------------------------------------------

    def poll(self, now_us: float) -> None:
        """Install every job finished by ``now_us``, in (time, submit)
        order."""
        if self.next_event_us > now_us:
            return
        # Join before popping: a joined job's exact completion may
        # itself be <= now and must install in this round.
        self._join_due(now_us)
        for job in self._completions.pop_due(now_us):
            job.install(job)
        self._refresh()

    def busy(self, now_us: float) -> int:
        """Background slots busy at ``now_us``. A pending job's
        provisional booking ends at its lower bound; past that point the
        count is only exact once the real duration is settled, so jobs
        whose bound has come due are joined (not installed) first."""
        valid_until, count = self._busy_cache
        if now_us < valid_until:
            return count
        self._join_due(now_us)
        self._refresh()
        pools = self._pools.values()
        count = sum(pool.busy_count(now_us) for pool in pools)
        self._busy_cache = (
            min(self.next_event_us, *(p.next_free_us(now_us) for p in pools)),
            count,
        )
        return count

    def wait_next(self, kind: str | None = None) -> BgJob | None:
        """The drain step: join everything so the true earliest
        completion is known, jump the clock to it and install it.
        Returns the installed job, or ``None`` with the clock untouched
        when no job (of ``kind``, when given) is in flight."""
        self.join_all()
        if not self.inflight(kind):
            return None
        job = self._completions.pop_next()
        self._refresh()
        self._clock.advance_to(job.done_at_us)
        job.install(job)
        return job

    # -- views ---------------------------------------------------------------

    def inflight(self, kind: str | None = None) -> list[BgJob]:
        """Submitted jobs (of ``kind``, when given) not yet installed:
        what the DB derives its flushing memtables and claimed files
        from."""
        return [
            job for job in (*self._pending, *self._completions)
            if kind is None or job.kind == kind
        ]

    @property
    def stats(self) -> dict[str, Any]:
        """Gauge of the pipeline (see ``DB.background_stats``)."""
        return {
            "jobs_submitted": self._submitted,
            "jobs_joined": self._joined,
            "jobs_pending": len(self._pending),
            # benchmarks/perf/workloads.py reads it until lsm.bg_join_wait_s goes
            "join_stall_seconds": 0.0,
        }

    # -- lifecycle -----------------------------------------------------------

    def drop(self) -> None:
        """Crash: in-flight jobs die with the process image. Forget the
        pending list without joining."""
        self._pending.clear()
        self._refresh()
