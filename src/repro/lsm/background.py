"""Host-parallel background execution for flush and compaction jobs.

The virtual clock has always overlapped background work (the
``SlotPool``/``CompletionQueue`` pair in :mod:`repro.sim.resources`);
this module makes the *host* overlap it too. At schedule time the DB
captures every deterministic input of a flush or compaction — the
immutable memtable batch, positional-read handles over the input
tables, a frozen snapshot floor, the build options — into a job spec
and hands it to a :class:`BackgroundExecutor`. The job function is
**pure**: it builds into a private scratch :class:`MemFileSystem` and
returns result counters plus the finished table bytes, never touching
the DB's filesystem, caches, tracer, or clock. The foreground joins the
future only when virtual time forces it (see ``DB._resolve_bg_due``),
so the answer is bit-identical no matter where the merge ran.

Two modes:

``inline``
    Runs the job synchronously at submit. The default — zero host
    overlap, zero risk, and the reference behaviour ``thread`` must
    reproduce byte-for-byte.
``thread``
    A ``ThreadPoolExecutor``. Cheap handoff (inputs are shared by
    reference), but pure-Python merge work holds the GIL, so the
    overlap mostly covers the foreground's own C-level time (WAL CRC,
    bytearray appends). It is not here for speed: it is the canary
    that real host concurrency cannot leak into virtual time.

Fault-injection runs (``FaultFS``) pin ``inline`` regardless of the
configured mode: crash-at-Nth-syscall schedules count foreground
filesystem calls, and background workers must never race that count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.lsm.compaction.leveled import CompactionResult, run_compaction
from repro.lsm.compaction.picker import Compaction
from repro.lsm.env import MemFileSystem, RandomAccessFile
from repro.lsm.flush import FlushResult, run_flush
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.snapshot import SnapshotList
from repro.lsm.sstable import SSTableBuilder, SSTableReader

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

    def open(self, fs: MemFileSystem, path: str) -> SSTableBuilder:
        return SSTableBuilder(
            fs,
            path,
            block_size=self.block_size,
            restart_interval=self.restart_interval,
            compression=self.compression,
            bloom_bits_per_key=self.bloom_bits_per_key,
            whole_key_filtering=self.whole_key_filtering,
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

    ``input_files`` are positional-read handles captured on the
    foreground at schedule time: they pin the input tables' bytes (a
    ``bytearray`` reference), so the job survives even an install that
    later unlinks the paths.
    """

    compaction: Compaction
    input_files: list[RandomAccessFile]
    verify_checksums: bool
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
    files: list[bytes] = field(default_factory=list)


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
    return BgJobOutput(result=result, files=files)


def execute_compaction_job(spec: CompactionJobSpec) -> BgJobOutput:
    """Pure compaction: merge input tables into new tables' bytes."""
    readers = [
        SSTableReader(
            file, meta.file_number, verify_checksums=spec.verify_checksums
        )
        for file, meta in zip(spec.input_files, spec.compaction.all_inputs)
    ]
    fs = MemFileSystem()
    counter = iter(range(1, 1 << 30))
    result = run_compaction(
        spec.compaction,
        readers,
        spec.target_file_size,
        new_table_path=lambda: _scratch_path(next(counter)),
        open_builder=lambda path, level: spec.builder.open(fs, path),
        bottommost=spec.bottommost,
        snapshots=spec.snapshots,
    )
    files = [
        fs.read_all(_scratch_path(meta.file_number))
        for meta in result.new_files
    ]
    return BgJobOutput(result=result, files=files)


# --------------------------------------------------------------- executors


class BgHandle:
    """Join handle for a submitted job; records the host stall paid."""

    __slots__ = ("_value", "_future", "wait_s")

    def __init__(self, value: BgJobOutput | None = None, future=None) -> None:
        self._value = value
        self._future = future
        #: Host seconds the foreground spent blocked in :meth:`result`.
        self.wait_s = 0.0

    def result(self) -> BgJobOutput:
        if self._future is not None:
            t0 = time.perf_counter()
            self._value = self._future.result()
            self.wait_s += time.perf_counter() - t0
            self._future = None
        assert self._value is not None
        return self._value


class BackgroundExecutor:
    """Where flush/compaction job functions run on the host.

    Implementations only change *where* the pure job executes; every
    scheduling, pricing, and install decision stays on the foreground,
    which is what keeps virtual time identical across modes.
    """

    mode: str = "inline"

    def __init__(self) -> None:
        self.jobs_submitted = 0

    def submit(
        self, fn: Callable[[object], BgJobOutput], spec: object
    ) -> BgHandle:
        """Run ``fn(spec)`` somewhere and return its join handle."""
        raise NotImplementedError

    def resize(self, workers: int) -> None:
        """Adopt a new worker count (from ``max_background_jobs``)."""

    def close(self) -> None:
        """Release host resources; idempotent."""


class InlineExecutor(BackgroundExecutor):
    """Run jobs synchronously at submit (the reference mode)."""

    mode = "inline"

    def submit(self, fn, spec) -> BgHandle:
        self.jobs_submitted += 1
        return BgHandle(value=fn(spec))


class ThreadExecutor(BackgroundExecutor):
    """Jobs on a lazily built thread pool: shared-memory handoff,
    GIL-bound merges."""

    mode = "thread"

    def __init__(self, workers: int) -> None:
        super().__init__()
        self._workers = max(1, workers)
        self._pool: ThreadPoolExecutor | None = None

    def submit(self, fn, spec) -> BgHandle:
        self.jobs_submitted += 1
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="lsm-bg"
            )
        return BgHandle(future=self._pool.submit(fn, spec))

    def resize(self, workers: int) -> None:
        workers = max(1, workers)
        if workers == self._workers:
            return
        self._workers = workers
        # Only the executor's owner resizes it, after its DBs joined
        # their pending jobs; a straggler's future still completes
        # (shutdown drains the queue) and is joined from its handle.
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def executor_width(options: Options) -> int:
    """Host workers backing an executor: the virtual slot budget
    (``max_background_jobs`` and its per-kind overrides) capped by the
    machine actually running the simulation."""
    width = (
        options.effective_max_background_flushes()
        + options.effective_max_background_compactions()
    )
    return max(1, min(width, os.cpu_count() or 2))


def make_executor(mode: str, workers: int = 2) -> BackgroundExecutor:
    """Build the executor for ``background_executor=mode``."""
    if mode == "inline":
        return InlineExecutor()
    if mode == "thread":
        return ThreadExecutor(workers)
    raise ValueError(f"unknown background executor mode {mode!r}")
