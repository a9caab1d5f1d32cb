"""DbBench: the db_bench clone driving PyLSM.

Runs one :class:`~repro.bench.spec.WorkloadSpec` against a DB opened
with given options on a given hardware profile, measuring virtual-time
throughput and latency exactly the way ``db_bench`` reports them. A
progress callback supports ELMo-Tune's 30-second early-stop monitor.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.bench.keygen import ValueGenerator, format_key, make_generator
from repro.bench.spec import SCAN_WORKLOADS, WorkloadSpec
from repro.hardware.profile import HardwareProfile, make_profile
from repro.lsm.db import DB
from repro.errors import SimulatedCrash
from repro.lsm.env import Env
from repro.lsm.histogram import Histogram, HistogramSummary
from repro.lsm.options import Options
from repro.lsm.statistics import OpClass, Statistics, Ticker
from repro.obs.events import (
    BenchAbort,
    BenchEnd,
    BenchProgress,
    BenchStart,
    TraceEvent,
)
from repro.obs.tracer import Tracer

#: Callback contract: return False to abort the run early.
ProgressCallback = Callable[[BenchProgress], bool]


@dataclass
class BenchResult:
    """Everything one benchmark run produced."""

    spec: WorkloadSpec
    profile: HardwareProfile
    options: Options
    ops_done: int
    reads_done: int
    writes_done: int
    duration_s: float
    aborted: bool
    write_summary: HistogramSummary | None
    read_summary: HistogramSummary | None
    stall_micros: int
    stall_count: int
    slowdown_count: int
    cache_hit_rate: float
    bloom_useful_rate: float
    flush_count: int
    compaction_count: int
    bytes_written: int
    bytes_read: int
    level_shape: str
    db_size_bytes: int
    tickers: dict[str, int] = field(default_factory=dict)
    snapshot: object | None = None  # SystemSnapshot (psutil-like)
    #: Real (host) seconds the run took. Diagnostic only: every headline
    #: metric is virtual-time and deterministic; this one is not.
    wall_clock_s: float = 0.0

    @classmethod
    def from_tickers(
        cls,
        tickers: dict[str, int],
        write_hist: Histogram,
        read_hist: Histogram,
        **fields,
    ) -> "BenchResult":
        """A result whose engine-side fields are derived from a ticker
        dict (``Statistics.as_dict()``, or several summed — the sharded
        service's aggregate) and two latency histograms; ``fields`` are
        the dataclass fields neither determines."""

        def total(ticker: Ticker) -> int:
            return tickers[ticker.value]

        cache_hits = total(Ticker.BLOCK_CACHE_HIT)
        cache_total = cache_hits + total(Ticker.BLOCK_CACHE_MISS)
        bloom_checked = total(Ticker.BLOOM_CHECKED)
        return cls(
            write_summary=write_hist.summary() if write_hist.count else None,
            read_summary=read_hist.summary() if read_hist.count else None,
            stall_micros=total(Ticker.STALL_MICROS)
            + total(Ticker.DELAYED_WRITE_MICROS),
            stall_count=total(Ticker.STALL_COUNT),
            slowdown_count=total(Ticker.SLOWDOWN_COUNT),
            cache_hit_rate=cache_hits / cache_total if cache_total else 0.0,
            bloom_useful_rate=(
                total(Ticker.BLOOM_USEFUL) / bloom_checked if bloom_checked else 0.0
            ),
            flush_count=total(Ticker.FLUSH_COUNT),
            compaction_count=total(Ticker.COMPACTION_COUNT),
            bytes_written=total(Ticker.BYTES_WRITTEN),
            bytes_read=total(Ticker.BYTES_READ),
            tickers=tickers,
            **fields,
        )

    @property
    def ops_per_sec(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.ops_done / self.duration_s

    @property
    def micros_per_op(self) -> float:
        if self.ops_done == 0:
            return 0.0
        return self.duration_s * 1e6 / self.ops_done

    @property
    def mb_per_sec(self) -> float:
        payload = self.ops_done * (16 + self.spec.value_size)
        if self.duration_s <= 0:
            return 0.0
        return payload / 1e6 / self.duration_s

    def p99_write_us(self) -> float | None:
        return self.write_summary.p99 if self.write_summary else None

    def p99_read_us(self) -> float | None:
        return self.read_summary.p99 if self.read_summary else None

    def fingerprint(self) -> dict:
        """Deterministic view of the result for equality checks.

        Everything virtual-time-derived, excluding ``wall_clock_s`` and
        the monitor ``snapshot`` (both reflect the host, not the model).
        Two runs of the same spec, options and profile must produce
        identical fingerprints.
        """
        from dataclasses import asdict

        return {
            "spec": asdict(self.spec),
            "options": self.options.overrides(),
            "ops_done": self.ops_done,
            "reads_done": self.reads_done,
            "writes_done": self.writes_done,
            "duration_s": self.duration_s,
            "aborted": self.aborted,
            "write_summary": asdict(self.write_summary) if self.write_summary else None,
            "read_summary": asdict(self.read_summary) if self.read_summary else None,
            "stall_micros": self.stall_micros,
            "stall_count": self.stall_count,
            "slowdown_count": self.slowdown_count,
            "cache_hit_rate": self.cache_hit_rate,
            "bloom_useful_rate": self.bloom_useful_rate,
            "flush_count": self.flush_count,
            "compaction_count": self.compaction_count,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "level_shape": self.level_shape,
            "db_size_bytes": self.db_size_bytes,
            "tickers": dict(sorted(self.tickers.items())),
        }


def preload_stream(spec: WorkloadSpec) -> tuple[list[int], ValueGenerator]:
    """The preload every runner applies: key indices 0..preload-1 in a
    seeded *random* order (like a fillrandom preload — the resulting
    overlap across L0 files and levels is what gives readrandom its
    paper-scale read amplification) and the value generator to draw one
    value per key from, in that order. The sharded service routes the
    same stream by key, so a 1-shard service preloads a DB
    byte-identical to the bare benchmark's."""
    values = ValueGenerator(
        spec.value_size,
        pareto_sizes=spec.pareto_values,
        seed=spec.seed ^ 0x5EED,
    )
    order = list(range(spec.preload_keys))
    random.Random(spec.seed ^ 0x10AD).shuffle(order)
    return order, values


def op_stream(
    spec: WorkloadSpec, num_ops: int, seed: int
) -> Iterator[tuple[bool, Callable[[], bytes], Callable[[], bytes]]]:
    """The measured request stream every runner draws: ``num_ops``
    operations of ``spec`` from ``seed`` (the spec's own seed for
    :class:`DbBench`, a per-client seed for a simulated client).

    Yields ``(is_read, next_key, next_value)`` per operation: the mixed
    read/put draw and the key and value generators in force. Keys,
    values and the mix each have their own seeded generator, so a
    caller that draws no key (``readseq``'s cursor) or several (a
    multi-get batch), or ignores the mix (a client with a fixed role),
    leaves the other streams as they are. A phased spec's schedule is
    resolved over ``num_ops``: each segment sets the read fraction, and
    a distribution change reseeds the keys from (seed, segment index),
    so a phase lands at the same stream fraction however the ops were
    split.
    """
    # The generators are built here, when the stream is made, not on
    # its first draw: a value pool takes milliseconds to build, and a
    # runner makes its streams before it starts the clock.
    next_key = make_generator(spec.distribution, spec.num_keys, seed).next_key
    next_value = ValueGenerator(
        spec.value_size, pareto_sizes=spec.pareto_values, seed=seed ^ 0xBEEF
    ).next_value
    mix = random.Random(seed ^ 0xC0FFEE).random
    segments = spec.schedule(num_ops)

    def draws(next_key):
        segment = 0
        read_fraction = spec.read_fraction
        distribution = spec.distribution
        for op_index in range(num_ops):
            while (
                segment + 1 < len(segments)
                and op_index >= segments[segment + 1][0]
            ):
                segment += 1
                _start, read_fraction, new_dist = segments[segment]
                if new_dist != distribution:
                    distribution = new_dist
                    next_key = make_generator(
                        distribution, spec.num_keys, seed ^ (0xD41F7 + segment)
                    ).next_key
            is_read = read_fraction >= 1.0 or (
                read_fraction > 0.0 and mix() < read_fraction
            )
            yield is_read, next_key, next_value

    return draws(next_key)


def emit_progress(tracer: Tracer | None, event: TraceEvent) -> bool:
    """Emit one mid-run progress sample; True when a sink (the early-stop
    monitor) asked through the tracer's control channel to abort the
    run, after the ``bench.abort`` event is recorded."""
    if tracer is None:
        return False
    tracer.emit(event)
    if not tracer.abort_requested:
        return False
    tracer.emit(BenchAbort(tracer.take_abort() or "abort requested"))
    return True


class DbBench:
    """One-shot benchmark executor (construct, :meth:`run`, discard)."""

    #: ops between progress callbacks.
    PROGRESS_EVERY = 500
    #: Where every run keeps its store; the report prints it.
    DB_PATH = "/bench/db"

    def __init__(
        self,
        spec: WorkloadSpec,
        options: Options | None = None,
        profile: HardwareProfile | None = None,
        *,
        byte_scale: float = 1.0,
        env: Env | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.spec = spec
        self.options = options if options is not None else Options()
        self.profile = profile if profile is not None else make_profile(4, 4)
        self.byte_scale = byte_scale
        self.env = env if env is not None else Env()
        self.tracer = tracer

    # -- phases ------------------------------------------------------------

    def _preload(self, db: DB) -> None:
        if self.spec.preload_keys <= 0:
            return
        order, values = preload_stream(self.spec)
        for index in order:
            db.put(format_key(index), values.next_value())
        # Flushes are awaited; the compaction backlog stays live, like a
        # real store at the moment a post-load benchmark begins.
        db.flush(wait_compactions=False)

    def run(self, progress: ProgressCallback | None = None) -> BenchResult:
        """Execute preload + measured phase; returns the result."""
        wall_start = time.perf_counter()
        stats = Statistics()
        tracer = (
            self.tracer
            if self.tracer is not None and self.tracer.enabled
            else None
        )
        db = DB.open(
            self.DB_PATH,
            self.options,
            env=self.env,
            profile=self.profile,
            statistics=stats,
            byte_scale=self.byte_scale,
            tracer=self.tracer,
        )
        spec = self.spec
        reads = writes = 0
        start_us = self.env.clock.now_us
        try:
            self._preload(db)
            stats.reset()
            db.foreground_parallelism = max(
                1, min(spec.threads, self.profile.cpu_cores)
            )
            stream = op_stream(spec, spec.num_ops, spec.seed)
            if tracer is not None:
                tracer.emit(
                    BenchStart(spec.name, spec.num_ops, spec.num_keys)
                )
            start_us = self.env.clock.now_us
            aborted = False
            sample = progress is not None or tracer is not None
            # Scan-shaped workloads drive a persistent lazy cursor: one
            # sequential pass for readseq (re-seeking to the first key
            # on exhaustion), random seeks each followed by seek_nexts
            # Next() calls for seekrandom. One SEEK histogram sample is
            # recorded per logical operation (seek + its nexts).
            scan_mode = spec.name in SCAN_WORKLOADS or spec.seek_nexts > 0
            sequential = spec.name == "readseq"
            cursor = db.iterator() if scan_mode else None
            for op_index, (is_read, next_key, next_value) in enumerate(stream):
                if cursor is not None:
                    if sequential:
                        latency = (
                            cursor.next() if cursor.valid
                            else cursor.seek(None)
                        )
                    else:
                        latency = cursor.seek(next_key())
                        for _ in range(spec.seek_nexts):
                            if not cursor.valid:
                                break
                            latency += cursor.next()
                    stats.observe(OpClass.SEEK, latency)
                    reads += 1
                elif is_read:
                    db.get(next_key())
                    reads += 1
                else:
                    db.put(next_key(), next_value())
                    writes += 1
                if sample and (op_index + 1) % self.PROGRESS_EVERY == 0:
                    elapsed = (self.env.clock.now_us - start_us) / 1e6
                    event = BenchProgress(
                        ops_done=op_index + 1,
                        total_ops=spec.num_ops,
                        elapsed_virtual_s=elapsed,
                        ops_per_sec=(op_index + 1) / elapsed if elapsed > 0 else 0.0,
                    )
                    if emit_progress(tracer, event):
                        aborted = True
                        break
                    if progress is not None and not progress(event):
                        aborted = True
                        if tracer is not None:
                            tracer.emit(BenchAbort("progress callback"))
                        break
            if cursor is not None:
                cursor.close()
            duration_s = (self.env.clock.now_us - start_us) / 1e6
            if tracer is not None:
                ops_done = reads + writes
                tracer.emit(
                    BenchEnd(
                        ops_done=ops_done,
                        reads_done=reads,
                        writes_done=writes,
                        duration_s=duration_s,
                        ops_per_sec=(
                            ops_done / duration_s if duration_s > 0 else 0.0
                        ),
                        aborted=aborted,
                    )
                )
            result = self._collect(db, stats, reads, writes, duration_s, aborted)
            result.wall_clock_s = time.perf_counter() - wall_start
            return result
        except SimulatedCrash:
            # A fault-injection harness killed the simulated process
            # mid-benchmark. Report what completed as an aborted run;
            # the dead filesystem makes further engine calls invalid.
            if tracer is not None:
                tracer.emit(BenchAbort("simulated crash"))
            duration_s = (self.env.clock.now_us - start_us) / 1e6
            result = self._collect(db, stats, reads, writes, duration_s, True)
            result.wall_clock_s = time.perf_counter() - wall_start
            return result
        finally:
            try:
                db.close()
            except SimulatedCrash:
                pass  # the crash already "closed" the process

    def _collect(
        self,
        db: DB,
        stats: Statistics,
        reads: int,
        writes: int,
        duration_s: float,
        aborted: bool,
    ) -> BenchResult:
        write_hist = stats.histogram(OpClass.PUT)
        read_hist = stats.histogram(OpClass.GET)
        if not read_hist.count:
            # Scan workloads record per-operation latency under SEEK;
            # surface it as the read summary so the report/parser see
            # the same "Microseconds per read" block as db_bench prints.
            seek_hist = stats.histogram(OpClass.SEEK)
            if seek_hist.count:
                read_hist = seek_hist
        return BenchResult.from_tickers(
            stats.as_dict(),
            write_hist,
            read_hist,
            spec=self.spec,
            profile=self.profile,
            options=self.options.copy(),
            ops_done=reads + writes,
            reads_done=reads,
            writes_done=writes,
            duration_s=duration_s,
            aborted=aborted,
            level_shape=db.describe(),
            db_size_bytes=db.approximate_size(),
            snapshot=db.monitor.snapshot(self.env.clock.now_us),
        )
