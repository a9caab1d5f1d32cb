"""The five workloads, each as one *round*: set up, measure, check.

A run repeats a round several times on identical inputs (see
``timeline.fastest``), so a round returns its measured phase as a list
of units of identical work — one per operation for the engine
workloads, one per progress window or trace event for the service and
the tuner — plus the numbers that must repeat exactly (virtual time,
counts) and the host durations outside the measured phase.

Sizes are for ``scale`` 1.0 (``--seconds 10``): about two host seconds
of measured work per round on the 2-core box this was sized on.
Everything not set here is a repo default: inline background executor,
WAL on, no per-write fsync except for the service workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.bench.keygen import ValueGenerator, ZipfianKeys, format_key, make_generator
from repro.bench.runner import DbBench
from repro.bench.spec import (
    DEFAULT_BYTE_SCALE,
    DEFAULT_SCALE,
    READWHILEWRITING,
    paper_workload,
)
from repro.core.tuner import ElmoTune, TunerConfig
from repro.hardware.profile import PAPER_HDD_2C4G
from repro.llm.client import ChatMessage, LLMClient
from repro.llm.simulated import SimulatedExpert
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.options import Options
from repro.lsm.statistics import OpClass, Statistics, Ticker
from repro.obs.tracer import Tracer
from repro.service import ShardedService

from timeline import HostStampSink, Recorder

KiB = 1024


@dataclass
class Round:
    """What one round of a workload produced."""

    setup_s: float = 0.0
    #: The measured phase, unit by unit: what ran, how many operations
    #: it covered, and the host seconds it took. ``starts`` is kept for
    #: the units that become spans.
    kinds: list[str] = field(default_factory=list)
    unit_ops: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Virtual-time results and counts: equal in every round of a run.
    exact: dict[str, float] = field(default_factory=dict)
    #: Host seconds outside the measured units, by per-layer metric name.
    host: dict[str, float] = field(default_factory=dict)
    events: int = 0
    rec: Recorder = field(default_factory=Recorder)

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.failures.append(f"{what}: {count}")


def _host_stamping(traced: bool) -> tuple[HostStampSink | None, Tracer | None]:
    """The sink and the tracer to hand the layer under test, if traced."""
    if not traced:
        return None, None
    sink = HostStampSink()
    return sink, Tracer(sink)


# ------------------------------------------------------------ engine

def _engine_counts(db: DB, stats: Statistics, user_bytes: int, live_bytes: int) -> dict[str, float]:
    """Public counters of one DB, read at the end of the measured phase."""
    t = stats.ticker
    mem_lookups = t(Ticker.MEMTABLE_HIT) + t(Ticker.MEMTABLE_MISS)
    gets = t(Ticker.NUMBER_KEYS_READ)
    put_hist = stats.histogram(OpClass.PUT)
    get_hist = stats.histogram(OpClass.GET)
    return {
        "lsm.virt_p99_write_us": put_hist.summary().p99 if put_hist.count else 0.0,
        "lsm.virt_p99_read_us": get_hist.summary().p99 if get_hist.count else 0.0,
        "lsm.flush_count": t(Ticker.FLUSH_COUNT),
        "lsm.compaction_count": t(Ticker.COMPACTION_COUNT),
        "lsm.compaction_bytes_written": t(Ticker.COMPACTION_BYTES_WRITTEN),
        "lsm.write_amp": t(Ticker.BYTES_WRITTEN) / user_bytes if user_bytes else 0.0,
        "lsm.space_amp": db.approximate_size() / live_bytes if live_bytes else 0.0,
        "lsm.wal_syncs": t(Ticker.WAL_SYNCS),
        "lsm.stall_virtual_ms": (t(Ticker.STALL_MICROS) + t(Ticker.DELAYED_WRITE_MICROS)) / 1000.0,
        "lsm.block_cache_hit_rate": stats.cache_hit_rate(),
        "lsm.bloom_useful_rate": stats.bloom_useful_rate(),
        "lsm.memtable_hit_rate": t(Ticker.MEMTABLE_HIT) / mem_lookups if mem_lookups else 0.0,
        "lsm.table_opens": t(Ticker.TABLE_OPENS),
        "lsm.bytes_read_per_get": (
            (t(Ticker.BYTES_READ) - t(Ticker.COMPACTION_BYTES_READ)) / gets if gets else 0.0
        ),
        "lsm.l0_files_end": db.version.num_files(0),
        "lsm.bg_jobs": db.background_stats["jobs_submitted"],
    }


def _finish_engine_round(
    out: Round, rec: Recorder, sink: HostStampSink | None, db: DB, env: Env,
    path: str, options: Options, shadow: dict[bytes, bytes], seed: int,
) -> None:
    """Close, reopen, and compare a seeded sample with the shadow dict."""
    out.host["lsm.bg_join_wait_s"] = db.background_stats["join_stall_seconds"]
    t = perf_counter()
    with rec.span("lsm.close"):
        db.close()
    out.host["lsm.close_s"] = perf_counter() - t
    t = perf_counter()
    with rec.span("lsm.reopen"):
        db = DB.open(path, options, env=env)
    out.host["lsm.reopen_s"] = perf_counter() - t
    with rec.span("harness.check"):
        sample = random.Random(seed ^ 0x5A3C).sample(sorted(shadow), min(5000, len(shadow)))
        with rec.span("lsm.check_gets"):
            got = [db.get(key) for key in sample]
        wrong = sum(1 for key, value in zip(sample, got) if value != shadow[key])
        out.attempted += len(sample)
        out.fail(wrong, "keys wrong after close and reopen")
        with rec.span("lsm.close"):
            db.close()
    if sink is not None:
        out.events = len(sink.stamps)


def _op_spans(out: Round, rec: Recorder, sink: HostStampSink | None) -> None:
    """Per-operation spans and the engine's host-stamped events under
    them; called with the measured phase's span still open."""
    if sink is None:
        return
    parents = []
    for kind, start, seconds in zip(out.kinds, out.starts, out.seconds):
        parents.append((start, start + seconds, len(rec.spans)))
        rec.add(f"lsm.{kind}", start, start + seconds)
    for event_type, at, _event in sink.stamps:
        rec.add_under(parents, event_type, at)


def fill(seed: int, scale: float, traced: bool) -> Round:
    """Random puts into an empty bare DB with a 64 KiB write buffer."""
    out = Round()
    rec = out.rec
    sink, tracer = _host_stamping(traced)
    n = max(2000, int(40_000 * scale))
    key_space = n * 4 // 3
    path, options = "/perf/fill", Options({"write_buffer_size": 64 * KiB})
    with rec.span("harness.round"):
        t0 = perf_counter()
        with rec.span("harness.inputs"):
            rng = random.Random(seed)
            keys = [format_key(rng.randrange(key_space)) for _ in range(n)]
            values = ValueGenerator(100, seed=seed ^ 0xBEEF)
            vals = [values.next_value() for _ in range(n)]
            shadow = dict(zip(keys, vals))
        env, stats = Env(), Statistics()
        t = perf_counter()
        with rec.span("lsm.open"):
            db = DB.open(path, options, env=env, statistics=stats, tracer=tracer)
        out.host["lsm.open_s"] = perf_counter() - t
        out.setup_s = perf_counter() - t0

        clock0 = env.clock.now_us
        with rec.span("harness.measure"):
            starts, seconds = [0.0] * n, [0.0] * n
            put, pc = db.put, perf_counter
            for i in range(n):
                key, value = keys[i], vals[i]
                a = pc()
                put(key, value)
                seconds[i] = pc() - a
                starts[i] = a
            out.kinds, out.unit_ops = ["put"] * n, [1] * n
            out.starts, out.seconds = starts, seconds
            _op_spans(out, rec, sink)
        out.attempted = n
        virtual_s = (env.clock.now_us - clock0) / 1e6
        user_bytes = sum(len(k) + len(v) for k, v in zip(keys, vals))
        live_bytes = sum(len(k) + len(v) for k, v in shadow.items())
        out.exact = _engine_counts(db, stats, user_bytes, live_bytes)
        out.exact["virt_ops_per_s"] = n / virtual_s
        _finish_engine_round(out, rec, sink, db, env, path, options, shadow, seed)
    return out


def readmix(seed: int, scale: float, traced: bool) -> Round:
    """70% zipfian gets, 10% gets of absent keys, 10% short scans and
    10% puts over a preloaded multi-level tree larger than its cache."""
    out = Round()
    rec = out.rec
    sink, tracer = _host_stamping(traced)
    num_keys = max(2000, int(12_000 * scale))
    n = max(2000, int(18_000 * scale))
    path = "/perf/readmix"
    options = Options({
        "write_buffer_size": 64 * KiB,
        "target_file_size_base": 64 * KiB,
        "max_bytes_for_level_base": 256 * KiB,
        "bloom_filter_bits_per_key": 10,
        # ~116 B per entry: the cache holds about a ninth of the data.
        "block_cache_size": max(16 * KiB, num_keys * 116 // 9),
    })
    with rec.span("harness.round"):
        t0 = perf_counter()
        with rec.span("harness.inputs"):
            rng = random.Random(seed)
            sorted_keys = [format_key(i) for i in range(num_keys)]
            values = ValueGenerator(100, seed=seed ^ 0xBEEF)
            order = list(range(num_keys))
            rng.shuffle(order)
            preload = [(sorted_keys[i], values.next_value()) for i in order]
            shadow = dict(preload)
            hot = ZipfianKeys(num_keys, seed=seed ^ 0x21F)
            ops: list[tuple[str, int, bytes]] = []
            for _ in range(n):
                draw = rng.random()
                if draw < 0.7:
                    ops.append(("get", hot.next_index(), b""))
                elif draw < 0.8:
                    # Indices past the key space are never written.
                    ops.append(("miss", num_keys + rng.randrange(num_keys), b""))
                elif draw < 0.9:
                    ops.append(("scan", rng.randrange(num_keys), b""))
                else:
                    ops.append(("put", rng.randrange(num_keys), values.next_value()))
        env, stats = Env(), Statistics()
        t = perf_counter()
        with rec.span("lsm.open"):
            db = DB.open(path, options, env=env, statistics=stats, tracer=tracer)
        out.host["lsm.open_s"] = perf_counter() - t
        with rec.span("lsm.preload"):
            for key, value in preload:
                db.put(key, value)
        t = perf_counter()
        with rec.span("lsm.flush_wait"):
            db.flush()
        out.host["lsm.flush_wait_s"] = perf_counter() - t
        stats.reset()
        if sink is not None:
            sink.stamps.clear()
        out.setup_s = perf_counter() - t0

        clock0 = env.clock.now_us
        wrong = 0
        with rec.span("harness.measure"):
            starts, seconds = [0.0] * n, [0.0] * n
            get, put, scan, pc = db.get, db.put, db.scan, perf_counter
            for i in range(n):
                kind, index, value = ops[i]
                if kind == "scan":
                    key = sorted_keys[index]
                    a = pc()
                    rows = scan(key, 10)
                    b = pc()
                    expect = [(k, shadow[k]) for k in sorted_keys[index:index + 10]]
                    wrong += rows != expect
                elif kind == "put":
                    key = sorted_keys[index]
                    a = pc()
                    put(key, value)
                    b = pc()
                    shadow[key] = value
                else:
                    key = sorted_keys[index] if kind == "get" else format_key(index)
                    a = pc()
                    got = get(key)
                    b = pc()
                    wrong += got != shadow.get(key)
                seconds[i] = b - a
                starts[i] = a
            out.kinds, out.unit_ops = [op[0] for op in ops], [1] * n
            out.starts, out.seconds = starts, seconds
            _op_spans(out, rec, sink)
        out.attempted = n
        out.fail(wrong, "gets or scans that differ from the shadow dict")
        virtual_s = (env.clock.now_us - clock0) / 1e6
        user_bytes = sum(16 + len(op[2]) for op in ops if op[0] == "put")
        live_bytes = sum(len(k) + len(v) for k, v in shadow.items())
        out.exact = _engine_counts(db, stats, user_bytes, live_bytes)
        out.exact["virt_ops_per_s"] = n / virtual_s
        _finish_engine_round(out, rec, sink, db, env, path, options, shadow, seed)
    return out


# ----------------------------------------------------------- service

SERVE_OPTIONS = {"shard_count": 4, "use_fsync": True, "enable_group_commit": True}
REPLICATION_OPTIONS = {"replicas_per_shard": 3, "replication_quorum": 2, "follower_reads": True}
SERVE_CLIENTS = 8


def serve_spec(seed: int, scale: float):
    """``readwhilewriting`` over a key space that fits the default
    caches; requests are a multiple of the service's progress window so
    every window is full."""
    window = ShardedService.PROGRESS_EVERY
    keys = max(2000, int(15_000 * scale))
    requests = max(2, round(30_000 * scale / window)) * window
    return replace(
        READWHILEWRITING, num_ops=requests, num_keys=keys, preload_keys=keys, seed=seed
    )


def _service_round(spec, option_values: dict, traced: bool) -> Round:
    out = Round()
    rec = out.rec
    sink, tracer = _host_stamping(traced)
    marks: list[tuple[float, int]] = []
    with rec.span("harness.round"):
        t0 = perf_counter()
        service = ShardedService(
            spec, Options(option_values), num_clients=SERVE_CLIENTS, tracer=tracer
        )
        service.write_audit = {}
        audit: list[str] = []

        def on_start(_svc) -> None:
            marks.append((perf_counter(), 0))

        def on_progress(_svc, event) -> None:
            marks.append((perf_counter(), event.ops_done))

        def on_complete(svc) -> None:
            marks.append((perf_counter(), -1))
            audit.extend(svc.verify_write_audit())

        service.on_serving_start = on_start
        service.on_progress = on_progress
        service.on_complete = on_complete
        with rec.span("service.run"):
            t_run = perf_counter()
            result = service.run()
            t_end = perf_counter()
            # The hooks gave the boundaries; the spans follow from them.
            t_serving, t_done = marks[0][0], marks[-1][0]
            rec.add("service.preload", t_run, t_serving)
            marks[-1] = (t_done, result.requests_done)
            for (start, before), (end, after) in zip(marks, marks[1:]):
                out.kinds.append("window")
                out.unit_ops.append(after - before)
                out.starts.append(start)
                out.seconds.append(end - start)
                rec.add("service.window", start, end)
            rec.add("service.audit_and_close", t_done, t_end)
        if sink is not None:
            parents = [
                (s[1], s[2], i) for i, s in enumerate(rec.spans)
                if s[0] in ("service.preload", "service.window", "service.audit_and_close")
            ]
            for event_type, at, _event in sink.stamps:
                rec.add_under(parents, event_type, at)
            out.events = len(sink.stamps)
    out.setup_s = t_serving - t0
    out.host["service.preload_s"] = out.setup_s
    out.attempted = spec.num_ops
    out.fail(abs(spec.num_ops - result.requests_done), "requests not served")
    out.fail(len(audit), "acked writes lost or misrouted")
    out.fail(result.sheds, "requests shed")
    out.fail(len(result.failovers), "failovers")
    out.fail(int(result.aggregate.aborted), "run aborted")
    agg = result.aggregate
    writes = agg.writes_done
    shard_requests = [s.requests for s in result.shards]
    ticker = agg.tickers.get
    out.exact = {
        "virt_ops_per_s": agg.ops_per_sec,
        "service.virt_p99_write_us": agg.p99_write_us() or 0.0,
        "service.virt_p99_read_us": agg.p99_read_us() or 0.0,
        "service.groups": result.groups,
        "service.grouped_write_share": result.grouped_writes / writes if writes else 0.0,
        "service.syncs_per_write": result.syncs_per_write,
        "service.shard_imbalance": max(shard_requests) * len(shard_requests) / sum(shard_requests),
        "service.sheds": result.sheds,
        "replication.follower_reads_share": (
            result.follower_reads_served / agg.reads_done if agg.reads_done else 0.0
        ),
        "replication.failovers": len(result.failovers),
        "lsm.flush_count": agg.flush_count,
        "lsm.compaction_count": agg.compaction_count,
        "lsm.compaction_bytes_written": ticker(Ticker.COMPACTION_BYTES_WRITTEN.value, 0),
        "lsm.wal_syncs": result.wal_syncs,
        "lsm.stall_virtual_ms": agg.stall_micros / 1000.0,
        "lsm.block_cache_hit_rate": agg.cache_hit_rate,
        "lsm.bloom_useful_rate": agg.bloom_useful_rate,
        "lsm.table_opens": ticker(Ticker.TABLE_OPENS.value, 0),
    }
    return out


def serve(seed: int, scale: float, traced: bool) -> Round:
    """4 shards x 8 open-loop clients, fsync on, group commit on."""
    return _service_round(serve_spec(seed, scale), SERVE_OPTIONS, traced)


def serve_repl(seed: int, scale: float, traced: bool) -> Round:
    """``serve`` with 3 replicas per shard, quorum 2, follower reads."""
    return _service_round(
        serve_spec(seed, scale), {**SERVE_OPTIONS, **REPLICATION_OPTIONS}, traced
    )


# ---------------------------------------------------- the layer ladder

#: Engine options of ``serve`` without the topology: the rungs below the
#: service run the same engine configuration.
LADDER_ENGINE_OPTIONS = {"use_fsync": True}
#: Operations between marks in the two runner-level rungs: the cadence
#: of ``DbBench``'s own progress callback, so both are cut alike.
LADDER_MARK_EVERY = DbBench.PROGRESS_EVERY


def _marks_to_round(marks: list[float], ops_between: int) -> Round:
    out = Round()
    for start, end in zip(marks, marks[1:]):
        out.kinds.append("window")
        out.unit_ops.append(ops_between)
        out.seconds.append(end - start)
    return out


def ladder_engine(seed: int, scale: float) -> Round:
    """Rung 1: the harness's own loop over a bare ``DB``, driving the
    op stream ``DbBench.run`` would for ``serve``'s spec — same
    generators, same seeds, no runner."""
    spec = serve_spec(seed, scale)
    db = DB.open("/perf/ladder", Options(LADDER_ENGINE_OPTIONS))
    try:
        values = ValueGenerator(spec.value_size, seed=spec.seed ^ 0x5EED)
        order = list(range(spec.preload_keys))
        random.Random(spec.seed ^ 0x10AD).shuffle(order)
        for index in order:
            db.put(format_key(index), values.next_value())
        db.flush(wait_compactions=False)
        keys = make_generator(spec.distribution, spec.num_keys, spec.seed)
        values = ValueGenerator(spec.value_size, seed=spec.seed ^ 0xBEEF)
        mix = random.Random(spec.seed ^ 0xC0FFEE)
        marks = []
        for op_index in range(spec.num_ops):
            if mix.random() < spec.read_fraction:
                db.get(keys.next_key())
            else:
                db.put(keys.next_key(), values.next_value())
            if (op_index + 1) % LADDER_MARK_EVERY == 0:
                marks.append(perf_counter())
    finally:
        db.close()
    return _marks_to_round(marks, LADDER_MARK_EVERY)


def ladder_runner(seed: int, scale: float) -> Round:
    """Rung 2: ``DbBench.run`` on ``serve``'s spec."""
    marks: list[float] = []

    def progress(_event) -> bool:
        marks.append(perf_counter())
        return True

    DbBench(serve_spec(seed, scale), Options(LADDER_ENGINE_OPTIONS)).run(progress)
    return _marks_to_round(marks, LADDER_MARK_EVERY)


def ladder_one_shard(seed: int, scale: float) -> Round:
    """Rung 3: the service with one shard and ``serve``'s eight clients
    (with one client ``readwhilewriting`` has a writer and no reader,
    which is another workload)."""
    options = {**SERVE_OPTIONS, "shard_count": 1}
    return _service_round(serve_spec(seed, scale), options, False)


# -------------------------------------------------------------- tuner

TUNE_SCALE = 0.1  # of the repo's default 1/1000 scale and 1/1024 byte scale
#: The expert's own randomness is a setting of the program, not an
#: input: with it fixed, sessions on different workload seeds do alike
#: amounts of work (host time spreads 7% over ten seeds, not 27%).
EXPERT_SEED = 42


class TimedLLM(LLMClient):
    """Times every ``complete`` call of the client it wraps."""

    def __init__(self, inner: LLMClient) -> None:
        self.inner = inner
        #: (enter, exit, prompt characters)
        self.calls: list[tuple[float, float, int]] = []

    def complete(self, messages: list[ChatMessage]) -> str:
        enter = perf_counter()
        response = self.inner.complete(messages)
        self.calls.append(
            (enter, perf_counter(), sum(len(m.content) for m in messages))
        )
        return response

    @property
    def model_name(self) -> str:
        return self.inner.model_name


#: What runs after each mark until the next one. The marks cut a session
#: into the same sequence of units in every round, because the session
#: is deterministic; a unit that ends at ``bench.start`` is the preload.
_RUNS_AFTER = {
    "tune.iteration.start": "core.loop",
    "llm.enter": "llm.complete",
    "llm.exit": "core.loop",
    "bench.start": "bench.run",
    "bench.progress": "bench.run",
    "bench.abort": "bench.run",
    "bench.end": "core.loop",
    "tune.iteration.end": "core.loop",
}


def tune(seed: int, scale: float, traced: bool) -> Round:
    """One ELMo-Tune session: mixgraph on the 2-core SATA-HDD cell,
    seven iterations after the baseline, the simulated expert.

    ``ElmoTune`` always traces (it builds a ring sink when given none),
    so the harness hands it a sink of the same shape that also reads the
    host clock, traced or not. The baseline run before the first LLM
    call is this workload's set-up; the tuning iterations are measured.
    """
    out = Round()
    rec = out.rec
    factor = TUNE_SCALE * scale
    spec = paper_workload("mixgraph", DEFAULT_SCALE * factor).with_seed(seed)
    sink = HostStampSink()
    llm = TimedLLM(SimulatedExpert(seed=EXPERT_SEED))
    with rec.span("harness.round"):
        t0 = perf_counter()
        config = TunerConfig(
            workload=spec, profile=PAPER_HDD_2C4G,
            byte_scale=DEFAULT_BYTE_SCALE * factor,
        )
        tuner = ElmoTune(config, llm, tracer=Tracer(sink))
        with rec.span("core.run"):
            session = tuner.run()
            _tune_units(out, rec, sink, llm, spec.preload_keys, perf_counter(), traced)
        out.setup_s = llm.calls[0][0] - t0
    out.attempted = sum(out.unit_ops) + 1
    expected = config.stopping.max_iterations + 1
    out.fail(int(len(session.iterations) != expected), "session ended early")
    records = session.iterations[1:]
    out.exact = {
        "virt_ops_per_s": session.best.metrics.ops_per_sec,
        "lsm.virt_p99_write_us": session.best.metrics.p99_write_us or 0.0,
        "lsm.virt_p99_read_us": session.best.metrics.p99_read_us or 0.0,
        "core.iterations": len(records),
        "core.kept": sum(1 for r in records if r.kept),
        "core.reverted": sum(1 for r in records if not r.kept),
        "core.vetoes": session.total_rejections(),
        "core.gain_x": session.improvement_factor(),
        "llm.calls": len(llm.calls),
        "llm.prompt_chars": sum(call[2] for call in llm.calls),
    }
    out.events = len(sink.stamps)
    return out


def _tune_units(
    out: Round, rec: Recorder, sink: HostStampSink, llm: TimedLLM,
    preload_keys: int, t_end: float, traced: bool,
) -> None:
    """Cut the session at trace events and LLM calls into units, and
    build iteration > (llm | preload | bench | loop) spans from them."""
    marks = [(at, kind, event) for kind, at, event in sink.stamps if kind in _RUNS_AFTER]
    for enter, exit_, _chars in llm.calls:
        marks.append((enter, "llm.enter", None))
        marks.append((exit_, "llm.exit", None))
    marks.sort(key=lambda mark: mark[0])
    marks.append((t_end, "end", None))
    measured_from = llm.calls[0][0]
    base = rec.current()
    iteration = base
    bench_done = 0
    for (start, kind, _event), (end, next_kind, next_event) in zip(marks, marks[1:]):
        label, ops = _RUNS_AFTER[kind], 0
        if next_kind == "bench.start":
            label, ops, bench_done = "bench.preload", preload_keys, 0
        elif next_kind in ("bench.progress", "bench.end"):
            ops = next_event.ops_done - bench_done
            bench_done = next_event.ops_done
        if start >= measured_from:
            out.kinds.append(label)
            out.unit_ops.append(ops)
            out.starts.append(start)
            out.seconds.append(end - start)
        if kind == "tune.iteration.start":
            iteration = len(rec.spans)
            rec.spans.append(["core.iteration", start, start, base])
        last = rec.spans[-1]
        if last[0] == label and last[2] == start and last[3] == iteration:
            last[2] = end  # consecutive units of one kind are one span
        else:
            rec.spans.append([label, start, end, iteration])
        if next_kind == "tune.iteration.end":
            rec.spans[iteration][2] = end
            iteration = base
    if traced:
        parents = [
            (s[1], s[2], i) for i, s in enumerate(rec.spans)
            if s[0] in ("bench.run", "bench.preload")
        ]
        for kind, at, _event in sink.stamps:
            if kind.startswith("engine."):
                rec.add_under(parents, kind, at)


WORKLOADS = {
    "fill": fill,
    "readmix": readmix,
    "serve": serve,
    "serve_repl": serve_repl,
    "tune": tune,
}
