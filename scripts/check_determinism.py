"""Determinism gate: seven seeded scenarios, run repeatedly, byte-compared.

Run by ``scripts/check.sh``; ``python scripts/check_determinism.py``
runs every scenario, ``... check_determinism.py scan`` just that one.

Each scenario function executes one seeded run and returns its trace
(one JSONL line per event), a report text (host wall-clock zeroed — the
one legitimately nondeterministic field) and a list of problems with
the run itself. The skeleton runs each scenario twice and compares
trace and report line by line against the first run. Any divergence
means host state (dict order, salted hashes, real time) leaked into
the simulation. The sha256 of the compared bytes
(``trace + "\\n" + report``) must then equal the scenario's pin in
:data:`EXPECTED`: a change that moves virtual time fails here unless
the same commit moves the pin, and says so in its ``CHANGES.md`` line.

Scenarios:

``bg``
    A compaction-heavy fill; the report is the final per-key state,
    the ticker vector and the virtual clock. The deferred-completion
    design requires every virtual quantity to come from schedule-time
    inputs only.
``service``
    ``readwhilewriting`` over 4 shards with 8 open-loop clients.
``repl``
    ``service`` with 3 replicas per shard, quorum 2 and follower reads:
    WAL shipping, quorum acks as heap events and bounded-staleness
    follower GETs. ``use_fsync`` is off, so the leader's and each
    follower's forced WAL syncs do the syncing.
``scan``
    ``seekrandom``: cursor seeks plus forward ``next()`` chains, the
    lazy read path end to end.
``online``
    ``phasedmix`` through the :class:`~repro.core.online.OnlineTuner`:
    drift detection, LLM round-trips, mid-flight ``set_options``
    fan-outs, scoring and reverts. The session must see a drift event
    and apply a diff.
``reshard``
    Skewed ``hotspot`` over 2 ring-routed shards with a mid-run live
    split (2 -> 3). The split must happen, every operation must be
    served and the write-audit oracle must come back clean.
``tune``
    An offline :class:`~repro.core.tuner.ElmoTune` session at the
    host-time benchmark's ``tune`` scale: ``mixgraph`` on the 2-core HDD
    cell, baseline + 3 iterations, a fresh store per iteration and
    table filters switched on by the expert's first diff — the path
    the other six never take. The report is the session summary.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Callable

from repro.bench.report import render_report
from repro.bench.runner import DbBench
from repro.bench.spec import (
    DEFAULT_BYTE_SCALE,
    DEFAULT_SCALE,
    paper_workload,
    workload,
)
from repro.core.online import OnlineTuner, OnlineTunerConfig
from repro.core.stopping import StoppingCriteria
from repro.core.tuner import ElmoTune, TunerConfig
from repro.hardware.profile import PAPER_HDD_2C4G, make_profile
from repro.llm.simulated import SimulatedExpert
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.options import Options
from repro.lsm.statistics import Statistics
from repro.obs.drift import DriftConfig
from repro.obs.events import ReshardBegin, ReshardEnd, to_jsonl_line
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
from repro.service import render_service_report
from repro.service.service import ShardedService

#: One run: (trace lines, report text, problems with the run itself).
Run = tuple[list[str], str, list[str]]


def _trace_lines(events) -> list[str]:
    return [to_jsonl_line(e).rstrip("\n") for e in events]


def bg() -> Run:
    sink = RingSink()
    env = Env()
    stats = Statistics()
    db = DB.open(
        "/bg-det",
        Options({
            "write_buffer_size": 8 * 1024,
            "target_file_size_base": 16 * 1024,
            "max_bytes_for_level_base": 64 * 1024,
        }),
        env=env,
        statistics=stats,
        tracer=Tracer(sink),
    )
    keyspace = 1200
    for i in range(6000):
        db.put(b"k%06d" % ((i * 2654435761) % keyspace), b"v%08d" % i)
        if i % 13 == 0:
            db.delete(b"k%06d" % ((i * 7919) % keyspace))
    state = db.scan(limit=None)
    db.close()
    fingerprint = repr((state, list(stats.raw_tickers()), env.clock.now_us))
    return _trace_lines(sink.events), fingerprint, []


def service() -> Run:
    sink = RingSink()
    result = ShardedService(
        workload("readwhilewriting"),
        Options({"shard_count": 4, "use_fsync": True}),
        make_profile(4, 4),
        num_clients=8,
        tracer=Tracer(sink),
    ).run()
    result.wall_clock_s = 0.0
    return _trace_lines(sink.events), render_service_report(result), []


def repl() -> Run:
    sink = RingSink()
    result = ShardedService(
        workload("readwhilewriting"),
        Options({
            "shard_count": 4,
            "replicas_per_shard": 3,
            "replication_quorum": 2,
            "follower_reads": True,
            "use_fsync": False,
        }),
        make_profile(4, 4),
        num_clients=8,
        tracer=Tracer(sink),
    ).run()
    result.wall_clock_s = 0.0
    problems = []
    if result.follower_reads_served == 0:
        problems.append("no GET was served by a follower")
    return _trace_lines(sink.events), render_service_report(result), problems


def scan() -> Run:
    sink = RingSink()
    result = DbBench(
        workload("seekrandom", 0.0003),
        Options({"bloom_filter_bits_per_key": 10.0}),
        make_profile(4, 4),
        byte_scale=1 / 1024,
        tracer=Tracer(sink),
    ).run()
    result.wall_clock_s = 0.0
    return _trace_lines(sink.events), render_report(result), []


def online() -> Run:
    spec = workload("phasedmix", scale=1.0 / 1000.0)
    config = OnlineTunerConfig(
        workload=spec,
        byte_scale=1.0,
        drift=DriftConfig(window_ops=4000),
        score_window_ops=4000,
        cadence_ops=8000,
    )
    session = OnlineTuner(config, llm=SimulatedExpert(seed=spec.seed)).run()
    problems = []
    if not session.applied_actions:
        problems.append("online session applied no mid-flight diff")
    if session.drift_count < 1:
        problems.append("phased workload produced no drift event")
    return _trace_lines(session.trace_events), "", problems


def reshard() -> Run:
    shards, split_at_ops = 2, 8000
    spec = workload("hotspot")
    sink = RingSink()
    svc = ShardedService(
        spec,
        Options({
            "shard_count": shards,
            "routing_policy": "ring",
            "use_fsync": True,
        }),
        make_profile(4, 4),
        num_clients=8,
        tracer=Tracer(sink),
    )
    svc.write_audit = {}
    fired: list[int] = []

    def hook(_svc: ShardedService, event) -> None:
        if not fired and event.ops_done >= split_at_ops:
            fired.append(event.ops_done)
            svc.set_options({"shard_count": shards + 1})

    svc.on_progress = hook
    problems: list[str] = []
    svc.on_complete = lambda _svc: problems.extend(svc.verify_write_audit())
    result = svc.run()
    result.wall_clock_s = 0.0
    kinds = {type(e) for e in sink.events}
    if not {ReshardBegin, ReshardEnd} <= kinds:
        problems.append("no live split executed")
    if result.aggregate.ops_done != spec.num_ops:
        problems.append(
            f"served {result.aggregate.ops_done} of {spec.num_ops} ops"
        )
    return _trace_lines(sink.events), render_service_report(result), problems


def tune() -> Run:
    factor = 0.1  # benchmarks/perf's TUNE_SCALE
    config = TunerConfig(
        workload=paper_workload("mixgraph", DEFAULT_SCALE * factor),
        profile=PAPER_HDD_2C4G,
        byte_scale=DEFAULT_BYTE_SCALE * factor,
        stopping=StoppingCriteria(max_iterations=3),
    )
    session = ElmoTune(config, SimulatedExpert(seed=42)).run()
    problems = []
    if len(session.iterations) != 4:
        problems.append(f"session ran {len(session.iterations)} of 4 benchmarks")
    if not any(
        name == "bloom_filter_bits_per_key" and value > 0
        for record in session.iterations
        for name, value in record.accepted_changes
    ):
        problems.append("no accepted diff switched table filters on")
    return _trace_lines(session.trace_events), session.describe(), problems


#: name -> (scenario function, one argument tuple per run).
SCENARIOS: dict[str, Callable[[], Run]] = {
    "bg": bg,
    "service": service,
    "repl": repl,
    "scan": scan,
    "online": online,
    "reshard": reshard,
    "tune": tune,
}
#: Times each scenario runs; every run is compared with the first.
RUNS = 2

#: name -> sha256 of the compared bytes. ``bg``, ``service``, ``scan``,
#: ``online`` and ``reshard`` are the digests every CHANGES.md entry
#: since PR 12 quoted by hand; ``tune`` was
#: recorded at commit 4159a23, before the bulk pool draw and run hashing;
#: ``repl`` at commit be52f57, while a bare shard was still its own code
#: path, so the one-shape service is held to the two-shape one.
EXPECTED = {
    "bg": "abe2e6db924bc21d949b2392d06b8036bb4f1a179f11bdeb9fa62275074a9278",
    "service": "7cf50f016484f5b13f452ddb8cd7ddde1cfd360f993f757a19c7fd39a5a0d45c",
    "repl": "7c7e76c24d4aeaed30422dbcbdcdfd3900ee04a461d0d4c95d0886fb52be4608",
    "scan": "74ae75720768d5dcbb59034973f16f4b8e22aeaa1300e4886ca4ae6152737d60",
    "online": "f2c0e98fd5837d4c6d9e21a386cd398f4c3ae2f1ccb0f05ce336b5617c750cad",
    "reshard": "51869c562da196023230eb419c08b285a7de5c9d73166d6d1b2fb48243bd2cf9",
    "tune": "13a77065392ffe288ca78ecab449037967c567ac1cb58966675068ae131811e9",
}


def check(name: str) -> bool:
    """Run one scenario's variants; report the first divergence."""
    scenario = SCENARIOS[name]
    first: tuple[list[str], list[str]] | None = None
    for run in range(1, RUNS + 1):
        label = f"{name} run {run}"
        trace, report, problems = scenario()
        if not trace:
            problems = problems + ["run produced no trace events"]
        for problem in problems:
            print(f"FAIL: {label}: {problem}", file=sys.stderr)
        if problems:
            return False
        this = (trace, report.split("\n"))
        if first is None:
            first = this
            continue
        for what, a, b in zip(("trace", "report"), first, this):
            if a == b:
                continue
            at = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)),
            )
            print(
                f"FAIL: {label} differs from run 1 at {what} line {at}:\n"
                f"  run 1: {a[at] if at < len(a) else '<end>'}\n"
                f"  run {run}: {b[at] if at < len(b) else '<end>'}",
                file=sys.stderr,
            )
            return False
    assert first is not None
    trace, report_lines = first
    digest = hashlib.sha256("\n".join(trace + report_lines).encode()).hexdigest()
    if digest != EXPECTED[name]:
        print(
            f"FAIL: {name}: {len(trace)} events, sha256 {digest}, "
            f"pinned {EXPECTED[name]}: virtual time moved",
            file=sys.stderr,
        )
        return False
    print(f"{name}: {len(trace)} events, sha256 {digest}, "
          f"byte-identical across {RUNS} runs")
    return True


def main(argv: list[str]) -> int:
    names = argv[:1] or list(SCENARIOS)
    if names[0] not in SCENARIOS:
        print(f"unknown scenario {names[0]!r}; "
              f"choose from {', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    return 0 if all([check(name) for name in names]) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
