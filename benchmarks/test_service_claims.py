"""The service layer's four virtual-time claims, pinned exactly.

Each claim is a seeded service run compared with its baseline; every
number below is virtual time (or a count), so it repeats bit for bit and
is asserted with ``==`` — a change that moves one either explains itself
in EXPERIMENTS.md ("Service-layer claims") or is a regression. Host time
for the same paths is ``serve`` / ``serve_repl`` in ``benchmarks/perf``.

    python -m pytest -q benchmarks/test_service_claims.py     # ~30 s
"""

from repro.bench.spec import WorkloadSpec, workload
from repro.core.online import OnlineTuner, OnlineTunerConfig
from repro.hardware.profile import make_profile
from repro.llm.client import ScriptedLLM
from repro.lsm.options import Options
from repro.obs.drift import DriftConfig
from repro.obs.events import ServiceProgress
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
from repro.service import run_service_benchmark

PROFILE = make_profile(4, 4)
SCALE = 1.0 / 500.0
#: Per-client arrival rate that saturates the shards: queues form, so
#: ops/sec measures service capacity, not the offered load.
SATURATING = 200_000.0


def ops_per_sec_after(events, from_ops):
    """Throughput from the first progress sample at/after ``from_ops``."""
    samples = [e for e in events if type(e) is ServiceProgress]
    start = next(e for e in samples if e.ops_done >= from_ops)
    last = samples[-1]
    return (last.ops_done - start.ops_done) / (
        last.elapsed_virtual_s - start.elapsed_virtual_s
    )


def static_run(spec, base):
    """The untuned baseline, traced for its progress samples."""
    sink = RingSink()
    run_service_benchmark(
        spec, Options(dict(base)), PROFILE,
        client_ops_per_sec=SATURATING, tracer=Tracer(sink),
    )
    return sink.events


def test_group_commit_saves_a_quarter_of_wal_syncs():
    """readwhilewriting, 4 shards x 8 clients, ``use_fsync``: waiting
    writers share one WAL sync per group."""

    def run(group_commit):
        return run_service_benchmark(
            workload("readwhilewriting"),
            Options({"shard_count": 4, "use_fsync": True,
                     "enable_group_commit": group_commit}),
            PROFILE, num_clients=8,
        )

    grouped, per_op = run(True), run(False)
    assert grouped.aggregate.writes_done == per_op.aggregate.writes_done == 3125
    assert (per_op.wal_syncs, per_op.groups) == (3125, 0)
    assert (grouped.wal_syncs, grouped.groups, grouped.grouped_writes) == (
        2393, 343, 1075
    )
    assert per_op.wal_syncs - grouped.wal_syncs == 732  # 23.4% of 3,125
    # ...and the writers stop queueing behind each other's syncs.
    assert grouped.aggregate.p99_write_us() == 5249.776923076923
    assert per_op.aggregate.p99_write_us() == 12098.560779816515


def test_online_tuning_gains_28_percent_after_drift():
    """phasedmix (write-heavy uniform, then read-heavy zipfian) on 2
    shards with a mis-provisioned 256 KiB block cache: the tuner rides
    the progress stream, and the scripted LLM's turns exercise both a
    kept improvement and a flagger-driven revert."""
    spec = workload("phasedmix", scale=SCALE)
    base = {"block_cache_size": 256 * 1024, "shard_count": 2}
    grow = "Reads dominate now.\n```\nblock_cache_size=8388608\n```"
    shrink = "Memory is tight.\n```\nblock_cache_size=65536\n```"
    session = OnlineTuner(
        OnlineTunerConfig(
            workload=spec,
            base_options=Options(dict(base)),
            byte_scale=1.0,
            # No emit cooldown: back-to-back drift wakes land both
            # scripted turns in one session.
            drift=DriftConfig(window_ops=4000, min_ops_between_emits=0),
            score_window_ops=4000,
            client_ops_per_sec=SATURATING,
        ),
        llm=ScriptedLLM([grow, shrink], cycle=True),
    ).run()
    half = spec.num_ops // 2  # the drifted half, where static is mis-tuned
    static = ops_per_sec_after(static_run(spec, base), half)
    online = ops_per_sec_after(session.trace_events, half)
    assert static == 741066.952256927
    assert online == 947741.6570678204  # +27.9%
    assert session.drift_count == 2
    assert [(a.ops_at, a.kept) for a in session.actions] == [
        (28000, True), (34000, False)
    ]
    assert session.result.aggregate.cache_hit_rate == 0.31437985806015545


def test_live_split_gains_17_percent_with_a_clean_write_audit():
    """hotspot (zipfian, 50/50) on 2 ring-routed shards: at the first
    cadence wake the scripted LLM asks for ``shard_count=3`` and the
    hottest shard splits live. Every acked write is audited through the
    final routing table."""
    spec = workload("hotspot", scale=SCALE)
    base = {"shard_count": 2, "routing_policy": "ring"}
    tuner = OnlineTuner(
        OnlineTunerConfig(
            workload=spec,
            base_options=Options(dict(base)),
            byte_scale=1.0,
            drift=DriftConfig(window_ops=4000),
            score_window_ops=8000,
            cadence_ops=10_000,
            client_ops_per_sec=SATURATING,
        ),
        llm=ScriptedLLM(["Add capacity.\n```\nshard_count=3\n```"], cycle=True),
    )
    audit_failures = []

    def arm_audit(service):
        service.write_audit = {}
        service.on_complete = lambda svc: audit_failures.extend(
            svc.verify_write_audit()
        )

    tuner.service_hook = arm_audit
    session = tuner.run()
    assert audit_failures == []
    assert session.result.reshards == [("split", 1, 2)]
    split = session.applied_actions[0]
    assert (split.ops_at, split.kept) == (8000, True)
    # Same op range on both runs, so the skew mix is comparable.
    static = ops_per_sec_after(static_run(spec, base), split.ops_at)
    resharded = ops_per_sec_after(session.trace_events, split.ops_at)
    assert static == 559327.0908870053
    assert resharded == 653551.6486307204  # +16.8%


def test_quorum_write_costs_one_round_trip_at_p99():
    """30% reads / 70% writes on 2 shards x 8 clients, below saturation
    so the number prices the quorum (WAL ship, follower apply + sync,
    ack), not queueing."""
    spec = WorkloadSpec(
        name="replbench", num_ops=8000, num_keys=2000, preload_keys=1000,
        read_fraction=0.3, distribution="uniform", seed=42,
    )

    def run(replicas, follower_reads):
        return run_service_benchmark(
            spec,
            Options({"shard_count": 2, "replicas_per_shard": replicas,
                     "replication_quorum": min(2, replicas),
                     "follower_reads": follower_reads}),
            num_clients=8, client_ops_per_sec=1_000.0,
        )

    single, quorum, offloaded = run(1, False), run(3, False), run(3, True)
    assert single.aggregate.p99_write_us() == 3.38826086956523
    assert quorum.aggregate.p99_write_us() == 1171.6128310258828  # +1,168 us
    assert quorum.aggregate.write_summary.average == 794.2111092305888
    assert (single.follower_reads_served, quorum.follower_reads_served) == (0, 0)
    assert offloaded.follower_reads_served == 2393
    assert offloaded.aggregate.p99_read_us() == 1468.4118857310314
