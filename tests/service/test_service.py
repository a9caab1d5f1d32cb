"""Tests for the sharded service layer: determinism, bare-DB parity,
group-commit economics, and report compatibility."""

import random

import pytest

from repro.bench.keygen import ValueGenerator, format_key
from repro.bench.spec import workload
from repro.core.bench_parser import parse_report
from repro.errors import AuditUnavailableError, WorkloadError
from repro.hardware import make_profile
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.options import Options
from repro.lsm.statistics import Statistics, Ticker
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
from repro.service import render_service_report
from repro.service.clients import PUT, build_clients
from repro.service.service import DEFAULT_CLIENT_OPS_PER_SEC, ShardedService

PROFILE = make_profile(4, 4)


def small(name, factor=0.08):
    """A paper workload shrunk to test size (a few thousand ops)."""
    return workload(name).scaled(factor)


def run_once(spec, overrides, num_clients, with_trace=True):
    sink = RingSink()
    tracer = Tracer(sink) if with_trace else None
    result = ShardedService(
        spec,
        Options(overrides),
        PROFILE,
        num_clients=num_clients,
        tracer=tracer,
    ).run()
    result.wall_clock_s = 0.0  # host time is the one nondeterministic field
    trace = [
        (e.TYPE, e.t_us, tuple(sorted(vars(e).items()))) for e in sink.events
    ]
    return result, trace


class TestDeterminism:
    def test_same_seed_same_trace_and_report(self):
        spec = small("readwhilewriting")
        args = (spec, {"shard_count": 4, "use_fsync": True}, 8)
        res1, trace1 = run_once(*args)
        res2, trace2 = run_once(*args)
        assert trace1 == trace2
        assert render_service_report(res1) == render_service_report(res2)
        assert res1.aggregate.fingerprint() == res2.aggregate.fingerprint()

    def test_different_seed_differs(self):
        spec = small("readwhilewriting")
        res1, _ = run_once(spec, {"shard_count": 2}, 4)
        res2, _ = run_once(spec.with_seed(43), {"shard_count": 2}, 4)
        assert (
            res1.aggregate.fingerprint() != res2.aggregate.fingerprint()
        )


class TestBareDbParity:
    def test_one_shard_one_client_matches_bare_db(self):
        """A 1-shard/1-client service is the engine driven directly:
        replaying the client's request stream on a bare DB must produce
        the same store, the same tickers, and the same virtual time."""
        spec = small("readrandomwriterandom", factor=0.05)
        # Per-op commit: even a single client's writes queue while the
        # shard is busy, so group commit would (correctly) batch them —
        # the bare engine has no queue to coalesce.
        options = Options({"enable_group_commit": False})
        service = ShardedService(
            spec, options, PROFILE, num_clients=1
        )
        sres = service.run()

        env = Env()
        stats = Statistics()
        db = DB.open(
            "/bare-parity", options, env=env, profile=PROFILE, statistics=stats
        )
        # Identical preload: same shuffle and value streams the service
        # (and DbBench) use.
        values = ValueGenerator(
            spec.value_size,
            pareto_sizes=spec.pareto_values,
            seed=spec.seed ^ 0x5EED,
        )
        order = list(range(spec.preload_keys))
        random.Random(spec.seed ^ 0x10AD).shuffle(order)
        for index in order:
            db.put(format_key(index), values.next_value())
        db.flush(wait_compactions=False)
        stats.reset()
        base_us = env.clock.now_us
        client = build_clients(
            spec, 1, 1e6 / DEFAULT_CLIENT_OPS_PER_SEC
        )[0]
        for req in client.requests(start_us=base_us):
            env.clock.advance_to(req.arrival_us)
            if req.kind == PUT:
                db.put(req.key, req.value)
            else:
                db.get(req.key)
        duration_s = (env.clock.now_us - base_us) / 1e6

        agg = sres.aggregate
        assert agg.tickers == stats.as_dict()
        assert agg.db_size_bytes == db.approximate_size()
        assert agg.level_shape == f"shard 0: {db.describe()}"
        assert agg.duration_s == duration_s
        assert agg.ops_done == spec.num_ops
        db.close()


class TestGroupCommit:
    def test_group_commit_reduces_wal_syncs(self):
        spec = small("readwhilewriting")
        on, _ = run_once(
            spec,
            {"shard_count": 4, "use_fsync": True, "enable_group_commit": True},
            8,
            with_trace=False,
        )
        off, _ = run_once(
            spec,
            {"shard_count": 4, "use_fsync": True, "enable_group_commit": False},
            8,
            with_trace=False,
        )
        # Per-op commit: one sync boundary per write, no groups.
        assert off.wal_syncs == off.aggregate.writes_done
        assert off.groups == 0
        # Group commit: same writes, strictly fewer sync boundaries.
        assert on.aggregate.writes_done == off.aggregate.writes_done
        assert on.wal_syncs < off.wal_syncs
        assert on.groups > 0
        assert on.syncs_per_write < 1.0
        # Follower accounting: every grouped write beyond its leader.
        assert (
            on.aggregate.tickers[Ticker.WRITE_DONE_BY_OTHER.value]
            == on.grouped_writes - on.groups
        )
        assert off.aggregate.tickers[Ticker.WRITE_DONE_BY_OTHER.value] == 0

    def test_group_size_cap_respected(self):
        spec = small("readwhilewriting")
        res, _ = run_once(
            spec,
            {
                "shard_count": 2,
                "use_fsync": True,
                "max_write_batch_group_size": 4,
            },
            8,
            with_trace=False,
        )
        assert all(s.max_group <= 4 for s in res.shards)


class TestServiceEvents:
    def test_service_events_emitted(self):
        spec = small("readwhilewriting")
        res, trace = run_once(spec, {"shard_count": 2, "use_fsync": True}, 4)
        types = [t for t, _, _ in trace]
        assert types[0] == "service.start"
        assert types[-1] == "service.end"
        assert types.count("service.shard") == 2
        assert "service.group_commit" in types

    def test_trace_timestamps_monotonic(self):
        spec = small("readwhilewriting")
        _, trace = run_once(spec, {"shard_count": 2}, 4)
        stamps = [t_us for _, t_us, _ in trace]
        assert stamps == sorted(stamps)


class TestReportCompatibility:
    def test_report_parses_through_bench_parser(self):
        spec = small("readwhilewriting")
        res, _ = run_once(spec, {"shard_count": 4, "use_fsync": True}, 8)
        metrics = parse_report(render_service_report(res))
        assert metrics.benchmark == "readwhilewriting"
        assert metrics.ops_per_sec > 0
        assert metrics.p99_write_us is not None
        assert metrics.p99_read_us is not None
        assert not metrics.aborted


class TestMultiRead:
    def test_multireadrandom_scatter_gather(self):
        spec = small("multireadrandom")
        res, _ = run_once(spec, {"shard_count": 3}, 4)
        agg = res.aggregate
        # reads count keys; the latency histogram counts requests.
        assert agg.reads_done == spec.num_ops * spec.batch_size
        assert agg.writes_done == 0
        assert agg.read_summary is not None
        assert agg.read_summary.count == spec.num_ops


class TestWriteAudit:
    def test_audit_refuses_a_run_it_cannot_check(self):
        spec = small("readwhilewriting", factor=0.02)
        service = ShardedService(
            spec, Options({"shard_count": 2}), PROFILE, num_clients=2
        )
        checked = []

        def on_complete(svc):
            with pytest.raises(AuditUnavailableError, match="not enabled"):
                svc.verify_write_audit()
            checked.append(True)

        service.on_complete = on_complete
        service.run()
        assert checked
        service.write_audit = {}
        with pytest.raises(AuditUnavailableError, match="closed"):
            service.verify_write_audit()


class TestConstructorErrors:
    """Bad client settings are workload errors, as SimClient raises."""

    def test_no_clients(self):
        with pytest.raises(WorkloadError, match="at least one client"):
            ShardedService(small("fillrandom"), Options(), num_clients=0)

    def test_non_positive_client_rate(self):
        with pytest.raises(WorkloadError, match="must be positive"):
            ShardedService(
                small("fillrandom"), Options(), client_ops_per_sec=0.0
            )
