"""Tests for the service's dynamic-options surface: mid-run progress
events, the ``set_options`` fan-out, and early-stop via the monitor."""

import pytest

from repro.bench.spec import WorkloadSpec
from repro.core.monitor import BenchmarkMonitor
from repro.errors import DBClosedError, ImmutableOptionError
from repro.lsm.options import Options
from repro.obs.events import ServiceProgress, SetOptions
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
from repro.service.service import ShardedService


def _spec(num_ops=6000, **overrides):
    base = dict(
        name="svcopts",
        num_ops=num_ops,
        num_keys=2000,
        preload_keys=500,
        read_fraction=0.5,
        distribution="uniform",
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestProgressEvents:
    def test_progress_emitted_at_cadence(self):
        sink = RingSink()
        service = ShardedService(
            _spec(), Options({"shard_count": 2}), tracer=Tracer(sink)
        )
        service.run()
        samples = [e for e in sink.events if type(e) is ServiceProgress]
        assert samples, "no mid-run progress samples"
        assert all(
            s.ops_done % ShardedService.PROGRESS_EVERY == 0 for s in samples
        )
        assert [s.ops_done for s in samples] == sorted(
            s.ops_done for s in samples
        )
        last = samples[-1]
        assert last.reads_done + last.writes_done == last.ops_done
        assert last.ops_per_sec > 0

    def test_on_progress_callback_fires_without_tracer(self):
        service = ShardedService(_spec(), Options())
        seen = []
        service.on_progress = lambda svc, event: seen.append(event.ops_done)
        service.run()
        assert seen and seen == sorted(seen)

    def test_monitor_early_stops_service_run(self):
        sink = RingSink()
        tracer = Tracer(sink)
        # An absurd reference throughput makes the monitor fire at the
        # first post-warmup sample.
        monitor = BenchmarkMonitor(reference_ops_per_sec=1e15)
        service = ShardedService(_spec(), Options(), tracer=tracer)
        tracer.add_sink(monitor)
        try:
            result = service.run()
        finally:
            tracer.remove_sink(monitor)
        assert monitor.fired
        assert result.aggregate.aborted
        assert result.aggregate.ops_done < _spec().num_ops


class TestServiceSetOptions:
    def test_requires_running_service(self):
        service = ShardedService(_spec(), Options())
        with pytest.raises(DBClosedError):
            service.set_options({"write_buffer_size": 8 << 20})

    def test_fans_out_to_all_shards_mid_run(self):
        service = ShardedService(_spec(), Options({"shard_count": 3}))
        applied_at = []

        def hook(svc, event):
            if not applied_at:
                applied_at.append(event.ops_done)
                diff = svc.set_options({"write_buffer_size": 8 << 20})
                assert diff == {"write_buffer_size": (64 << 20, 8 << 20)}
                for shard in svc._shards:
                    assert shard.db._mem.capacity_bytes == 8 << 20

        service.on_progress = hook
        result = service.run()
        assert applied_at, "hook never ran"
        assert result.aggregate.ops_done == _spec().num_ops

    def test_topology_keys_rejected_before_any_shard_is_touched(self):
        service = ShardedService(_spec(), Options({"shard_count": 2}))
        failures = []

        def hook(svc, event):
            if failures:
                return
            with pytest.raises(ImmutableOptionError):
                svc.set_options(
                    {"write_buffer_size": 8 << 20, "shard_count": 4}
                )
            for shard in svc._shards:
                assert shard.db._mem.capacity_bytes == 64 << 20
            failures.append(event.ops_done)

        service.on_progress = hook
        service.run()
        assert failures

    def test_service_emits_one_set_options_event(self):
        sink = RingSink()
        service = ShardedService(
            _spec(), Options({"shard_count": 2}), tracer=Tracer(sink)
        )
        done = []

        def hook(svc, event):
            if not done:
                svc.set_options({"block_cache_size": 4 << 20})
                done.append(True)

        service.on_progress = hook
        service.run()
        events = [e for e in sink.events if type(e) is SetOptions]
        assert len(events) == 1
        assert events[0].changes == [
            ["block_cache_size", 8 << 20, 4 << 20]
        ]

    @pytest.mark.parametrize(
        "replicas, failing_shard",
        [(1, 0), (1, 1), (1, 2), (3, 1)],
        ids=["shard0", "shard1", "shard2", "follower-of-shard1"],
    )
    def test_partial_apply_rolls_back_already_updated_shards(
        self, replicas, failing_shard
    ):
        """Regression: a failure on shard k used to leave shards 0..k-1
        on the new options and k..N-1 on the old (divergent fleet, no
        event). The fan-out is all-or-nothing at every index — and on a
        replica group, where the failure (not a SimulatedCrash, which
        would only degrade the group) hits a follower after the leader
        and every earlier shard's replicas already applied."""
        sink = RingSink()
        service = ShardedService(
            _spec(),
            Options({"shard_count": 3, "replicas_per_shard": replicas,
                     "replication_quorum": min(2, replicas)}),
            tracer=Tracer(sink),
        )
        ran = []

        def hook(svc, event):
            if ran:
                return
            ran.append(event.ops_done)
            boom = RuntimeError("injected mid-fan-out failure")

            def failing(items):
                raise boom

            victim = svc._shards[failing_shard]
            if replicas > 1:
                victim = victim.group.followers()[0]
            victim.db.set_options = failing
            with pytest.raises(RuntimeError) as err:
                svc.set_options({"write_buffer_size": 8 << 20})
            assert err.value is boom
            # Everything already updated was rolled back: the shared
            # paper-unit bag and every live component binding show the
            # old value.
            dbs = [
                rep.db
                for shard in svc._shards
                for rep in (shard.group.replicas if shard.group else [shard])
            ]
            assert len(dbs) == 3 * replicas
            for db in dbs:
                assert db.options.write_buffer_size == 64 << 20
                assert db._mem.capacity_bytes == 64 << 20

        service.on_progress = hook
        service.run()
        assert ran, "hook never ran"
        # A failed fan-out emits no service-level SetOptions event.
        assert not any(type(e) is SetOptions for e in sink.events)

    def test_set_options_preserves_determinism_of_remaining_run(self):
        def run():
            sink = RingSink()
            service = ShardedService(
                _spec(), Options({"shard_count": 2}), tracer=Tracer(sink)
            )

            def hook(svc, event):
                if event.ops_done == 2 * ShardedService.PROGRESS_EVERY:
                    svc.set_options({"write_buffer_size": 8 << 20})

            service.on_progress = hook
            service.run()
            from repro.obs.events import to_jsonl_line

            return "\n".join(to_jsonl_line(e) for e in sink.events)

        assert run() == run()
