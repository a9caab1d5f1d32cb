"""Live resharding tests for the sharded service.

The split/merge machinery runs entirely on the virtual clock: a drain
at a pinned snapshot, a migration journal for writes that land during
the drain, an atomic ring swap, and queued-request migration. The
write-audit oracle (every acked write readable from the shard the
policy currently routes it to) is the ground truth throughout.
"""

import pytest

from repro.bench.spec import WorkloadSpec
from repro.errors import ImmutableOptionError
from repro.lsm.faults import FaultEnvFactory
from repro.lsm.options import Options
from repro.obs.events import (
    ReshardBegin,
    ReshardEnd,
    SetOptions,
    to_jsonl_line,
)
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
from repro.service.service import ShardedService


def _spec(num_ops=12_000, **overrides):
    base = dict(
        name="reshardtest",
        num_ops=num_ops,
        num_keys=3000,
        preload_keys=1500,
        read_fraction=0.5,
        distribution="uniform",
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def _service(options=None, *, spec=None, tracer=None, saturate=False):
    service = ShardedService(
        spec if spec is not None else _spec(),
        options if options is not None else Options(
            {"shard_count": 2, "routing_policy": "ring"}
        ),
        num_clients=4,
        client_ops_per_sec=500_000.0 if saturate else 100_000.0,
        tracer=tracer,
    )
    service.write_audit = {}
    return service


def _audit_clean(service):
    failures = []
    service.on_complete = lambda svc: failures.extend(svc.verify_write_audit())
    return failures


class TestLiveSplit:
    def test_split_mid_run_serves_everything_with_clean_audit(self):
        sink = RingSink()
        service = _service(tracer=Tracer(sink))
        failures = _audit_clean(service)
        fired = []

        def hook(svc, event):
            if not fired and event.ops_done >= 4000:
                fired.append(svc.set_options({"shard_count": 3}))

        service.on_progress = hook
        result = service.run()
        assert fired and fired[0]["shard_count"] == (2, 3)
        assert result.reshards == [("split", result.reshards[0][1], 2)]
        assert result.aggregate.ops_done == _spec().num_ops
        assert failures == []
        begins = [e for e in sink.events if type(e) is ReshardBegin]
        ends = [e for e in sink.events if type(e) is ReshardEnd]
        assert len(begins) == len(ends) == 1
        assert begins[0].kind == ends[0].kind == "split"
        assert begins[0].keys_drained > 0
        assert ends[0].shards_after == 3
        assert ends[0].duration_us > 0
        # The new shard actually serves traffic after the swap.
        assert result.shards[2].requests > 0
        # One service-level SetOptions event carries the topology diff.
        set_events = [e for e in sink.events if type(e) is SetOptions]
        assert [["shard_count", 2, 3]] in [e.changes for e in set_events]

    def test_drain_journal_replays_concurrent_writes(self):
        sink = RingSink()
        service = _service(tracer=Tracer(sink), saturate=True)
        failures = _audit_clean(service)
        fired = []

        def hook(svc, event):
            if not fired and event.ops_done >= 4000:
                fired.append(True)
                svc.set_options({"shard_count": 3})

        service.on_progress = hook
        service.run()
        end = next(e for e in sink.events if type(e) is ReshardEnd)
        # Saturating writers guarantee in-flight writes during the
        # drain window; each must be replayed, not lost.
        assert end.journal_replayed > 0
        assert failures == []

    def test_multi_step_growth_converges(self):
        service = _service()
        failures = _audit_clean(service)
        fired = []

        def hook(svc, event):
            if not fired and event.ops_done >= 2000:
                fired.append(svc.set_options({"shard_count": 4}))

        service.on_progress = hook
        result = service.run()
        assert [r[0] for r in result.reshards] == ["split", "split"]
        assert {r[2] for r in result.reshards} == {2, 3}
        assert failures == []


class TestLiveMerge:
    def test_split_then_merge_restores_layout_with_clean_audit(self):
        service = _service(spec=_spec(num_ops=16_000))
        failures = _audit_clean(service)
        state = {"step": 0}

        def hook(svc, event):
            if state["step"] == 0 and event.ops_done >= 4000:
                state["step"] = 1
                svc.set_options({"shard_count": 3})
            elif state["step"] == 1 and event.ops_done >= 10_000:
                state["step"] = 2
                svc.set_options({"shard_count": 2})

        service.on_progress = hook
        result = service.run()
        assert [r[0] for r in result.reshards] == ["split", "merge"]
        assert failures == []
        # The merge victim is retired: it served nothing afterwards and
        # the ring no longer routes to it.
        assert result.aggregate.ops_done == _spec(num_ops=16_000).num_ops

    def test_revert_while_split_in_flight_merges_back(self):
        """The tuner's revert path: shard_count 3 applied, then 2
        requested before the split commits — the service converges back
        to 2 active shards (split completes, then merges)."""
        service = _service(spec=_spec(num_ops=16_000))
        failures = _audit_clean(service)
        state = {"step": 0}

        def hook(svc, event):
            if state["step"] == 0 and event.ops_done >= 4000:
                state["step"] = 1
                svc.set_options({"shard_count": 3})
                # Revert immediately, while the drain is in flight.
                diff = svc.set_options({"shard_count": 2})
                assert diff["shard_count"] == (3, 2)

        service.on_progress = hook
        result = service.run()
        assert [r[0] for r in result.reshards] == ["split", "merge"]
        assert failures == []


class TestTopologyGuards:
    def test_modulo_still_rejects_shard_count(self):
        service = ShardedService(_spec(), Options({"shard_count": 2}))
        raised = []

        def hook(svc, event):
            if not raised:
                with pytest.raises(ImmutableOptionError):
                    svc.set_options({"shard_count": 3})
                raised.append(True)

        service.on_progress = hook
        service.run()
        assert raised

    def test_noop_topology_diff_applies_nothing(self):
        service = _service()
        diffs = []

        def hook(svc, event):
            if not diffs:
                diffs.append(svc.set_options({"shard_count": 2}))

        service.on_progress = hook
        result = service.run()
        assert diffs == [{}]
        assert result.reshards == []

    def test_reshard_is_deterministic(self):
        def run():
            sink = RingSink()
            service = _service(tracer=Tracer(sink))
            fired = []

            def hook(svc, event):
                if not fired and event.ops_done >= 4000:
                    fired.append(True)
                    svc.set_options({"shard_count": 3})

            service.on_progress = hook
            service.run()
            return "\n".join(to_jsonl_line(e) for e in sink.events)

        assert run() == run()


class TestRecipientOpenFailure:
    """A split gives up only for the one reason it can name: every
    replica of the recipient died while provisioning. Any other error
    out of the recipient's open is a bug and must surface."""

    def test_unrelated_error_from_the_open_propagates(self):
        service = _service()
        fired = []

        def boom(index):
            raise ValueError("boom")

        def hook(svc, event):
            if not fired and event.ops_done >= 4000:
                fired.append(True)
                svc._open_shard = boom
                svc.set_options({"shard_count": 3})

        service.on_progress = hook
        with pytest.raises(ValueError, match="boom"):
            service.run()
        assert fired

    def test_all_dead_recipient_aborts_the_split_cleanly(self):
        service = _service(Options({
            "shard_count": 2, "routing_policy": "ring",
            "replicas_per_shard": 2,
        }))
        factory = FaultEnvFactory(seed=3)
        service.env_factory = factory
        failures = _audit_clean(service)
        fired = []

        def hook(svc, event):
            if not fired and event.ops_done >= 4000:
                for replica in (0, 1):  # die inside the recipient's open
                    factory.arm_after(2, replica, 1)
                fired.append(svc.set_options({"shard_count": 3}))

        service.on_progress = hook
        result = service.run()
        assert fired and fired[0]["shard_count"] == (2, 3)
        assert factory.crashed(2, 0) and factory.crashed(2, 1)
        assert result.reshards == []
        assert len(result.shards) == 2
        assert result.aggregate.ops_done == _spec().num_ops
        assert failures == []

