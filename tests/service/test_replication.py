"""Replica groups: WAL shipping, quorum writes, follower reads, failover.

The replication layer runs entirely on the virtual clock: followers
apply shipped write groups with a forced WAL sync (an ack is a
durability promise), quorum writes hold the shard busy until enough
ack events pop, and a leader crash promotes the freshest durable
follower after the lease expires. The write-audit oracle is the ground
truth throughout: no service-acked write may be lost or misrouted.
"""

import pytest

from repro.bench.spec import WorkloadSpec
from repro.errors import ImmutableOptionError, NoLiveReplicaError
from repro.lsm.faults import FaultEnvFactory
from repro.lsm.options import Options
from repro.obs.events import (
    FailoverBegin,
    FailoverEnd,
    ReplicaCrash,
    ReplicaPromote,
    ReplicaShip,
)
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
from repro.service.replication import (
    FOLLOWER_MAX_LAG,
    Replica,
    ReplicaGroup,
)
from repro.service.service import ShardedService


def _spec(num_ops=3000, **overrides):
    base = dict(
        name="repltest",
        num_ops=num_ops,
        num_keys=1200,
        preload_keys=600,
        read_fraction=0.3,
        distribution="uniform",
        seed=7,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def _service(overrides=None, *, spec=None, tracer=None, audit=True):
    options = dict(
        {
            "shard_count": 2,
            "routing_policy": "ring",
            "replicas_per_shard": 3,
            "replication_quorum": 2,
            "lease_timeout_ms": 5.0,
        }
    )
    options.update(overrides or {})
    service = ShardedService(
        spec if spec is not None else _spec(),
        Options(options),
        num_clients=4,
        client_ops_per_sec=100_000.0,
        tracer=tracer,
    )
    if audit:
        service.write_audit = {}
    return service


def _audit_clean(service):
    failures = []
    service.on_complete = lambda svc: failures.extend(svc.verify_write_audit())
    return failures


class TestQuorumWrites:
    def test_replicated_run_serves_everything_with_clean_audit(self):
        sink = RingSink()
        service = _service(tracer=Tracer(sink))
        failures = _audit_clean(service)
        result = service.run()
        assert result.aggregate.ops_done == _spec().num_ops
        assert failures == []
        ships = [e for e in sink.events if type(e) is ReplicaShip]
        assert ships and all(e.acks_needed == 1 for e in ships)
        assert all(e.followers == 2 for e in ships)

    def test_quorum_write_latency_exceeds_single_node(self):
        # The replication round trip (ship hop + follower apply + ack
        # hop) is real client latency, not bookkeeping: quorum writes
        # must be visibly slower than the bare single-node path.
        single = _service({"replicas_per_shard": 1, "replication_quorum": 1})
        single_result = single.run()
        quorum = _service()
        quorum_result = quorum.run()
        assert (
            quorum_result.aggregate.write_summary.p99
            > single_result.aggregate.write_summary.p99
        )

    def test_leader_only_quorum_commits_inline(self):
        # quorum=1: the leader's WAL sync is the whole vote; shipping
        # still happens (async replication) but nothing waits on acks.
        sink = RingSink()
        service = _service({"replication_quorum": 1}, tracer=Tracer(sink))
        failures = _audit_clean(service)
        result = service.run()
        assert result.aggregate.ops_done == _spec().num_ops
        assert failures == []
        ships = [e for e in sink.events if type(e) is ReplicaShip]
        assert ships and all(e.acks_needed == 0 for e in ships)

    def test_single_replica_matches_bare_service_byte_for_byte(self):
        # replicas_per_shard=1 must be the seed path exactly: no group,
        # no ship events, identical latencies and counters.
        bare = _service({"replicas_per_shard": 1, "replication_quorum": 1})
        replicated = _service(
            {"replicas_per_shard": 1, "replication_quorum": 1}
        )
        a, b = bare.run(), replicated.run()
        assert a.aggregate.ops_done == b.aggregate.ops_done
        assert a.aggregate.write_summary.p99 == b.aggregate.write_summary.p99
        assert a.aggregate.read_summary.p99 == b.aggregate.read_summary.p99


class TestFollowerReads:
    def test_followers_serve_bounded_staleness_reads(self):
        service = _service({"follower_reads": True})
        failures = _audit_clean(service)
        result = service.run()
        assert result.aggregate.ops_done == _spec().num_ops
        assert failures == []
        assert result.follower_reads_served > 0

    def test_follower_for_read_respects_staleness_bound(self):
        # Pure staleness property: only followers within FOLLOWER_MAX_LAG
        # of the leader's sequence are ever eligible, fresher-than-bound
        # ties break toward the least-loaded then lowest id.
        def member(rid, acked, reads=0):
            return Replica(
                replica_id=rid, env=None, stats=None, db=object(),
                acked_seq=acked, reads_served=reads,
            )

        leader_seq = 1000
        group = ReplicaGroup(
            0,
            [
                member(0, leader_seq),
                member(1, leader_seq - FOLLOWER_MAX_LAG),       # at bound
                member(2, leader_seq - FOLLOWER_MAX_LAG - 1),   # beyond
            ],
        )
        pick = group.follower_for_read(leader_seq)
        assert pick is not None and pick.replica_id == 1
        # Every follower beyond the bound: no eligible member.
        group.replicas[1].acked_seq = leader_seq - FOLLOWER_MAX_LAG - 1
        assert group.follower_for_read(leader_seq) is None
        # Load balance: equally-fresh followers alternate by reads_served.
        group.replicas[1].acked_seq = leader_seq
        group.replicas[2].acked_seq = leader_seq
        group.replicas[1].reads_served = 5
        pick = group.follower_for_read(leader_seq)
        assert pick.replica_id == 2

    def test_follower_reads_off_never_touches_followers(self):
        service = _service({"follower_reads": False})
        result = service.run()
        assert result.follower_reads_served == 0
        assert result.aggregate.reads_done > 0


class TestFailover:
    def _crash_run(self, *, offset, lease_ms=5.0, tracer=None):
        factory = FaultEnvFactory(seed=11)
        service = _service({"lease_timeout_ms": lease_ms}, tracer=tracer)
        service.env_factory = factory
        failures = _audit_clean(service)
        service.on_serving_start = (
            lambda svc: factory.arm_after(0, 0, offset)
        )
        # Snapshot the promoted group's wiring while shards are still
        # open (they are torn down after the run).
        state = {}
        chained = service.on_complete

        def capture(svc):
            shard = svc._shards[0]
            state["leader_id"] = shard.group.leader_id
            state["db_is_leader_db"] = shard.db is shard.group.leader.db
            chained(svc)

        service.on_complete = capture
        result = service.run()
        return state, result, failures, factory

    def test_leader_crash_promotes_freshest_follower(self):
        sink = RingSink()
        state, result, failures, factory = self._crash_run(
            offset=30, tracer=Tracer(sink)
        )
        assert factory.crashed(0, 0)
        assert result.failovers and result.failovers[0][0] == 0
        assert result.failovers[0][1] == 0  # crashed replica
        assert result.failovers[0][2] in (1, 2)  # promoted follower
        assert result.aggregate.ops_done == _spec().num_ops
        assert failures == []
        promotes = [e for e in sink.events if type(e) is ReplicaPromote]
        assert len(promotes) == 1
        assert promotes[0].replica == result.failovers[0][2]
        crashes = [e for e in sink.events if type(e) is ReplicaCrash]
        assert any(e.role == "leader" for e in crashes)
        # The shard now serves from the promoted member: its db alias
        # must be the promoted replica's engine.
        assert state["db_is_leader_db"]
        assert state["leader_id"] == result.failovers[0][2]

    def test_lease_expiry_is_monotonic_on_the_virtual_clock(self):
        # Property: promotion happens exactly one lease after the crash
        # — never early (the lease models the unavailability window) —
        # and the failover event pair brackets it.
        sink = RingSink()
        _, result, failures, _ = self._crash_run(
            offset=30, lease_ms=8.0, tracer=Tracer(sink)
        )
        assert result.failovers and failures == []
        begins = [e for e in sink.events if type(e) is FailoverBegin]
        ends = [e for e in sink.events if type(e) is FailoverEnd]
        assert len(begins) == len(ends) == 1
        assert begins[0].lease_timeout_us == 8000.0
        assert ends[0].t_us >= begins[0].t_us + 8000.0
        assert ends[0].duration_us >= 8000.0

    def test_longer_lease_never_finishes_failover_earlier(self):
        durations = []
        for lease_ms in (2.0, 8.0, 20.0):
            sink = RingSink()
            self._crash_run(offset=30, lease_ms=lease_ms, tracer=Tracer(sink))
            end = next(e for e in sink.events if type(e) is FailoverEnd)
            durations.append(end.duration_us)
        assert durations == sorted(durations)

    def test_crash_run_is_deterministic(self):
        a = self._crash_run(offset=45)
        b = self._crash_run(offset=45)
        assert a[1].failovers == b[1].failovers
        assert a[1].aggregate.write_summary.p99 == b[1].aggregate.write_summary.p99
        assert a[2] == b[2] == []


class TestRequeueParity:
    def test_crashed_leader_queue_replays_op_for_op(self):
        """Regression (pre-fix: dropped or double-served writes).

        Queued and in-flight-but-unacked writes stranded by a leader
        crash must be re-enqueued against the promoted leader with
        their original (arrival, seq) stamps. Served exactly once each,
        in FIFO order, the crash run's final acked map is op-for-op
        identical to a run where the crash never happened — dropping
        the queue would lose acked-later writes, re-serving committed
        members would double-apply across the failover.
        """
        baseline = _service()
        baseline.run()
        factory = FaultEnvFactory(seed=11)
        crashed = _service()
        crashed.env_factory = factory
        failures = _audit_clean(crashed)
        crashed.on_serving_start = (
            lambda svc: factory.arm_after(0, 0, 45)
        )
        result = crashed.run()
        assert factory.crashed(0, 0) and result.failovers
        assert failures == []
        assert result.aggregate.ops_done == _spec().num_ops
        # Same workload, same acked values for every key — the crash
        # changed latencies, not outcomes.
        assert crashed.write_audit == baseline.write_audit


class TestGroupMechanics:
    def test_acks_needed_caps_at_live_followers(self):
        def member(rid, alive=True):
            return Replica(
                replica_id=rid, env=None, stats=None, db=object(), alive=alive
            )

        group = ReplicaGroup(0, [member(0), member(1), member(2)])
        assert group.acks_needed(1) == 0
        assert group.acks_needed(2) == 1
        assert group.acks_needed(3) == 2
        assert group.acks_needed(7) == 2  # capped: only 2 live followers
        group.replicas[2].alive = False
        assert group.acks_needed(3) == 1

    def test_group_with_no_live_member_refuses_to_lead(self):
        dead = Replica(
            replica_id=0, env=None, stats=None, db=None, alive=False
        )
        with pytest.raises(NoLiveReplicaError):
            ReplicaGroup(0, [dead])

    def test_leader_outside_the_group_is_a_typed_error(self):
        live = Replica(replica_id=0, env=None, stats=None, db=object())
        group = ReplicaGroup(0, [live])
        group.leader_id = 5
        with pytest.raises(NoLiveReplicaError, match="r5 left the group"):
            group.leader

    def test_dead_on_arrival_member_cedes_lease_to_first_live(self):
        def member(rid, alive=True):
            return Replica(
                replica_id=rid, env=None, stats=None,
                db=object() if alive else None, alive=alive,
            )

        group = ReplicaGroup(0, [member(0, alive=False), member(1), member(2)])
        assert group.leader_id == 1
        assert [r.replica_id for r in group.followers()] == [2]


class TestOptionsSurface:
    def test_replicas_per_shard_is_immutable(self):
        service = _service()
        fired = []

        def hook(svc, event):
            if not fired and event.ops_done >= 500:
                fired.append(True)
                with pytest.raises(ImmutableOptionError):
                    svc.set_options({"replicas_per_shard": 5})

        service.on_progress = hook
        service.run()
        assert fired

    def test_quorum_and_follower_reads_are_live_tunable(self):
        # The online tuner's durability/latency trade: drop the quorum
        # and enable follower reads mid-run without a restart.
        service = _service()
        failures = _audit_clean(service)
        fired = []

        def hook(svc, event):
            if not fired and event.ops_done >= 500:
                fired.append(
                    svc.set_options(
                        {"replication_quorum": 1, "follower_reads": True}
                    )
                )

        service.on_progress = hook
        result = service.run()
        assert fired and fired[0]["replication_quorum"] == (2, 1)
        assert result.aggregate.ops_done == _spec().num_ops
        assert failures == []
