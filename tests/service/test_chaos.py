"""Service-level chaos harness tests and the reshard-window regressions.

Covers the seeded replica-crash schedule machinery itself
(deterministic coordinates, measured serving windows, sweep gating)
and the two bug classes the chaos sweeps caught during development:
write groups straddling the ring swap, and unacked work around a
crashed leader. Each regression documents the pre-fix failure mode in
its docstring.
"""

import pytest

from repro.bench.spec import WorkloadSpec
from repro.errors import WorkloadError
from repro.lsm.faults import FaultEnvFactory
from repro.lsm.options import Options
from repro.service.chaos import (
    SCENARIOS,
    _build,
    measure_windows,
    run_service_crash_schedule,
    service_sweep,
)
from repro.service.service import ShardedService


class TestScheduleHarness:
    def test_unknown_scenario_raises(self):
        with pytest.raises(WorkloadError):
            run_service_crash_schedule("nope", (0, 0), 10, 0)

    def test_measured_windows_cover_every_replica(self):
        windows = measure_windows("commit", seed=3)
        # 2 shards x 3 replicas, all serving.
        assert sorted(windows) == [
            (s, r) for s in (0, 1) for r in (0, 1, 2)
        ]
        assert all(w > 10 for w in windows.values())

    def test_drain_windows_include_reshard_recipients(self):
        windows = measure_windows("drain", seed=3)
        # The split provisions shard 2 mid-run; its replicas must be
        # armable victims or the provisioning window goes untested.
        assert (2, 0) in windows and (2, 1) in windows

    def test_crash_inside_window_always_fires(self):
        windows = measure_windows("commit", seed=3)
        victim = (1, 0)
        result = run_service_crash_schedule(
            "commit", victim, windows[victim] // 2, seed=3
        )
        assert result.crashed
        assert result.ok, result.violations

    def test_schedule_is_deterministic_in_its_coordinates(self):
        a = run_service_crash_schedule("commit", (0, 0), 25, seed=9)
        b = run_service_crash_schedule("commit", (0, 0), 25, seed=9)
        assert a == b
        assert a.crashed and a.failovers

    def test_small_sweep_crashes_every_schedule_cleanly(self):
        results = service_sweep(8, seed=5)
        assert len(results) == 8
        assert all(r.crashed for r in results)
        assert all(r.ok for r in results), [
            (r.coords, r.violations) for r in results if not r.ok
        ]
        assert {r.scenario for r in results} == set(SCENARIOS)


def _spec(num_ops=3000, **overrides):
    base = dict(
        name="chaosreg",
        num_ops=num_ops,
        num_keys=1200,
        preload_keys=600,
        read_fraction=0.3,
        distribution="uniform",
        seed=7,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def _split_service():
    service = ShardedService(
        _spec(),
        Options({
            "shard_count": 2,
            "routing_policy": "ring",
            "replicas_per_shard": 2,
            "replication_quorum": 2,
            "lease_timeout_ms": 5.0,
        }),
        num_clients=4,
        client_ops_per_sec=500_000.0,
    )
    service.write_audit = {}
    fired = []

    def hook(svc, event):
        if not fired and event.ops_done >= 1000:
            fired.append(True)
            svc.set_options({"shard_count": svc.num_shards + 1})

    service.on_progress = hook
    failures = []
    service.on_complete = lambda svc: failures.extend(svc.verify_write_audit())
    return service, failures


class TestSwapFenceRegression:
    def test_inflight_quorum_group_never_straddles_the_swap(self):
        """Regression (pre-fix: lost or ack-inverted writes at a split).

        A quorum write group applied to the donor during the drain but
        still awaiting follower acks when the drain completed used to
        straddle the ring swap: its commit event popped after ownership
        moved, so its keys missed the migration journal (the recipient
        never materialized the acked value), and its service ack landed
        *after* newer writes the recipient had already acked — ack
        order inverted against apply order for the same key. Both
        showed up as write-audit violations under a saturated
        replicated split. The swap now fences on the donor's in-flight
        commit: it defers to the commit event's instant and blocks new
        donor write groups, so every donor-acked write is journaled
        before ownership moves.
        """
        service, failures = _split_service()
        result = service.run()
        assert result.reshards and result.reshards[0][0] == "split"
        assert result.aggregate.ops_done == _spec().num_ops
        assert failures == []

    def test_fence_defers_but_never_starves_the_swap(self):
        # Saturating writers keep the donor's queue full; the fence
        # must still converge (one deferral per in-flight group, and
        # fenced shards start no new groups), not livelock the swap.
        for seed in (7, 21):
            service, failures = _split_service()
            service.spec = _spec(seed=seed)
            result = service.run()
            assert result.reshards, f"seed {seed}: split never completed"
            assert failures == []


class TestOptionsFanoutCrashRegression:
    """Regression (pre-fix: the whole run aborted with SimulatedCrash).

    The chaos sweep caught this one: ``set_options`` fans the diff out
    to every live replica, and each apply persists the OPTIONS file —
    a mutating syscall stream a fault schedule can land in. Pre-fix
    the injected crash escaped the fan-out's all-or-nothing handler
    and aborted the entire service run; a crash while persisting one
    replica's OPTIONS file must instead kill just that replica — a
    follower leaves the group degraded, a leader starts the failover
    timeline — while the reconfiguration proceeds for everyone else.
    """

    def _crash_in_fanout(self, victim_replica):
        factory = FaultEnvFactory(seed=13)
        service, violations = _build("drain", 13, factory)
        inner = service.on_progress
        armed = []

        def hook(svc, event):
            # Arm the victim one mutating op before the split hook
            # calls set_options: its next FS write is the OPTIONS
            # persist inside the fan-out.
            if not armed and event.ops_done >= 1000:
                armed.append(True)
                factory.arm_after(0, victim_replica, 1)
            inner(svc, event)

        service.on_progress = hook
        result = service.run()
        assert armed and factory.crashed(0, victim_replica)
        assert violations == []
        return result

    def test_follower_crash_during_fanout_degrades_only_the_group(self):
        result = self._crash_in_fanout(victim_replica=1)
        assert result.reshards, "split should survive a dead follower"
        assert not any(f[0] == 0 for f in result.failovers)

    def test_leader_crash_during_fanout_fails_over_and_split_completes(
        self,
    ):
        result = self._crash_in_fanout(victim_replica=0)
        assert any(f[0] == 0 for f in result.failovers)
        assert result.reshards, "deferred split should complete after failover"
