"""Service-level chaos: seeded replica-crash schedules over the fleet.

This is the PR-3 fault harness pointed at the whole service. Every
replica of every shard runs over its own :class:`~repro.lsm.faults.
FaultFS` (via :class:`~repro.lsm.faults.FaultEnvFactory`); a *schedule*
arms a crash on exactly one victim replica at a chosen offset into its
mutating-syscall stream and asserts, via the write-audit oracle, that
no service-acked write is lost or misrouted cluster-wide — across
group commits, WAL shipping, follower promotion, and live resharding.

Two scenario shapes cover the interesting windows:

* ``commit`` — steady replicated traffic (leader-lease writes with a
  follower quorum); crashes land mid-group-commit, mid-ship, or in
  background work, and a leader crash must drive a full failover.
* ``drain`` — the same traffic with a live split mid-run; crashes land
  in the drain install, the journal replay, the ring swap, or on a
  recipient replica that is still provisioning (a dead-on-arrival
  member: the group must start degraded, not fail the split).

Offsets are drawn inside each victim's *measured serving window* — a
baseline (no-crash) run of the same schedule seed records how many
mutating ops each replica performs between serving start and the
oracle checkpoint — so every schedule's crash actually fires mid-run:
the run is byte-identical to the baseline up to the crash point, which
is the first divergence. Everything is deterministic in
``(scenario, victim, crash_offset, seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bench.spec import WorkloadSpec
from repro.errors import WorkloadError
from repro.lsm.faults import FaultEnvFactory
from repro.lsm.options import Options
from repro.obs.tracer import Tracer
from repro.service.service import ShardedService

SCENARIOS = ("commit", "drain")

#: Per-scenario fleet shape: (shards, replicas, quorum, split_at_ops,
#: num_ops). ``commit`` runs more replicas so follower-crash and quorum
#: windows get coverage; ``drain`` keeps groups at two so the split's
#: provisioning window (dead-on-arrival members) is reachable with a
#: single victim, and runs long enough for the progress-cadence hook
#: (every ``ShardedService.PROGRESS_EVERY`` ops) to fire the split
#: with serving time left on both sides of it.
_SHAPES = {
    "commit": (2, 3, 2, None, 1200),
    "drain": (2, 2, 2, 1000, 3000),
}

_NUM_KEYS = 600
_PRELOAD = 300


@dataclass
class ServiceScheduleResult:
    """Outcome of one service crash schedule."""

    scenario: str
    victim: tuple[int, int]
    crash_offset: int
    seed: int
    crashed: bool
    failovers: list = field(default_factory=list)
    reshards: list = field(default_factory=list)
    ops_done: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def coords(self) -> str:
        """Replay coordinates for a failing schedule."""
        shard, replica = self.victim
        return (
            f"{self.scenario}/shard{shard}.r{replica}"
            f"/crash@+{self.crash_offset}/seed={self.seed}"
        )


def _spec(seed: int, num_ops: int) -> WorkloadSpec:
    return WorkloadSpec(
        name="servicechaos",
        num_ops=num_ops,
        num_keys=_NUM_KEYS,
        preload_keys=_PRELOAD,
        read_fraction=0.3,
        distribution="uniform",
        seed=seed,
    )


def _build(
    scenario: str, seed: int, factory: FaultEnvFactory
) -> tuple[ShardedService, list]:
    """One service wired for chaos: fault envs everywhere, the audit
    oracle armed, and (for ``drain``) a live split mid-run."""
    shards, replicas, quorum, split_at, num_ops = _SHAPES[scenario]
    service = ShardedService(
        _spec(seed, num_ops),
        Options({
            "shard_count": shards,
            "routing_policy": "ring",
            "replicas_per_shard": replicas,
            "replication_quorum": quorum,
            "lease_timeout_ms": 5.0,
        }),
        num_clients=4,
        client_ops_per_sec=500_000.0,
    )
    service.env_factory = factory
    service.write_audit = {}
    violations: list = []
    service.on_complete = lambda svc: violations.extend(svc.verify_write_audit())
    if split_at is not None:
        fired: list = []

        def hook(svc: ShardedService, event) -> None:
            if not fired and event.ops_done >= split_at:
                fired.append(True)
                svc.set_options({"shard_count": svc.num_shards + 1})

        service.on_progress = hook
    return service, violations


def measure_windows(scenario: str, seed: int) -> dict[tuple[int, int], int]:
    """Baseline run: each replica's mutating-op serving window.

    The window spans serving start (or env creation, for replicas a
    reshard provisions mid-run) to the oracle checkpoint; a crash armed
    strictly inside it is guaranteed to fire before the audit runs,
    because the run is identical to this baseline up to the crash.
    Raises if the baseline itself fails the oracle — chaos results mean
    nothing over a broken base.
    """
    factory = FaultEnvFactory(seed=seed)
    service, violations = _build(scenario, seed, factory)
    start: dict[tuple[int, int], int] = {}
    end: dict[tuple[int, int], int] = {}

    def mark_start(svc: ShardedService) -> None:
        for key in factory.envs:
            start[key] = factory.op_index(*key)

    on_oracle = service.on_complete

    def mark_end(svc: ShardedService) -> None:
        for key in factory.envs:
            end[key] = factory.op_index(*key)
        on_oracle(svc)

    service.on_serving_start = mark_start
    service.on_complete = mark_end
    service.run()
    if violations:
        raise RuntimeError(
            f"chaos baseline ({scenario}, seed={seed}) failed the "
            f"write-audit oracle: {violations[:3]}"
        )
    return {
        key: end[key] - start.get(key, 0)
        for key in end
        if end[key] - start.get(key, 0) > 1
    }


def run_service_crash_schedule(
    scenario: str,
    victim: tuple[int, int],
    crash_offset: int,
    seed: int = 0,
    *,
    tracer: Tracer | None = None,
) -> ServiceScheduleResult:
    """Run one schedule: crash ``victim`` ``crash_offset`` mutating ops
    into its serving stream and check the cluster-wide invariants.

    Fully deterministic in the four coordinates. The arm is planted
    from ``on_serving_start`` (so the preload is never the victim); a
    victim that does not exist yet — a reshard recipient — gets its arm
    applied the moment the split provisions it.
    """
    if scenario not in _SHAPES:
        raise WorkloadError(f"unknown chaos scenario {scenario!r}")
    factory = FaultEnvFactory(seed=seed, tracer=tracer)
    service, violations = _build(scenario, seed, factory)
    service.tracer = tracer if tracer is not None and tracer.enabled else None
    service.on_serving_start = lambda svc: factory.arm_after(
        victim[0], victim[1], crash_offset
    )
    result = service.run()
    return ServiceScheduleResult(
        scenario=scenario,
        victim=victim,
        crash_offset=crash_offset,
        seed=seed,
        crashed=factory.crashed(*victim),
        failovers=list(result.failovers),
        reshards=list(result.reshards),
        ops_done=result.aggregate.ops_done,
        violations=list(violations),
    )


def service_sweep(
    schedules: int,
    seed: int = 0,
    *,
    scenarios: tuple = SCENARIOS,
    tracer: Tracer | None = None,
    on_schedule=None,
) -> list[ServiceScheduleResult]:
    """Seeded sweep: ``schedules`` single-victim crashes spread across
    ``scenarios``, victims, and serving windows.

    Beyond the audit oracle, the sweep gates the chaos mechanics
    themselves: every schedule's crash must actually fire (a schedule
    that crashed nothing tested nothing), and a leader crash in the
    ``commit`` scenario must complete a failover — acked writes keep
    serving from the promoted follower's durable state.
    """
    rng = random.Random(seed)
    windows = {s: measure_windows(s, seed) for s in scenarios}
    results: list[ServiceScheduleResult] = []
    for i in range(schedules):
        scenario = scenarios[i % len(scenarios)]
        victims = sorted(windows[scenario])
        victim = victims[rng.randrange(len(victims))]
        crash_offset = rng.randrange(1, windows[scenario][victim])
        result = run_service_crash_schedule(
            scenario, victim, crash_offset, seed, tracer=tracer
        )
        if not result.crashed:
            result.violations.append(
                "crash never fired inside the measured serving window"
            )
        # In the commit scenario replica 0 leads its shard for the whole
        # run (nothing else can unseat it), so crashing it must drive a
        # recorded failover on that shard. Drain victims may instead die
        # on arrival or as followers, where no failover is expected.
        if scenario == "commit" and result.victim[1] == 0 and not any(
            f[0] == result.victim[0] for f in result.failovers
        ):
            result.violations.append(
                "leader crash completed no failover on its shard"
            )
        # A single-victim crash can degrade a replica group but never
        # empty it, so the drain scenario's split must still complete.
        if scenario == "drain" and not result.reshards:
            result.violations.append(
                "split never completed despite a surviving replica"
            )
        results.append(result)
        if on_schedule is not None:
            on_schedule(result)
    return results
