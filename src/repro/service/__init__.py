"""Sharded multi-client service layer over PyLSM.

A hash-sharded front-end that routes keys over N independent DB
instances through a pluggable :class:`RoutingPolicy` (modulo or a
consistent-hash ring), drives a simulated open-loop population of
concurrent clients on the virtual clock, coalesces concurrent writers
into cross-client group commits per shard, and — under ring routing —
splits or merges shards live mid-run via ``set_options``. See
``docs/service.md``.
"""

from repro.service.chaos import (
    ServiceScheduleResult,
    run_service_crash_schedule,
    service_sweep,
)
from repro.service.clients import Request, SimClient, build_clients, client_role
from repro.service.replication import (
    Replica,
    ReplicaGroup,
    open_group,
)
from repro.service.report import render_service_report
from repro.service.routing import (
    HashRingPolicy,
    ModuloPolicy,
    ReshardPlan,
    RoutingPolicy,
    fnv1a_64,
    make_policy,
    ring_hash,
    shard_for_key,
)
from repro.service.service import (
    DEFAULT_CLIENT_OPS_PER_SEC,
    ClientStats,
    ServiceResult,
    ShardStats,
    ShardedService,
    run_benchmark,
)

__all__ = [
    "DEFAULT_CLIENT_OPS_PER_SEC",
    "ClientStats",
    "HashRingPolicy",
    "ModuloPolicy",
    "Replica",
    "ReplicaGroup",
    "Request",
    "ReshardPlan",
    "RoutingPolicy",
    "ServiceResult",
    "ServiceScheduleResult",
    "ShardStats",
    "ShardedService",
    "SimClient",
    "build_clients",
    "client_role",
    "fnv1a_64",
    "make_policy",
    "open_group",
    "render_service_report",
    "ring_hash",
    "run_benchmark",
    "run_service_crash_schedule",
    "service_sweep",
    "shard_for_key",
]
