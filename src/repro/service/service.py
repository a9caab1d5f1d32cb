"""ShardedService: a multi-client front-end over N independent DBs.

The service routes keys through a pluggable :class:`RoutingPolicy`
(:mod:`repro.service.routing`) over ``shard_count`` independent
:class:`~repro.lsm.db.DB` instances and drives an open-loop population
of simulated clients on the virtual clock. Everything is
event-scheduled — no real threads — so runs are bit-deterministic: a
heap of ``(time_us, seq)``-ordered events interleaves client arrivals
with shard completions (and reshard completions), and ``seq`` (a global
monotonic counter) breaks ties the same way every run.

Routing
-------
Exactly one policy object answers every "which shard?" question — the
preload, the enqueue paths, queued-request migration, and the audit
oracle all go through it. A request's key is hashed once, at enqueue,
into a route the queue entry carries. The serve path maps that route to
its owner under the *current* layout and raises
:class:`~repro.errors.MisroutedRequestError` on a mismatch, so a desync
between the enqueue-side and serve-side views of the layout is an
error, never a silent wrong-shard read. The default ``modulo``
policy reproduces the original FNV-1a ``hash % N`` layout bit for bit;
``ring`` adds a consistent-hash ring with live resharding.

Concurrency model
-----------------
Each shard serves one request at a time (a single foreground "thread"
per shard); requests that arrive while the shard is busy wait in its
queue, and client-observed latency = completion − arrival, so queue
wait is included. This is the regime where *group commit* pays off:
when several writers are waiting on one shard, the shard drains up to
``max_write_batch_group_size`` of them into a single
:class:`~repro.lsm.write_batch.WriteBatch` — one WAL append + one sync
boundary for the whole group, RocksDB write-group style. The first
drained writer is the leader (the engine bumps ``write.done.self``
once for the batch); the other ``size − 1`` riders are accounted as
``write.done.other``.

Reads are served one request at a time. A multi-get whose keys span
shards is scattered into per-shard sub-reads and completes (for
latency purposes) when its last sub-read finishes.

Live resharding
---------------
Under a ring policy, ``set_options({"shard_count": N})`` changes
topology *while serving*: the donor's moving key range is drained at a
pinned snapshot via ``DB.iterator()`` and installed into the recipient
with ``WriteBatch``; the drain takes virtual time, during which writes
to the moving range keep landing on the donor *and* are appended to a
migration journal; when the drain's completion event fires, the journal
is replayed into the recipient, queued requests stranded on the donor
are migrated, and the ring swaps atomically. ``service.reshard.*``
trace events bracket the move. Values the donor no longer owns are left
behind as unreachable garbage (the ring never routes to them).

Timing
------
Every shard has its own :class:`~repro.lsm.env.Env` (filesystem +
clock) so engine work on one shard never advances another shard's
clock — shards genuinely overlap in virtual time. After the preload
all shard clocks and the global clock are aligned to the same base, so
arrival timestamps, shard clocks, and the trace share one timeline.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.bench.keygen import format_key
from repro.bench.runner import BenchResult, preload_stream
from repro.bench.spec import WorkloadSpec
from repro.errors import (
    AuditUnavailableError,
    DBClosedError,
    MisroutedRequestError,
    NoLiveReplicaError,
    RoutingError,
    SimulatedCrash,
    WorkloadError,
)
from repro.hardware.profile import HardwareProfile, make_profile
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.histogram import Histogram, HistogramSummary
from repro.lsm.options import Options, ensure_mutable, spec_for
from repro.lsm.statistics import Statistics, Ticker
from repro.lsm.write_batch import WriteBatch
from repro.obs.events import (
    BenchAbort,
    FailoverBegin,
    FailoverEnd,
    GroupCommit,
    ReplicaCrash,
    ReplicaPromote,
    ReplicaShip,
    ReshardBegin,
    ReshardEnd,
    ServiceEnd,
    ServiceProgress,
    ServiceStart,
    SetOptions,
    ShardSummary,
)
from repro.obs.tracer import Tracer
from repro.service.clients import MULTIGET, PUT, Request, SimClient, build_clients
from repro.service.replication import (
    REPLICATION_HOP_US,
    PendingCommit,
    Replica,
    ReplicaGroup,
    apply_entries,
    open_group,
)
from repro.service.routing import ReshardPlan, RoutingPolicy, make_policy
from repro.sim.clock import SimClock

#: Default open-loop arrival rate per client. At ~50µs mean
#: interarrival a client outruns a single shard's service rate, so
#: queues form and write groups actually coalesce.
DEFAULT_CLIENT_OPS_PER_SEC = 20_000.0

_ARRIVAL = 0
_FREE = 1
_RESHARD = 2
#: A follower's durable ack for a replicated write group landed back on
#: the leader; the group commits when the quorum's worth have popped.
_REPL = 3
#: A crashed leader's lease expired; promote the freshest follower.
_FAILOVER = 4

#: Keys per WriteBatch when installing a drained range or replaying the
#: migration journal into a recipient shard.
_MIGRATE_BATCH = 512


@dataclass
class _Fanout:
    """Completion tracker for a multi-get scattered across shards."""

    remaining: int
    arrival_us: float
    client: int
    finish_us: float = 0.0


@dataclass
class _Shard:
    """One shard: an independent DB plus its queues and accounting."""

    index: int
    env: Env
    stats: Statistics
    db: DB
    #: Pending writes: (arrival_us, seq, Request, route).
    write_q: deque = field(default_factory=deque)
    #: Pending reads: (arrival_us, seq, Request, keys, routes,
    #: _Fanout | None), ``routes[i]`` being the route of ``keys[i]``.
    read_q: deque = field(default_factory=deque)
    busy: bool = False
    #: A merge victim: no longer in the ring, kept only for accounting.
    retired: bool = False
    #: The shard's replica group (None: a bare single-node shard). The
    #: ``env``/``stats``/``db`` fields above always alias the current
    #: leader's, so every existing code path serves the leader.
    group: "ReplicaGroup | None" = None
    #: The write group waiting on its replication quorum, if any; the
    #: shard stays busy until the commit event resolves it.
    pending: "PendingCommit | None" = None
    #: True between a leader crash and the lease-expiry promotion: the
    #: shard queues requests but serves nothing, and its ``db`` still
    #: points at the dead leader (do not touch it).
    failing_over: bool = False
    #: True while a ring swap is fenced on this donor's in-flight
    #: replication commit: reads still serve, but no new write group
    #: may start (it could commit after the swap, inverting ack order
    #: against writes the recipient acks in between).
    fenced: bool = False
    requests: int = 0
    reads: int = 0
    writes: int = 0
    groups: int = 0
    grouped_writes: int = 0
    max_group: int = 0
    write_hist: Histogram = field(default_factory=Histogram)
    read_hist: Histogram = field(default_factory=Histogram)


@dataclass
class _Migration:
    """One in-flight reshard: the plan, its journal, and bookkeeping."""

    plan: ReshardPlan
    begin_us: float
    keys_drained: int
    #: Writes applied to the moving range while the drain was in
    #: flight, as (key, value, route); replayed into the recipient(s)
    #: at the ring swap.
    journal: list = field(default_factory=list)


@dataclass(frozen=True)
class ShardStats:
    """Per-shard accounting, frozen at the end of a run."""

    index: int
    requests: int
    reads: int
    writes: int
    groups: int
    grouped_writes: int
    max_group: int
    wal_syncs: int
    db_size_bytes: int
    write_summary: HistogramSummary | None
    read_summary: HistogramSummary | None


@dataclass(frozen=True)
class ClientStats:
    """Per-client accounting, frozen at the end of a run."""

    client: int
    role: str
    requests: int
    latency_summary: HistogramSummary | None


@dataclass
class ServiceResult:
    """Everything one service run produced.

    ``aggregate`` is a plain :class:`BenchResult` (summed tickers,
    service-level client-observed latency histograms) so the existing
    db_bench-format reporting and the tuning loop's parser work
    unchanged. ``aggregate.wall_clock_s`` stays 0 so rendered reports
    are byte-identical across runs; host time lives here instead.
    """

    aggregate: BenchResult
    shards: list[ShardStats]
    clients: list[ClientStats]
    groups: int
    grouped_writes: int
    wal_syncs: int
    requests_done: int
    wall_clock_s: float = 0.0
    #: Completed live topology changes, in order: (kind, donor,
    #: recipient) tuples.
    reshards: list = field(default_factory=list)
    #: Always 0 (the service refuses no request); its one reader is
    #: ``service.sheds`` in benchmarks/perf/workloads.py.
    sheds: int = 0
    #: Completed leader failovers, in order: (shard, crashed_replica,
    #: promoted_replica) tuples.
    failovers: list = field(default_factory=list)
    #: GETs served by followers under the bounded-staleness check
    #: (``follower_reads``), summed over every replica group.
    follower_reads_served: int = 0
    #: Replica-group size the service ran with (1: bare shards).
    replicas_per_shard: int = 1

    @property
    def syncs_per_write(self) -> float:
        if self.aggregate.writes_done == 0:
            return 0.0
        return self.wal_syncs / self.aggregate.writes_done


class ShardedService:
    """One-shot sharded benchmark executor (construct, run, discard).

    Mid-run interaction happens through two hooks: periodic
    ``service.progress`` trace events (every :data:`PROGRESS_EVERY`
    completed operations, same early-stop contract as ``bench.progress``)
    and an optional :attr:`on_progress` callback fired at the same
    cadence — the online tuner uses it to call :meth:`set_options`
    between requests, on the virtual clock, without reopening a shard.
    """

    #: Completed operations between progress samples (and on_progress
    #: callbacks). Virtual-time cadence, so it is deterministic.
    PROGRESS_EVERY = 2000

    def __init__(
        self,
        spec: WorkloadSpec,
        options: Options | None = None,
        profile: HardwareProfile | None = None,
        *,
        num_clients: int | None = None,
        client_ops_per_sec: float = DEFAULT_CLIENT_OPS_PER_SEC,
        byte_scale: float = 1.0,
        base_path: str = "/svc",
        tracer: Tracer | None = None,
    ) -> None:
        self.spec = spec
        self.options = options if options is not None else Options()
        self.profile = profile if profile is not None else make_profile(4, 4)
        self.num_clients = (
            num_clients if num_clients is not None else max(1, spec.threads)
        )
        if self.num_clients < 1:
            raise WorkloadError("need at least one client")
        if client_ops_per_sec <= 0:
            raise WorkloadError("client_ops_per_sec must be positive")
        self.client_ops_per_sec = client_ops_per_sec
        self.byte_scale = byte_scale
        self.base_path = base_path
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self.num_shards = max(1, int(self.options.shard_count))
        self.num_replicas = max(1, int(self.options.replicas_per_shard))
        if self.options.enable_group_commit:
            self._max_group = max(1, int(self.options.max_write_batch_group_size))
        else:
            self._max_group = 1
        self._clock = SimClock()
        self._seq = 0
        self._write_hist = Histogram()
        self._read_hist = Histogram()
        #: The single source of routing truth: every lookup goes
        #: through this object (see module docstring).
        self._policy: RoutingPolicy = make_policy(self.options)
        self._migration: _Migration | None = None
        self._topology_target: int | None = None
        self._next_shard_id = self.num_shards
        self._heap: list | None = None
        self._reshards: list[tuple[str, int, int]] = []
        #: Optional mid-run hook: called as ``on_progress(service, event)``
        #: after every progress sample, while the event loop is parked
        #: between requests. The callback may call :meth:`set_options`.
        self.on_progress: "Callable[[ShardedService, ServiceProgress], None] | None" = None
        #: Optional hook called after the run completes, while shards
        #: are still open — oracles (e.g. :meth:`verify_write_audit`)
        #: run here, after results are frozen.
        self.on_complete: "Callable[[ShardedService], None] | None" = None
        #: When set to a dict, every *acked* write records its last
        #: value here (serve order), for the lost/misrouted-write
        #: oracle. Leave None (the default) to skip the bookkeeping.
        self.write_audit: dict[bytes, bytes] | None = None
        #: Optional Env factory ``(shard_index, replica_id) -> Env``:
        #: the chaos harness backs every replica with a fault-injecting
        #: filesystem through this. None (the default) opens plain
        #: in-memory envs.
        self.env_factory: "Callable[[int, int], Env] | None" = None
        #: Optional hook fired once, after the preload finished and all
        #: clocks were aligned, before the first request is served —
        #: the chaos harness arms crash schedules here so the preload
        #: is never the victim.
        self.on_serving_start: "Callable[[ShardedService], None] | None" = None
        self._failovers: list[tuple[int, int, int]] = []
        self._shards: list[_Shard] = []
        self._aborted = False

    # -- setup -------------------------------------------------------------

    def _open_shard(self, index: int) -> _Shard:
        if self.num_replicas > 1:
            group = open_group(
                index,
                self.base_path,
                self.options,
                self.profile,
                self.byte_scale,
                replicas=self.num_replicas,
                env_factory=self.env_factory,
            )
            leader = group.leader
            shard = _Shard(
                index=index,
                env=leader.env,
                stats=leader.stats,
                db=leader.db,
                group=group,
            )
            for rep in group.replicas:
                if not rep.alive:  # died while provisioning
                    self._emit_replica_crash(shard, rep, "follower")
            return shard
        env = (
            self.env_factory(index, 0)
            if self.env_factory is not None
            else Env()
        )
        stats = Statistics()
        # Shard DBs run untraced: engine events from N interleaved
        # shards would share one tracer clock and lose meaning. The
        # service emits its own service.* events on the global clock.
        db = DB.open(
            f"{self.base_path}/shard-{index:02d}",
            self.options,
            env=env,
            profile=self.profile,
            statistics=stats,
            byte_scale=self.byte_scale,
        )
        return _Shard(index=index, env=env, stats=stats, db=db)

    def _preload(self) -> None:
        """:func:`~repro.bench.runner.preload_stream`, routed by key."""
        if self.spec.preload_keys <= 0:
            return
        order, values = preload_stream(self.spec)
        shards = self._shards
        route = self._policy.route
        owner = self._policy.owner
        for index in order:
            key = format_key(index)
            shard = shards[owner(route(key))]
            value = values.next_value()
            shard.db.put(key, value)
            # Followers preload too: a promoted follower must already
            # hold the base dataset or failover would "lose" it.
            if shard.group is not None:
                for rep in shard.group.followers():
                    rep.db.put(key, value)
        for shard in shards:
            shard.db.flush(wait_compactions=False)
            if shard.group is not None:
                for rep in shard.group.followers():
                    rep.db.flush(wait_compactions=False)
                    rep.acked_seq = rep.db.last_sequence

    # -- event loop --------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _depth(self, shard_id: int) -> int:
        """Live queue depth of one shard (in-service request included)."""
        shard = self._shards[shard_id]
        return len(shard.write_q) + len(shard.read_q) + (1 if shard.busy else 0)

    def _schedule(self, t_us: float, kind: int, who: int, payload: Any) -> None:
        """Push one event; ``(t_us, seq)`` is its place in the run."""
        self._seq += 1
        heapq.heappush(self._heap, (t_us, self._seq, kind, who, payload))

    def _enqueue(self, req: Request) -> None:
        """Route an arrived request to its shard queue(s). This is the
        one place a request's keys are hashed: the queue entry carries
        each key's route from here on."""
        policy = self._policy
        shards = self._shards
        if req.kind != MULTIGET:  # point op: one owner, one queue
            route = policy.route(req.key)
            shard = shards[policy.owner(route)]
            if req.kind == PUT:
                shard.write_q.append(
                    (req.arrival_us, self._next_seq(), req, route)
                )
            else:
                shard.read_q.append((
                    req.arrival_us, self._next_seq(), req, (req.key,), (route,), None
                ))
            self._kick(shard)
        else:  # multiget: scatter keys by shard, gather on completion
            by_shard: dict[int, tuple[list[bytes], list[int]]] = {}
            for key in req.keys:
                route = policy.route(key)
                keys, routes = by_shard.setdefault(policy.owner(route), ([], []))
                keys.append(key)
                routes.append(route)
            fanout = _Fanout(
                remaining=len(by_shard),
                arrival_us=req.arrival_us,
                client=req.client,
            )
            for idx in sorted(by_shard):
                shard = shards[idx]
                keys, routes = by_shard[idx]
                shard.read_q.append(
                    (
                        req.arrival_us,
                        self._next_seq(),
                        req,
                        tuple(keys),
                        tuple(routes),
                        fanout,
                    )
                )
                self._kick(shard)

    def _kick(self, shard: _Shard) -> None:
        """Start serving if the shard is idle (a fenced shard only has
        reads to offer — see :attr:`_Shard.fenced`)."""
        if not shard.busy and (
            shard.read_q or (shard.write_q and not shard.fenced)
        ):
            self._serve(shard)

    def _serve(self, shard: _Shard) -> None:
        """Serve one unit of work (a write group or one read) and
        schedule the shard's completion event."""
        shard.busy = True
        # Service begins now on the global timeline; the shard clock may
        # already be ahead if its previous op finished later (we are
        # dispatched from its FREE event, so in practice it is equal).
        shard.env.clock.advance_to(self._clock.now_us)
        # Writes win ties: the older queue head goes first, and a write
        # group drains every waiting writer up to the group-size cap.
        serve_write = (
            bool(shard.write_q)
            and not shard.fenced
            and (
                not shard.read_q
                or shard.write_q[0][:2] <= shard.read_q[0][:2]
            )
        )
        if serve_write:
            completed = self._serve_writes(shard)
        else:
            self._serve_read(shard)
            completed = True
        if completed:
            self._schedule(shard.env.clock.now_us, _FREE, shard.index, None)

    def _serve_writes(self, shard: _Shard) -> bool:
        """Serve one write group; returns True when the group completed
        synchronously (push the shard's FREE event), False when it is
        waiting on a replication quorum or fell into failover."""
        group_start_us = shard.env.clock.now_us
        n = min(len(shard.write_q), self._max_group)
        members = [shard.write_q.popleft() for _ in range(n)]
        # Serve-time route check: the policy is the single source of
        # truth, and a queue entry whose carried route it no longer maps
        # here is a bug (a reshard failed to migrate it), not a
        # wrong-shard write waiting to happen.
        owner_of = self._policy.owner
        for _, _, req, route in members:
            owner = owner_of(route)
            if owner != shard.index:
                raise MisroutedRequestError(req.key, shard.index, owner)
        group = shard.group
        entries = [(req.key, req.value) for _, _, req, _ in members]
        try:
            apply_entries(shard.db, entries)
            if n > 1:
                # Followers: committed by the leader on their behalf.
                shard.stats.bump(Ticker.WRITE_DONE_BY_OTHER, n - 1)
                shard.groups += 1
                shard.grouped_writes += n
                shard.max_group = max(shard.max_group, n)
            if group is not None:
                # Replicated shard: the leader force-syncs its WAL (the
                # first quorum vote) before the group ships to followers.
                shard.db.sync_wal()
        except SimulatedCrash:
            if group is None:
                raise
            self._begin_failover(shard, members)
            return False
        if group is None:
            self._finish_write_group(
                shard, members, group_start_us, shard.env.clock.now_us
            )
            return True
        # The service ack — and with it the audit/journal bookkeeping —
        # waits for quorum-1 durable follower acks as heap events.
        leader_finish_us = shard.env.clock.now_us
        acks = group.ship(entries, leader_finish_us)
        for rep, ack_us in acks:
            if ack_us is None:
                self._emit_replica_crash(shard, rep, "follower")
        quorum = max(1, int(self.options.replication_quorum))
        needed = group.acks_needed(quorum)
        if self.tracer is not None:
            self.tracer.emit(
                ReplicaShip(
                    shard=shard.index,
                    group_size=n,
                    followers=sum(1 for _, a in acks if a is not None),
                    acks_needed=needed,
                    leader_seq=shard.db.last_sequence,
                )
            )
        if needed == 0:
            # Leader-only quorum: the group commits on the leader's WAL
            # sync; followers were still shipped to (async replication).
            self._finish_write_group(
                shard, members, group_start_us, leader_finish_us
            )
            return True
        pending = PendingCommit(
            members=members,
            group_start_us=group_start_us,
            acks_needed=needed,
        )
        shard.pending = pending
        # Any quorum-1 acks satisfy the write, so only the fastest
        # ``needed`` matter; the last of them is the commit event.
        chosen = sorted(a for _, a in acks if a is not None)[:needed]
        pending.resolve_us = chosen[-1]
        for ack_us in chosen:
            self._schedule(ack_us, _REPL, shard.index, pending)
        return False

    def _finish_write_group(
        self,
        shard: _Shard,
        members: list,
        group_start_us: float,
        finish_us: float,
    ) -> None:
        """The service-ack point of a write group: only here do writes
        reach the migration journal and the write audit. A group that
        never commits (leader crashed before quorum; its members were
        requeued) must never get here — an unacked write in the journal
        would materialize on a reshard recipient, which the audit
        oracle reports as a misroute."""
        mig = self._migration
        audit = self.write_audit
        for arrival_us, _, req, route in members:
            # Migration journal: a write applied to the moving range
            # while the drain is in flight must be replayed into the
            # recipient at the swap, or it is lost.
            if mig is not None and mig.plan.moves(route):
                mig.journal.append((req.key, req.value, route))
            if audit is not None:
                audit[req.key] = req.value
            latency = finish_us - arrival_us
            self._record(shard, True, 1, latency, req.client, latency)
        if len(members) > 1 and self.tracer is not None:
            self.tracer.emit(
                GroupCommit(
                    shard=shard.index,
                    size=len(members),
                    leader_client=members[0][2].client,
                    latency_us=finish_us - group_start_us,
                )
            )

    def _apply_group(
        self,
        shard: _Shard,
        entries: list,
        now_us: float,
    ) -> None:
        """Apply already-acked internal writes (drain installs, journal
        replay) to every live replica of ``shard``.

        On a bare shard this is exactly the old single-DB install; on a
        replica group each live member applies and force-syncs so the
        data survives any single member's later crash. A member dying
        mid-apply is handled here: a follower is marked dead, a leader
        starts the failover timeline — in both cases the remaining
        members still receive the data, which is how a drain outlives a
        recipient-leader crash.
        """
        if not entries:
            return
        group = shard.group
        if group is None:
            shard.env.clock.advance_to(now_us)
            self._install(shard.db, entries)
            return
        for rep in group.live_replicas():
            rep.env.clock.advance_to(now_us)
            try:
                self._install(rep.db, entries)
                rep.db.sync_wal()
            except SimulatedCrash:
                if rep.replica_id == group.leader_id:
                    self._begin_failover(shard, [])
                else:
                    rep.alive = False
                    self._emit_replica_crash(shard, rep, "follower")
                continue
            if rep.replica_id != group.leader_id:
                rep.acked_seq = rep.db.last_sequence

    @staticmethod
    def _install(db: DB, entries: list) -> None:
        for base in range(0, len(entries), _MIGRATE_BATCH):
            batch = WriteBatch()
            for key, value in entries[base:base + _MIGRATE_BATCH]:
                batch.put(key, value)
            db.write(batch)

    def _serve_read(self, shard: _Shard) -> None:
        arrival_us, _, req, keys, routes, fanout = shard.read_q.popleft()
        # Serve-time route check, as for writes (see _serve_writes).
        owner_of = self._policy.owner
        for key, route in zip(keys, routes):
            owner = owner_of(route)
            if owner != shard.index:
                raise MisroutedRequestError(key, shard.index, owner)
        if fanout is not None:
            shard.db.multi_get(list(keys))
            finish_us = shard.env.clock.now_us
            fanout.remaining -= 1
            fanout.finish_us = max(fanout.finish_us, finish_us)
            # The client sees the multi-get complete with its last part.
            self._record(
                shard, False, len(keys), finish_us - arrival_us, fanout.client,
                fanout.finish_us - fanout.arrival_us
                if fanout.remaining == 0 else None,
            )
            return
        rep = None
        if shard.group is not None and bool(self.options.follower_reads):
            rep = shard.group.follower_for_read(shard.db.last_sequence)
        if rep is not None:
            # Bounded-staleness follower read: a live follower within
            # the lag bound serves the GET on its own clock (one hop
            # out, one hop back) and the leader is freed immediately —
            # its clock never advances, so the FREE event fires "now".
            rep.env.clock.advance_to(self._clock.now_us + REPLICATION_HOP_US)
            rep.db.get(keys[0])
            rep.reads_served += 1
            finish_us = rep.env.clock.now_us + REPLICATION_HOP_US
        else:
            shard.db.get(keys[0])
            finish_us = shard.env.clock.now_us
        latency = finish_us - arrival_us
        self._record(shard, False, 1, latency, req.client, latency)

    def _record(
        self,
        shard: _Shard,
        write: bool,
        ops: int,
        latency_us: float,
        client: int,
        client_latency_us: float | None,
    ) -> None:
        """The one epilogue of a served unit: the shard's histogram and
        counters take ``latency_us``; the service and per-client
        histograms take ``client_latency_us`` once the client-visible
        request is complete (None: a fan-out with parts still
        outstanding). :meth:`_collect` reads all of it back."""
        if write:
            shard.write_hist.add(latency_us)
            shard.writes += ops
            self._writes_done += ops
            service_hist = self._write_hist
        else:
            shard.read_hist.add(latency_us)
            shard.reads += ops
            self._reads_done += ops
            service_hist = self._read_hist
        shard.requests += 1
        self._ops_done += ops
        if client_latency_us is not None:
            service_hist.add(client_latency_us)
            self._client_hist[client].add(client_latency_us)

    # -- run ---------------------------------------------------------------

    def run(self) -> ServiceResult:
        wall_start = time.perf_counter()
        spec = self.spec
        if self.tracer is not None:
            self.tracer.bind_clock(lambda: self._clock.now_us)
        shards = self._shards = [
            self._open_shard(i) for i in range(self.num_shards)
        ]
        clients = build_clients(
            spec, self.num_clients, 1e6 / self.client_ops_per_sec
        )
        self._client_hist = [Histogram() for _ in clients]
        self._reads_done = 0
        self._writes_done = 0
        self._ops_done = 0
        self._total_ops = sum(c.num_requests for c in clients)
        self._aborted = False
        try:
            self._preload()
            # Align every clock to one post-preload base so arrival
            # stamps, shard clocks, and the trace share a timeline.
            # (Replica clocks too: a shard's env aliases its leader's,
            # so a group's replicas cover leader and followers alike;
            # a bare shard stands in as its own only member.)
            members = [
                rep
                for s in shards
                for rep in (s.group.replicas if s.group is not None else (s,))
            ]
            base_us = max(rep.env.clock.now_us for rep in members)
            for rep in members:
                rep.env.clock.advance_to(base_us)
                rep.stats.reset()
            self._clock.advance_to(base_us)
            if self.on_serving_start is not None:
                self.on_serving_start(self)
            if self.tracer is not None:
                self.tracer.emit(
                    ServiceStart(
                        benchmark=spec.name,
                        shards=self.num_shards,
                        clients=self.num_clients,
                        num_ops=spec.num_ops,
                        group_commit=self._max_group > 1,
                    )
                )
            self._drive(clients, base_us)
            duration_s = (self._clock.now_us - base_us) / 1e6
            result = self._collect(clients, duration_s)
            result.wall_clock_s = time.perf_counter() - wall_start
            if self.on_complete is not None:
                self.on_complete(self)
            return result
        finally:
            self._shards = []
            self._heap = None
            for shard in shards:
                if shard.group is not None:
                    shard.group.close()
                elif not shard.db.closed:
                    shard.db.close()

    def _drive(self, clients: list[SimClient], base_us: float) -> None:
        """The event loop: interleave arrivals and shard completions."""
        heap = self._heap = []
        shards = self._shards
        streams = [c.requests(start_us=base_us) for c in clients]
        for client_id, stream in enumerate(streams):
            req = next(stream, None)
            if req is not None:
                self._schedule(req.arrival_us, _ARRIVAL, client_id, req)
        next_progress = self.PROGRESS_EVERY
        watch = self.tracer is not None or self.on_progress is not None
        while heap:
            t_us, _, kind, who, payload = heapq.heappop(heap)
            self._clock.advance_to(t_us)
            if kind == _ARRIVAL:
                self._enqueue(payload)
                nxt = next(streams[who], None)
                if nxt is not None:
                    self._schedule(nxt.arrival_us, _ARRIVAL, who, nxt)
            elif kind == _FREE:
                shard = shards[who]
                if not shard.failing_over:
                    shard.busy = False
                    self._kick(shard)
                # else: a leader crash (e.g. a drain install or an
                # options fan-out into this shard) raced the FREE event;
                # the lease event now owns the shard until promotion.
            elif kind == _REPL:
                pending: PendingCommit = payload
                if not (pending.cancelled or pending.done):
                    pending.received += 1
                    if pending.received >= pending.acks_needed:
                        pending.done = True
                        shard = shards[who]
                        shard.pending = None
                        self._finish_write_group(
                            shard,
                            pending.members,
                            pending.group_start_us,
                            t_us,
                        )
                        shard.busy = False
                        self._kick(shard)
            elif kind == _FAILOVER:
                self._finish_failover(shards[who], payload)
            else:  # _RESHARD: the drain finished; swap the ring
                self._finish_reshard(payload)
            # Progress sampling between events: the same contract as
            # DbBench's mid-run samples, so BenchmarkMonitor early-stop
            # and drift detection work for service benchmarks too.
            if self._ops_done >= next_progress:
                next_progress = (
                    self._ops_done // self.PROGRESS_EVERY + 1
                ) * self.PROGRESS_EVERY
                if watch:
                    event = self._progress_event(base_us)
                    if self.tracer is not None:
                        self.tracer.emit(event)
                        if self.tracer.abort_requested:
                            reason = self.tracer.take_abort() or "abort requested"
                            self.tracer.emit(BenchAbort(reason))
                            self._aborted = True
                            break
                    if self.on_progress is not None:
                        self.on_progress(self, event)

    def _progress_event(self, base_us: float) -> ServiceProgress:
        elapsed_s = (self._clock.now_us - base_us) / 1e6
        hits = 0
        misses = 0
        for shard in self._shards:
            hits += shard.stats.ticker(Ticker.BLOCK_CACHE_HIT)
            misses += shard.stats.ticker(Ticker.BLOCK_CACHE_MISS)
        blocks = hits + misses
        return ServiceProgress(
            ops_done=self._ops_done,
            total_ops=self._total_ops,
            elapsed_virtual_s=elapsed_s,
            ops_per_sec=self._ops_done / elapsed_s if elapsed_s > 0 else 0.0,
            reads_done=self._reads_done,
            writes_done=self._writes_done,
            cache_hit_rate=hits / blocks if blocks else 0.0,
        )

    def topology_context(self) -> dict[str, Any]:
        """Live topology facts for the online tuner's prompt."""
        per_shard = {
            sid: self._depth(sid) if self._shards else 0
            for sid in self._policy.shard_ids()
        }
        return {
            "routing_policy": self._policy.name,
            "active_shards": len(per_shard),
            "queue_depths": per_shard,
            "resharding": self._migration is not None
            or self._topology_target is not None,
        }

    @property
    def supports_resharding(self) -> bool:
        """Whether ``set_options({"shard_count": N})`` works mid-run."""
        return self._policy.supports_resharding

    # -- live reconfiguration ----------------------------------------------

    def set_options(
        self, changes: "Mapping[str, Any] | Iterable[tuple[str, Any]]"
    ) -> dict[str, tuple[Any, Any]]:
        """Apply a mutable-option diff to the whole fleet, mid-run.

        Validation happens *before* any shard is touched, and the
        fan-out is all-or-nothing: if a shard's apply fails mid-loop,
        the inverse diff is applied to every shard already updated, so
        the fleet never diverges (and no event is emitted).

        Under a resharding policy (``ring``), a ``shard_count`` change
        is intercepted and applied as live shard splits/merges instead
        of a per-shard engine diff; the topology converges over virtual
        time while the service keeps serving.
        Under ``modulo`` it stays immutable and raises, before any
        shard is touched. Each shard's clock is aligned to the global
        timeline first, and no shard is reopened.

        Returns the applied paper-unit diff ``{name: (old, new)}``.
        """
        if not self._shards:
            raise DBClosedError("set_options requires a running service")
        if isinstance(changes, Mapping):
            items = list(changes.items())
        else:
            items = [(name, value) for name, value in changes]
        topology: int | None = None
        engine_items: list[tuple[str, Any]] = []
        for name, value in items:
            if name == "shard_count" and self._policy.supports_resharding:
                spec_for(name).validate(value)
                topology = int(value)
            else:
                engine_items.append((name, value))
        for name, value in engine_items:
            ensure_mutable(name).validate(value)
        if topology is not None:
            self._check_topology_feasible(topology)
        applied: dict[str, tuple[Any, Any]] = {}
        done: list[tuple[DB, dict[str, tuple[Any, Any]]]] = []
        try:
            for shard in self._shards:
                # A failing-over shard is skipped entirely: its leader
                # is dead and the shared bag reaches its survivors
                # through the other shards; the promoted leader's
                # component bindings refresh on the next diff.
                if shard.retired or shard.failing_over:
                    continue
                group = shard.group
                if group is None:
                    shard.env.clock.advance_to(self._clock.now_us)
                    diff = shard.db.set_options(engine_items)
                    done.append((shard.db, diff))
                    applied.update(diff)
                    continue
                for rep in list(group.live_replicas()):
                    rep.env.clock.advance_to(self._clock.now_us)
                    try:
                        # Replicas share one paper-unit bag, so the
                        # first DB reports the real diff and the rest
                        # apply it as a no-op (their component
                        # snapshots still refresh).
                        diff = rep.db.set_options(engine_items)
                    except SimulatedCrash:
                        # An injected fault while persisting the
                        # OPTIONS file kills that replica, not the
                        # reconfiguration: a dead follower just leaves
                        # the group degraded, a dead leader starts the
                        # failover timeline (the promoted survivor
                        # refreshes its bindings from the shared bag
                        # on the next diff, like any failing-over
                        # shard this loop skips).
                        if rep.replica_id == group.leader_id:
                            self._begin_failover(shard, [])
                            break
                        rep.alive = False
                        self._emit_replica_crash(shard, rep, "follower")
                        continue
                    done.append((rep.db, diff))
                    applied.update(diff)
        except Exception:
            # All-or-nothing: un-apply on every DB already updated (the
            # first rolled-back DB flips the shared bag; the rest
            # refresh their component bindings from it).
            inverse = [(n, old) for n, (old, _new) in sorted(applied.items())]
            if inverse:
                for rep_db, _diff in reversed(done):
                    rep_db.set_options(inverse)
            raise
        if topology is not None:
            current = (
                self._topology_target
                if self._topology_target is not None
                else len(self._policy.shard_ids())
            )
            if topology != current:
                self._topology_target = topology
                self._advance_topology()
                applied["shard_count"] = (current, topology)
        if applied and self.tracer is not None:
            self.tracer.emit(SetOptions(
                [[n, old, new] for n, (old, new) in sorted(applied.items())]
            ))
        return applied

    # -- live resharding ---------------------------------------------------

    def _check_topology_feasible(self, target: int) -> None:
        """Fail a topology request before any engine option is applied.

        Only the *first* step is fully checkable (later steps depend on
        intermediate ring states); that still catches the common edge
        cases — growing with too few virtual nodes, shrinking to zero —
        at request time rather than mid-flight.
        """
        if self._heap is None:
            raise RoutingError(
                "topology changes need a running event loop "
                "(set shard_count at construction instead)"
            )
        active = self._policy.shard_ids()
        current = (
            self._topology_target
            if self._topology_target is not None
            else len(active)
        )
        if target > current and not any(
            self._policy.arc_count(sid) >= 2 for sid in active
        ):
            raise RoutingError(
                "no shard owns enough virtual-node arcs to split "
                "(raise virtual_nodes)"
            )

    def _advance_topology(self) -> None:
        """Take the next split/merge step toward ``_topology_target``."""
        if self._migration is not None or self._topology_target is None:
            return
        active = self._policy.shard_ids()
        if any(self._shards[sid].failing_over for sid in active):
            # A drain cannot read a dead leader (nor should a failing
            # shard donate or absorb a range); the finished failover
            # re-calls this method.
            return
        if len(active) == self._topology_target:
            self._topology_target = None
            return
        try:
            if len(active) < self._topology_target:
                self._begin_split()
            else:
                self._begin_merge()
        except RoutingError:
            # Mid-flight infeasibility (e.g. arcs ran out after several
            # splits): stop converging rather than crash the service.
            self._topology_target = None

    def _begin_split(self) -> None:
        policy = self._policy
        # Donor: the most loaded shard that can still give arcs away —
        # deepest queue first (that is the shard worth splitting), then
        # most arcs, then lowest id, so the pick is deterministic.
        eligible = [s for s in policy.shard_ids() if policy.arc_count(s) >= 2]
        if not eligible:
            raise RoutingError("no shard has enough arcs to split")
        donor = max(
            eligible,
            key=lambda sid: (self._depth(sid), policy.arc_count(sid), -sid),
        )
        recipient = self._next_shard_id
        self._next_shard_id += 1
        plan = policy.plan_split(donor, recipient)
        try:
            shard = self._open_shard(recipient)
        except NoLiveReplicaError as exc:
            # Every recipient replica died while provisioning (chaos):
            # the plan was never committed, so dropping it aborts the
            # split cleanly.
            raise RoutingError(str(exc))
        shard.env.clock.advance_to(self._clock.now_us)
        self._shards.append(shard)
        self._execute_drain(plan)

    def _begin_merge(self) -> None:
        # Victim: the most recently added shard (LIFO), so a merge is
        # the natural undo of the last split — arc labels return moved
        # ranges to the shards that originally split them off.
        victim = max(self._policy.shard_ids())
        plan = self._policy.plan_merge(victim)
        self._execute_drain(plan)

    def _execute_drain(self, plan: ReshardPlan) -> None:
        """Drain the moving range at a pinned snapshot and schedule the
        ring swap at the drain's virtual completion time."""
        shards = self._shards
        donor = shards[plan.donor]
        now = self._clock.now_us
        donor.env.clock.advance_to(now)
        # Drain via the cursor API at a pinned snapshot: only keys whose
        # arc moves ship; values the donor holds but no longer owns
        # (garbage from an earlier reshard) are skipped — installing
        # them would overwrite fresher data.
        moving: dict[int, list[tuple[bytes, bytes]]] = {}
        keys_drained = 0
        route_of = self._policy.route
        with donor.db.snapshot() as snap:
            it = donor.db.iterator(snapshot=snap)
            it.seek(None)
            while it.valid:
                key = it.key
                route = route_of(key)
                if plan.moves(route):
                    moving.setdefault(plan.target(route), []).append(
                        (key, it.value)
                    )
                    keys_drained += 1
                it.next()
            it.close()
        for target_id in sorted(moving):
            # Every live replica of the recipient gets the drained
            # range: if its leader dies mid-install, the promoted
            # follower must still own the data.
            self._apply_group(shards[target_id], moving[target_id], now)
        migration = _Migration(plan=plan, begin_us=now, keys_drained=keys_drained)
        self._migration = migration
        done_us = max(
            donor.env.clock.now_us,
            *(shards[t].env.clock.now_us for t in sorted(moving) or [plan.donor]),
        )
        self._schedule(done_us, _RESHARD, plan.donor, migration)
        if self.tracer is not None:
            after = len(self._policy.shard_ids()) + (
                1 if plan.kind == "split" else -1
            )
            self.tracer.emit(
                ReshardBegin(
                    kind=plan.kind,
                    donor=plan.donor,
                    recipient=plan.recipient,
                    vnodes_moved=plan.vnodes_moved,
                    keys_drained=keys_drained,
                    shards_after=after,
                    ops_at=self._ops_done,
                )
            )

    def _finish_reshard(self, migration: _Migration) -> None:
        """The drain's completion event: replay the journal, swap the
        ring atomically, and migrate queued requests the swap stranded."""
        plan = migration.plan
        shards = self._shards
        now = self._clock.now_us
        donor = shards[plan.donor]
        # Swap fence: a write group applied to the donor but still
        # waiting on its replication quorum must commit (and reach the
        # journal) *before* ownership moves — if the swap went first,
        # the group's ack would land after newer writes the recipient
        # acks in between, inverting ack order against apply order for
        # the same key. Defer the swap to the commit event's time and
        # fence new write groups on the donor so exactly one deferral
        # suffices. (A cancelled pending — leader crash — needs no
        # fence: its members were requeued unacked and re-serve on
        # whichever shard owns their keys after the swap.)
        pending = donor.pending
        if pending is not None and not (pending.done or pending.cancelled):
            donor.fenced = True
            self._schedule(
                max(now, pending.resolve_us), _RESHARD, plan.donor, migration
            )
            return
        donor.fenced = False
        # Replay writes that landed on the moving range during the
        # drain, in apply order — they are already acked on the donor.
        by_target: dict[int, list[tuple[bytes, bytes]]] = {}
        for key, value, route in migration.journal:
            by_target.setdefault(plan.target(route), []).append((key, value))
        for target_id in sorted(by_target):
            self._apply_group(shards[target_id], by_target[target_id], now)
        self._policy.commit(plan)
        if plan.kind == "merge":
            shards[plan.donor].retired = True
        migrated = self._revalidate_queues([plan.donor])
        # Writes the fence held back (revalidation only kicks shards
        # that *received* entries) can go again.
        self._kick(donor)
        self._reshards.append((plan.kind, plan.donor, plan.recipient))
        if self.tracer is not None:
            self.tracer.emit(
                ReshardEnd(
                    kind=plan.kind,
                    donor=plan.donor,
                    recipient=plan.recipient,
                    journal_replayed=len(migration.journal),
                    queued_migrated=migrated,
                    duration_us=now - migration.begin_us,
                    shards_after=len(self._policy.shard_ids()),
                )
            )
        self._migration = None
        self._advance_topology()

    def _revalidate_queues(self, shard_ids: list[int]) -> int:
        """Re-route every queued request whose carried route the policy
        no longer maps to its current shard; returns how many entries
        moved.

        Moved entries keep their ``(arrival, seq)`` stamps and are
        merge-sorted into the destination queues, so FIFO order (and
        with it determinism) is preserved.
        """
        policy = self._policy
        shards = self._shards
        moved_writes: dict[int, list] = {}
        moved_reads: dict[int, list] = {}
        moved = 0
        for shard_id in shard_ids:
            shard = shards[shard_id]
            if shard.write_q:
                keep: deque = deque()
                for entry in shard.write_q:
                    owner = policy.owner(entry[3])
                    if owner == shard_id:
                        keep.append(entry)
                    else:
                        moved_writes.setdefault(owner, []).append(entry)
                        moved += 1
                shard.write_q = keep
            if shard.read_q:
                keep = deque()
                for entry in shard.read_q:
                    arrival_us, seq, req, keys, routes, fanout = entry
                    by_owner: dict[int, tuple[list[bytes], list[int]]] = {}
                    for key, route in zip(keys, routes):
                        part_keys, part_routes = by_owner.setdefault(
                            policy.owner(route), ([], [])
                        )
                        part_keys.append(key)
                        part_routes.append(route)
                    if set(by_owner) == {shard_id}:
                        keep.append(entry)
                        continue
                    # The sub-read splits: this shard keeps its
                    # still-owned keys (same seq); each other owner
                    # gets a fresh entry, and the fan-out gains one
                    # outstanding completion per extra part. (A point
                    # GET has one key: it moves whole, stamp included.)
                    if fanout is not None:
                        fanout.remaining += len(by_owner) - 1
                    for owner in sorted(by_owner):
                        part_keys, part_routes = by_owner[owner]
                        part = (tuple(part_keys), tuple(part_routes), fanout)
                        if owner == shard_id:
                            keep.append((arrival_us, seq, req, *part))
                        else:
                            moved_reads.setdefault(owner, []).append(
                                (
                                    arrival_us,
                                    seq if fanout is None else self._next_seq(),
                                    req,
                                    *part,
                                )
                            )
                            moved += 1
                shard.read_q = keep
        for dest, entries in sorted(moved_writes.items()):
            shard = shards[dest]
            shard.write_q = deque(
                sorted(list(shard.write_q) + entries, key=lambda e: e[:2])
            )
        for dest, entries in sorted(moved_reads.items()):
            shard = shards[dest]
            shard.read_q = deque(
                sorted(list(shard.read_q) + entries, key=lambda e: e[:2])
            )
        for dest in sorted(set(moved_writes) | set(moved_reads)):
            self._kick(shards[dest])
        return moved

    # -- failover ----------------------------------------------------------

    def _begin_failover(self, shard: _Shard, members: list) -> None:
        """The shard's leader died on an injected fault: cancel the
        in-flight write group (its stale ack events become no-ops),
        requeue the stranded work, and schedule the promotion at lease
        expiry on the virtual clock. Until then the shard queues
        requests but serves nothing."""
        group = shard.group
        assert group is not None
        crashed = group.leader
        crashed.alive = False
        pending = shard.pending
        cancelled = 0
        if pending is not None and not pending.done:
            pending.cancelled = True
            cancelled = 1
            # The pending members were popped before the current ones
            # (if any), so they come first in the requeue.
            members = pending.members + members
            shard.pending = None
        if members:
            # Unacked in-flight writes go back to the *front* of the
            # queue with their original (arrival, seq) stamps: they are
            # older than everything queued behind them, so FIFO order —
            # and with it per-key last-writer order — is preserved, and
            # they are served exactly once, by the promoted leader.
            shard.write_q.extendleft(reversed(members))
        shard.failing_over = True
        shard.busy = True
        lease_us = max(0.0, float(self.options.lease_timeout_ms)) * 1000.0
        self._emit_replica_crash(shard, crashed, "leader")
        if self.tracer is not None:
            self.tracer.emit(
                FailoverBegin(
                    shard=shard.index,
                    crashed_replica=crashed.replica_id,
                    lease_timeout_us=lease_us,
                    pending_cancelled=cancelled,
                    requeued=len(members),
                )
            )
        self._schedule(
            self._clock.now_us + lease_us,
            _FAILOVER,
            shard.index,
            (self._clock.now_us, crashed.replica_id),
        )

    def _finish_failover(self, shard: _Shard, info: tuple) -> None:
        """The lease expired: promote the freshest durable follower,
        repoint the shard at it, and drain the queued backlog."""
        begin_us, crashed_id = info
        group = shard.group
        assert group is not None
        cand = group.promotion_candidate()
        if cand is None:
            raise RoutingError(
                f"shard {shard.index} lost every replica; no failover target"
            )
        lag = max(0, shard.db.last_sequence - cand.db.durable_sequence)
        group.promote(cand)
        shard.env = cand.env
        shard.stats = cand.stats
        shard.db = cand.db
        shard.env.clock.advance_to(self._clock.now_us)
        shard.failing_over = False
        shard.busy = False
        self._failovers.append((shard.index, crashed_id, cand.replica_id))
        if self.tracer is not None:
            self.tracer.emit(
                ReplicaPromote(
                    shard=shard.index,
                    replica=cand.replica_id,
                    durable_seq=cand.db.durable_sequence,
                    lag_behind_leader=lag,
                )
            )
            self.tracer.emit(
                FailoverEnd(
                    shard=shard.index,
                    new_leader=cand.replica_id,
                    duration_us=self._clock.now_us - begin_us,
                    queued_writes=len(shard.write_q),
                    queued_reads=len(shard.read_q),
                )
            )
        # A ring swap during the lease window may have re-routed keys
        # the requeued members carry; re-validate before serving so the
        # serve-time route check never trips on them.
        self._revalidate_queues([shard.index])
        self._kick(shard)
        # A topology step deferred by this failover can go again.
        if self._topology_target is not None:
            self._advance_topology()

    def _emit_replica_crash(
        self, shard: _Shard, rep: Replica, role: str
    ) -> None:
        if self.tracer is None:
            return
        fs = getattr(rep.env, "fs", None)
        self.tracer.emit(
            ReplicaCrash(
                shard=shard.index,
                replica=rep.replica_id,
                role=role,
                durable_seq=(
                    rep.db.durable_sequence if rep.db is not None else 0
                ),
                op_index=int(getattr(fs, "op_index", 0)),
            )
        )

    # -- oracle ------------------------------------------------------------

    def verify_write_audit(self) -> list[str]:
        """Check every acked write against the live fleet: the shard
        the policy routes the key to must return the last acked value.
        Returns human-readable violations (empty = clean). Requires
        :attr:`write_audit` to have been set before the run; call from
        :attr:`on_complete` while shards are still open."""
        if self.write_audit is None:
            raise AuditUnavailableError("write_audit was not enabled for this run")
        if not self._shards:
            raise AuditUnavailableError("shards are closed; verify from on_complete")
        policy = self._policy
        failures: list[str] = []
        for key in sorted(self.write_audit):
            expected = self.write_audit[key]
            owner = policy.owner(policy.route(key))
            got = self._shards[owner].db.get(key)
            if got != expected:
                failures.append(
                    f"key {key!r}: shard {owner} returned "
                    f"{'missing' if got is None else len(got)} bytes, "
                    f"expected the last acked write ({len(expected)} bytes)"
                )
        return failures

    # -- results -----------------------------------------------------------

    def _collect(
        self, clients: list[SimClient], duration_s: float
    ) -> ServiceResult:
        shards = self._shards
        tickers: dict[str, int] = {}
        for shard in shards:
            for name, value in shard.stats.as_dict().items():
                tickers[name] = tickers.get(name, 0) + value
        reads_done = self._reads_done
        writes_done = self._writes_done
        groups = sum(s.groups for s in shards)
        grouped_writes = sum(s.grouped_writes for s in shards)
        wal_syncs = tickers[Ticker.WAL_SYNCS.value]
        aggregate = BenchResult.from_tickers(
            tickers,
            self._write_hist,
            self._read_hist,
            spec=self.spec,
            profile=self.profile,
            options=self.options.copy(),
            ops_done=reads_done + writes_done,
            reads_done=reads_done,
            writes_done=writes_done,
            duration_s=duration_s,
            aborted=self._aborted,
            level_shape="\n".join(
                f"shard {s.index}: {s.db.describe()}" for s in shards
            ),
            db_size_bytes=sum(s.db.approximate_size() for s in shards),
        )
        shard_stats = []
        for s in shards:
            shard_stats.append(
                ShardStats(
                    index=s.index,
                    requests=s.requests,
                    reads=s.reads,
                    writes=s.writes,
                    groups=s.groups,
                    grouped_writes=s.grouped_writes,
                    max_group=s.max_group,
                    wal_syncs=s.stats.ticker(Ticker.WAL_SYNCS),
                    db_size_bytes=s.db.approximate_size(),
                    write_summary=(
                        s.write_hist.summary() if s.write_hist.count else None
                    ),
                    read_summary=(
                        s.read_hist.summary() if s.read_hist.count else None
                    ),
                )
            )
            if self.tracer is not None:
                self.tracer.emit(
                    ShardSummary(
                        shard=s.index,
                        requests=s.requests,
                        reads=s.reads,
                        writes=s.writes,
                        groups=s.groups,
                        wal_syncs=shard_stats[-1].wal_syncs,
                        db_size_bytes=shard_stats[-1].db_size_bytes,
                    )
                )
        client_stats = [
            ClientStats(
                client=c.client_id,
                role=c.role,
                requests=c.num_requests,
                latency_summary=(
                    self._client_hist[c.client_id].summary()
                    if self._client_hist[c.client_id].count
                    else None
                ),
            )
            for c in clients
        ]
        if self.tracer is not None:
            self.tracer.emit(
                ServiceEnd(
                    ops_done=aggregate.ops_done,
                    reads_done=reads_done,
                    writes_done=writes_done,
                    duration_s=duration_s,
                    groups=groups,
                    grouped_writes=grouped_writes,
                    wal_syncs=wal_syncs,
                )
            )
        return ServiceResult(
            aggregate=aggregate,
            shards=shard_stats,
            clients=client_stats,
            groups=groups,
            grouped_writes=grouped_writes,
            wal_syncs=wal_syncs,
            requests_done=sum(s.requests for s in shards),
            reshards=list(self._reshards),
            failovers=list(self._failovers),
            follower_reads_served=sum(
                rep.reads_served
                for shard in shards
                if shard.group is not None
                for rep in shard.group.replicas
            ),
            replicas_per_shard=max(1, int(self.options.replicas_per_shard)),
        )


def run_service_benchmark(
    spec: WorkloadSpec,
    options: Options | None = None,
    profile: HardwareProfile | None = None,
    *,
    num_clients: int | None = None,
    client_ops_per_sec: float = DEFAULT_CLIENT_OPS_PER_SEC,
    byte_scale: float = 1.0,
    tracer: Tracer | None = None,
) -> ServiceResult:
    """Convenience wrapper: build a :class:`ShardedService`, run once."""
    service = ShardedService(
        spec,
        options,
        profile,
        num_clients=num_clients,
        client_ops_per_sec=client_ops_per_sec,
        byte_scale=byte_scale,
        tracer=tracer,
    )
    return service.run()
