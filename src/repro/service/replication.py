"""Replica groups: leader/follower WAL shipping on the virtual clock.

Each shard of a :class:`~repro.service.service.ShardedService` can run
as a *replica group*: one leader plus ``replicas_per_shard - 1``
followers, each an independent :class:`~repro.lsm.db.DB` with its own
:class:`~repro.lsm.env.Env` (filesystem + clock), exactly like shards
themselves. The service serves every request on the leader; committed
write groups are *shipped* to the followers, which apply them in leader
order and force a WAL sync before acking — a follower ack is therefore
a durability promise, and promotion from the freshest durable follower
can never lose a service-acked write.

Timing model
------------
Shipping is modeled as heap events on the service's virtual clock, not
host threads. When the leader finishes a write group at ``t``:

* each live follower receives the records at ``t + REPLICATION_HOP_US``
  (one network hop), applies them on its own clock (the engine charges
  the usual write + forced-sync latency), and its ack lands back on the
  leader one hop after the apply finishes;
* the service acks the group when the leader's WAL sync plus
  ``replication_quorum - 1`` follower acks (capped at the live follower
  count) have *popped* as events — the shard stays busy until then, so
  quorum writes genuinely pay the round trip in client latency.

Failover
--------
A leader crash (a :class:`~repro.errors.SimulatedCrash` from an
injected fault) makes the shard unavailable until the leader lease
expires on the virtual clock (``lease_timeout_ms``); the service then
promotes the live follower with the highest durable sequence via
:meth:`~repro.lsm.db.DB.crash_and_reopen` — recovery from its durable
watermark — and repoints the shard at it. Because every follower ack
covered a WAL sync, the promoted leader's recovered state contains
every write the service ever acked.

Follower reads
--------------
With ``follower_reads`` on, a single-key GET may be served by a live
follower whose applied sequence trails the leader by at most
:data:`FOLLOWER_MAX_LAG` — a bounded-staleness check — freeing the
leader immediately for the next write group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NoLiveReplicaError, SimulatedCrash
from repro.hardware.profile import HardwareProfile
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.options import Options
from repro.lsm.statistics import Statistics
from repro.lsm.write_batch import WriteBatch

#: One-way network hop between group members, in virtual microseconds.
#: Intra-rack latency scale: shipping a group costs two hops (send +
#: ack) on top of the follower's own apply + forced-sync time.
REPLICATION_HOP_US = 150.0

#: Bounded staleness for follower reads: a follower may serve a GET only
#: while its applied sequence trails the leader's by at most this many
#: writes. With synchronous host-side applies the lag is normally 0;
#: the bound exists so a follower that fell behind (crash, recovery)
#: is never eligible.
FOLLOWER_MAX_LAG = 64


@dataclass
class Replica:
    """One member of a replica group: an independent DB + env + stats."""

    replica_id: int
    env: Env
    stats: Statistics
    #: None only for a member that died during provisioning (its open
    #: crashed on an injected fault): there is no engine to point at.
    db: DB | None
    #: False once this member died on an injected fault; dead replicas
    #: never receive ships, serve reads, or stand for promotion.
    alive: bool = True
    #: Highest sequence this member has applied *and made durable*
    #: (every ship is followed by a forced WAL sync before the ack).
    acked_seq: int = 0
    #: Follower reads served by this member (load-balance tiebreaker).
    reads_served: int = 0


@dataclass
class PendingCommit:
    """A write group waiting on its replication quorum.

    Created when the leader finishes a replicated group; resolved when
    ``acks_needed`` follower-ack events have popped (the shard stays
    busy in between). ``cancelled`` is flipped by a leader crash so
    stale ack events still sitting in the heap become no-ops.
    """

    #: The drained queue entries: (arrival_us, seq, Request, route).
    members: list
    group_start_us: float
    acks_needed: int
    received: int = 0
    done: bool = False
    cancelled: bool = False
    #: Virtual time of the commit event (the last ack the group waits
    #: on) — a deferred ring swap fences itself until this instant.
    resolve_us: float = 0.0


class ReplicaGroup:
    """The replicas of one shard, leader first.

    The group owns replica lifecycle (open/close/promote) and the pure
    mechanics of shipping and staleness checks; event scheduling, trace
    emission, and queue handling stay in the service, which is the only
    place with a heap and a tracer.
    """

    def __init__(self, shard_index: int, replicas: list[Replica]) -> None:
        live = [rep for rep in replicas if rep.alive]
        if not live:
            raise NoLiveReplicaError(
                f"replica group for shard {shard_index} has no live member"
            )
        self.shard_index = shard_index
        self.replicas = replicas
        # Normally replica 0; a member that died during provisioning
        # cedes the initial lease to the first live one.
        self.leader_id = live[0].replica_id

    # -- membership --------------------------------------------------------

    @property
    def leader(self) -> Replica:
        for rep in self.replicas:
            if rep.replica_id == self.leader_id:
                return rep
        raise NoLiveReplicaError(f"leader r{self.leader_id} left the group")

    def followers(self) -> list[Replica]:
        """Live members other than the leader, in replica-id order."""
        return [
            rep
            for rep in self.replicas
            if rep.alive and rep.replica_id != self.leader_id
        ]

    def live_replicas(self) -> list[Replica]:
        """Live members, leader first then followers by id — the apply
        order for internal (already-acked) installs."""
        leader = self.leader
        out = [leader] if leader.alive else []
        out.extend(self.followers())
        return out

    def acks_needed(self, quorum: int) -> int:
        """Follower acks a write must wait for under ``quorum``: the
        leader's own WAL sync is the first vote, and the requirement is
        capped at the live follower count so a shrunken group can still
        commit (RocksDB-style leader-lease writes, not strict Paxos)."""
        return max(0, min(quorum - 1, len(self.followers())))

    # -- shipping ----------------------------------------------------------

    def ship(
        self, entries: list[tuple[bytes, bytes]], ship_us: float
    ) -> list[tuple[Replica, float | None]]:
        """Apply one committed write group to every live follower.

        Each follower's clock jumps to ``ship_us`` + one hop, the apply
        runs on its own engine (WAL append + forced sync, so the ack is
        a durability promise), and the returned ack lands one hop after
        the apply finishes. A follower that dies mid-apply (injected
        crash) is marked dead and reported with a ``None`` ack time.
        """
        acks: list[tuple[Replica, float | None]] = []
        for rep in self.followers():
            rep.env.clock.advance_to(ship_us + REPLICATION_HOP_US)
            try:
                apply_entries(rep.db, entries)
                rep.db.sync_wal()
            except SimulatedCrash:
                rep.alive = False
                acks.append((rep, None))
                continue
            rep.acked_seq = rep.db.last_sequence
            acks.append((rep, rep.env.clock.now_us + REPLICATION_HOP_US))
        return acks

    # -- follower reads ----------------------------------------------------

    def follower_for_read(self, leader_seq: int) -> Replica | None:
        """A live follower inside the staleness bound, or None.

        Eligible followers must trail ``leader_seq`` (the leader's last
        assigned sequence) by at most :data:`FOLLOWER_MAX_LAG` applied
        writes; among them the least-loaded (fewest reads served, then
        lowest id) wins, so read traffic spreads deterministically.
        """
        best: Replica | None = None
        for rep in self.followers():
            if leader_seq - rep.acked_seq > FOLLOWER_MAX_LAG:
                continue
            if best is None or (rep.reads_served, rep.replica_id) < (
                best.reads_served,
                best.replica_id,
            ):
                best = rep
        return best

    # -- failover ----------------------------------------------------------

    def promotion_candidate(self) -> Replica | None:
        """The live follower with the highest durable sequence (lowest
        id on ties) — the member whose recovered state supersedes every
        other survivor's. None if the whole group is gone."""
        best: Replica | None = None
        for rep in self.followers():
            if best is None or (
                rep.db.durable_sequence,
                -rep.replica_id,
            ) > (best.db.durable_sequence, -best.replica_id):
                best = rep
        return best

    def promote(self, rep: Replica) -> Replica:
        """Make ``rep`` the leader, recovering it from its durable
        watermark first (crash-and-reopen over its own filesystem): the
        new leader starts from exactly the state it had promised
        durable, which contains every service-acked write."""
        rep.db = rep.db.crash_and_reopen()
        rep.acked_seq = rep.db.last_sequence
        self.leader_id = rep.replica_id
        return rep

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close every live member, swallowing the injected-crash error
        a dead member's filesystem raises from cleanup paths."""
        for rep in self.replicas:
            try:
                if rep.db is not None and not rep.db.closed:
                    rep.db.close()
            except SimulatedCrash:
                rep.alive = False


def apply_entries(db: DB, entries: list[tuple[bytes, bytes]]) -> None:
    """Apply (key, value) puts the way the service does everywhere:
    a single put stays a put, larger groups go through one WriteBatch."""
    if len(entries) == 1:
        db.put(entries[0][0], entries[0][1])
    else:
        batch = WriteBatch()
        for key, value in entries:
            batch.put(key, value)
        db.write(batch)


def open_group(
    shard_index: int,
    base_path: str,
    options: Options,
    profile: HardwareProfile,
    byte_scale: float,
    *,
    replicas: int,
    env_factory=None,
) -> ReplicaGroup:
    """Open a full replica group for one shard.

    Replica ``r`` lives at ``{base_path}/shard-NN/r{r}`` with its own
    env/stats; replica 0 is the initial leader. ``env_factory`` (a
    ``(shard_index, replica_id) -> Env`` callable) lets the chaos
    harness back members with fault-injecting filesystems.
    """
    members: list[Replica] = []
    for r in range(replicas):
        env = env_factory(shard_index, r) if env_factory is not None else Env()
        stats = Statistics()
        try:
            db = DB.open(
                f"{base_path}/shard-{shard_index:02d}/r{r}",
                options,
                env=env,
                profile=profile,
                statistics=stats,
                byte_scale=byte_scale,
            )
        except SimulatedCrash:
            # Dead on arrival (a chaos schedule killed the member while
            # it was provisioning): the group starts degraded rather
            # than failing the whole shard open.
            members.append(
                Replica(replica_id=r, env=env, stats=stats, db=None, alive=False)
            )
            continue
        members.append(Replica(replica_id=r, env=env, stats=stats, db=db))
    return ReplicaGroup(shard_index, members)
