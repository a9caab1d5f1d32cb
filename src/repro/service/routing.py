"""Pluggable routing policies: which shard(s) serve a user key.

Routing must be deterministic across processes and Python sessions —
``hash()`` is salted per interpreter, so every policy hashes raw key
bytes with FNV-1a (:func:`fnv1a_64`). Every lookup goes through one
policy object, so a layout change is made in one place:

* :class:`ModuloPolicy` — the original FNV-1a ``hash % shard_count``
  layout (:func:`shard_for_key`; the default).
* :class:`HashRingPolicy` — a consistent-hash ring with virtual nodes.
  Ring points are finalizer-mixed FNV-1a hashes (:func:`ring_hash`) of
  stable ``shard:<i>:vnode:<v>`` labels, so the ring is deterministic
  across processes. Ownership of
  arcs (not the points themselves) moves on split/merge, which bounds
  churn: a split hands half of the donor's arcs to the new shard and
  every other key stays put.

Routing is two steps. :meth:`RoutingPolicy.route` hashes a key into
its *route*, a function of the key alone; :meth:`RoutingPolicy.owner`
maps a route to a shard under the layout in force when asked. The
service hashes a request once, at enqueue, and carries the route, so
every later "which shard?" (the serve-time check, queue revalidation,
the migration journal) is one ``%`` or one bisect, never a rehash.

Policies are pure routing state — they never touch a DB. The service
owns data movement (snapshot drain, journal replay) and asks the policy
only *where* things live, via :meth:`RoutingPolicy.plan_split` /
:meth:`plan_merge` + :meth:`commit` two-phase plans.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import RoutingError
from repro.lsm.options import Options

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash (stable across processes, unlike hash())."""
    h = _FNV_OFFSET
    # The low 64 bits of a product depend only on the low 64 bits of its
    # factors, and the XOR touches only the low 8: one mask at the end
    # gives the same bits as a mask per byte.
    for byte in data:
        h = (h ^ byte) * _FNV_PRIME
    return h & _MASK64


def shard_for_key(key: bytes, num_shards: int) -> int:
    """Owning shard index for ``key`` in a ``num_shards``-way modulo
    layout. Every key maps to exactly one shard, so a point op touches
    one DB and the KV API never needs cross-shard coordination."""
    if num_shards <= 1:
        return 0
    return fnv1a_64(key) % num_shards


def ring_hash(data: bytes) -> int:
    """Position ``data`` on the ring: FNV-1a plus a 64-bit finalizer.

    Raw FNV-1a barely avalanches across near-identical short inputs —
    the ``shard:i:vnode:v`` labels hash to one tight cluster per shard,
    collapsing the ring to a handful of effective arcs. The
    MurmurHash3 fmix64 finalizer spreads them uniformly while staying
    seed-free and process-stable.
    """
    h = fnv1a_64(data)
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


# ------------------------------------------------------------- interface


class RoutingPolicy:
    """Where keys live. One instance routes every lookup in a service."""

    #: Catalog name of the policy (matches the ``routing_policy`` enum).
    name = "base"
    #: Whether :meth:`plan_split` / :meth:`plan_merge` are supported.
    supports_resharding = False

    def shard_ids(self) -> tuple[int, ...]:
        """Active shard ids, ascending."""
        raise NotImplementedError

    def route(self, key: bytes) -> int:
        """The route of ``key``: the one hash a request carries from
        enqueue to serve. Layout changes never change it."""
        raise NotImplementedError

    def owner(self, route: int) -> int:
        """The shard that owns ``route`` (from :meth:`route`) now."""
        raise NotImplementedError

    # -- resharding (ring policies only) ------------------------------------

    def arc_count(self, shard_id: int) -> int:
        return 0

    def plan_split(self, donor: int, recipient: int) -> "ReshardPlan":
        raise RoutingError(f"policy {self.name!r} cannot split shards")

    def plan_merge(self, victim: int) -> "ReshardPlan":
        raise RoutingError(f"policy {self.name!r} cannot merge shards")

    def commit(self, plan: "ReshardPlan") -> None:
        raise RoutingError(f"policy {self.name!r} cannot reshard")


# ---------------------------------------------------------------- modulo


class ModuloPolicy(RoutingPolicy):
    """The original static layout: FNV-1a over the key, mod N.

    Routing decisions are bit-identical to the pre-policy router, which
    keeps default-configuration traces byte-identical.
    """

    name = "modulo"

    def __init__(self, shard_count: int) -> None:
        self._count = max(1, int(shard_count))

    def shard_ids(self) -> tuple[int, ...]:
        return tuple(range(self._count))

    def route(self, key: bytes) -> int:
        # One shard needs no hash, as in shard_for_key.
        return fnv1a_64(key) if self._count > 1 else 0

    def owner(self, route: int) -> int:
        return route % self._count


# ------------------------------------------------------------------ ring


@dataclass(frozen=True)
class ReshardPlan:
    """A pending ownership handoff: arc index -> new owner.

    Produced by :meth:`HashRingPolicy.plan_split` / :meth:`plan_merge`;
    routing stays on the old layout until :meth:`HashRingPolicy.commit`
    applies the reassignment atomically. Between plan and commit the
    service drains the moving range and journals writes to it.
    """

    kind: str  # "split" | "merge"
    donor: int
    recipient: int
    reassign: dict[int, int]
    ring: "HashRingPolicy" = field(repr=False)

    @property
    def vnodes_moved(self) -> int:
        return len(self.reassign)

    def moves(self, route: int) -> bool:
        """Does ``route`` change owner when this plan commits?"""
        return self.ring._arc_index(route) in self.reassign

    def target(self, route: int) -> int:
        """Post-commit owner of ``route``."""
        arc = self.ring._arc_index(route)
        return self.reassign.get(arc, self.ring._owners[arc])


class HashRingPolicy(RoutingPolicy):
    """Consistent-hash ring with virtual nodes and live arc handoff.

    Each shard contributes ``virtual_nodes`` points at
    :func:`ring_hash` positions of stable labels; a key belongs to the
    first point at or clockwise
    after its own hash. Points never move — split/merge reassigns which
    shard *owns* an arc, so lookup stays one bisect and churn is exactly
    the reassigned arcs. Arc labels remember their original shard, so a
    merge returns arcs to the shard that split them off (LIFO undo)
    when it is still active.
    """

    name = "ring"
    supports_resharding = True

    def __init__(self, shard_ids: Sequence[int], virtual_nodes: int = 16) -> None:
        if not shard_ids:
            raise RoutingError("ring needs at least one shard")
        if virtual_nodes < 1:
            raise RoutingError("virtual_nodes must be positive")
        self.virtual_nodes = int(virtual_nodes)
        entries: list[tuple[int, int, int]] = []
        for sid in shard_ids:
            for v in range(self.virtual_nodes):
                label = b"shard:%d:vnode:%d" % (sid, v)
                entries.append((ring_hash(label), sid, v))
        # Sort by (hash, original shard, vnode): collisions (improbable)
        # resolve the same way every run.
        entries.sort()
        self._points: list[int] = [e[0] for e in entries]
        #: (original shard, vnode) creation label per arc — static.
        self._labels: list[tuple[int, int]] = [(e[1], e[2]) for e in entries]
        #: Current owner per arc — this is what split/merge rewrites.
        self._owners: list[int] = [e[1] for e in entries]
        self._active: list[int] = sorted(set(shard_ids))
        #: Bumped on every committed plan (for tests/diagnostics).
        self.version = 0

    # -- lookup --------------------------------------------------------------

    def _arc_index(self, route: int) -> int:
        idx = bisect_left(self._points, route)
        return 0 if idx == len(self._points) else idx

    def shard_ids(self) -> tuple[int, ...]:
        return tuple(self._active)

    def route(self, key: bytes) -> int:
        return ring_hash(key)

    def owner(self, route: int) -> int:
        return self._owners[self._arc_index(route)]

    def arc_count(self, shard_id: int) -> int:
        return self._owners.count(shard_id)

    # -- resharding ----------------------------------------------------------

    def plan_split(self, donor: int, recipient: int) -> ReshardPlan:
        if donor not in self._active:
            raise RoutingError(f"split donor {donor} is not an active shard")
        if recipient in self._active:
            raise RoutingError(f"split recipient {recipient} already active")
        donor_arcs = [i for i, o in enumerate(self._owners) if o == donor]
        if len(donor_arcs) < 2:
            raise RoutingError(
                f"shard {donor} owns {len(donor_arcs)} arc(s); splitting "
                "needs at least 2 (raise virtual_nodes)"
            )
        # Every other arc keeps interleaving, so both halves stay spread
        # around the ring instead of forming one contiguous range.
        moving = donor_arcs[1::2]
        return ReshardPlan(
            kind="split",
            donor=donor,
            recipient=recipient,
            reassign={i: recipient for i in moving},
            ring=self,
        )

    def plan_merge(self, victim: int) -> ReshardPlan:
        if victim not in self._active:
            raise RoutingError(f"merge victim {victim} is not an active shard")
        if len(self._active) < 2:
            raise RoutingError("cannot merge the last remaining shard")
        survivors = [s for s in self._active if s != victim]
        fallback = min(survivors)
        reassign: dict[int, int] = {}
        counts: dict[int, int] = {}
        for i, owned_by in enumerate(self._owners):
            if owned_by != victim:
                continue
            orig = self._labels[i][0]
            target = orig if (orig != victim and orig in self._active) else fallback
            reassign[i] = target
            counts[target] = counts.get(target, 0) + 1
        # Headline recipient = the survivor taking the most arcs.
        recipient = min(counts, key=lambda s: (-counts[s], s))
        return ReshardPlan(
            kind="merge",
            donor=victim,
            recipient=recipient,
            reassign=reassign,
            ring=self,
        )

    def commit(self, plan: ReshardPlan) -> None:
        if plan.ring is not self:
            raise RoutingError("plan belongs to a different ring")
        for arc, target in plan.reassign.items():
            self._owners[arc] = target
        if plan.kind == "split":
            self._active.append(plan.recipient)
            self._active.sort()
        else:
            self._active.remove(plan.donor)
        self.version += 1


# ---------------------------------------------------------------- factory


def make_policy(options: Options) -> RoutingPolicy:
    """Build the policy the options bag asks for."""
    shard_count = max(1, int(options.shard_count))
    policy_name = str(options.routing_policy)
    if policy_name == "modulo":
        return ModuloPolicy(shard_count)
    if policy_name == "ring":
        return HashRingPolicy(
            range(shard_count), virtual_nodes=int(options.virtual_nodes)
        )
    raise RoutingError(f"unknown routing policy {policy_name!r}")
