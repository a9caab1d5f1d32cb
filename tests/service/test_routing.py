"""Property tests for the pluggable routing layer.

Covers the satellite checklist: the vnode ring is deterministic across
instances/processes, split/merge move keys only between donor and
recipient (bounded churn), the modulo policy is bit-identical to the
legacy router, and a 1-shard ring service matches the modulo service
op for op.
"""

from collections import Counter

import pytest

from repro.bench.keygen import format_key
from repro.bench.spec import WorkloadSpec
from repro.errors import MisroutedRequestError, RoutingError
from repro.lsm.options import Options
from repro.service.routing import (
    HashRingPolicy,
    ModuloPolicy,
    fnv1a_64,
    make_policy,
    ring_hash,
    shard_for_key,
)
from repro.service.service import ShardedService

KEYS = [format_key(i) for i in range(5000)]


def _spec(num_ops=6000, **overrides):
    base = dict(
        name="routingtest",
        num_ops=num_ops,
        num_keys=2000,
        preload_keys=500,
        read_fraction=0.5,
        distribution="uniform",
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestRingDeterminism:
    def test_ring_identical_across_instances(self):
        a = HashRingPolicy([0, 1, 2], virtual_nodes=16)
        b = HashRingPolicy([0, 1, 2], virtual_nodes=16)
        assert a._points == b._points
        assert a._owners == b._owners
        assert a._labels == b._labels
        assert [a.owner(k) for k in KEYS] == [b.owner(k) for k in KEYS]

    def test_ring_hash_is_process_stable(self):
        # Pinned constants: any change to the ring's hash function
        # moves every key and must be a deliberate (versioned) choice.
        assert ring_hash(b"shard:0:vnode:0") == 0x584940B9D8DA706D
        assert ring_hash(format_key(0)) == 0xE84146BE4D55DDDF

    def test_vnodes_spread_the_key_space(self):
        ring = HashRingPolicy([0, 1], virtual_nodes=16)
        owners = [ring.owner(k) for k in KEYS]
        share = owners.count(0) / len(owners)
        # Raw FNV-1a over the short labels clustered each shard's
        # points into one arc (94/6 splits); the finalizer keeps the
        # spread sane.
        assert 0.3 < share < 0.7
        hit_arcs = {ring._arc_index(k) for k in KEYS}
        assert len(hit_arcs) == len(ring._points)


class TestSplitMergeChurn:
    def test_split_moves_keys_only_donor_to_recipient(self):
        ring = HashRingPolicy([0, 1], virtual_nodes=16)
        before = {k: ring.owner(k) for k in KEYS}
        plan = ring.plan_split(1, 2)
        # Routing is unchanged until commit (two-phase).
        assert {k: ring.owner(k) for k in KEYS} == before
        ring.commit(plan)
        after = {k: ring.owner(k) for k in KEYS}
        moved = {k for k in KEYS if before[k] != after[k]}
        assert moved, "split moved nothing"
        for k in moved:
            assert before[k] == 1 and after[k] == 2
        assert all(plan.moves(k) == (k in moved) for k in KEYS)
        # Churn bound: a split hands over every other donor arc, so at
        # most the donor's keys move — shard 0's keys never do — and
        # the moved share of donor keys is near half, never all.
        donor_keys = sum(1 for k in KEYS if before[k] == 1)
        assert len(moved) < donor_keys

    def test_merge_returns_arcs_to_original_owners(self):
        ring = HashRingPolicy([0, 1], virtual_nodes=16)
        original = {k: ring.owner(k) for k in KEYS}
        ring.commit(ring.plan_split(1, 2))
        plan = ring.plan_merge(2)
        ring.commit(plan)
        # LIFO undo: every arc carries its creation label, so the merge
        # restores exactly the pre-split layout.
        assert {k: ring.owner(k) for k in KEYS} == original
        assert ring.shard_ids() == (0, 1)

    def test_merge_of_original_shard_falls_back_to_min_survivor(self):
        ring = HashRingPolicy([0, 1], virtual_nodes=8)
        plan = ring.plan_merge(1)
        ring.commit(plan)
        assert ring.shard_ids() == (0,)
        assert all(ring.owner(k) == 0 for k in KEYS)

    def test_split_requires_two_arcs(self):
        ring = HashRingPolicy([0], virtual_nodes=1)
        with pytest.raises(RoutingError):
            ring.plan_split(0, 1)

    def test_merge_requires_a_survivor(self):
        ring = HashRingPolicy([0], virtual_nodes=4)
        with pytest.raises(RoutingError):
            ring.plan_merge(0)


class TestFnv1a:
    def test_known_vectors(self):
        # Canonical FNV-1a 64-bit test vectors.
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_stable_across_calls(self):
        key = format_key(12345)
        assert fnv1a_64(key) == fnv1a_64(bytes(key))


class TestShardForKey:
    def test_single_shard_short_circuits(self):
        assert shard_for_key(b"anything", 1) == 0
        assert shard_for_key(b"anything", 0) == 0

    def test_in_range(self):
        for i in range(200):
            assert 0 <= shard_for_key(format_key(i), 7) < 7

    def test_reasonably_balanced(self):
        shards = 4
        counts = Counter(
            shard_for_key(format_key(i), shards) for i in range(4000)
        )
        assert len(counts) == shards
        for n in counts.values():
            assert 700 <= n <= 1300  # ~1000 each, generous band

    def test_routing_is_a_function_of_the_key(self):
        # The whole point of FNV over hash(): two computations of the
        # same key must agree (hash() is salted per process).
        for i in range(50):
            key = format_key(i)
            assert shard_for_key(key, 5) == shard_for_key(key[:], 5)


class TestModuloPolicy:
    def test_matches_legacy_router_bit_for_bit(self):
        for n in (1, 2, 3, 8):
            policy = ModuloPolicy(n)
            assert policy.shard_ids() == tuple(range(n))
            for k in KEYS[:500]:
                assert policy.owner(k) == shard_for_key(k, n)

    def test_modulo_cannot_reshard(self):
        policy = ModuloPolicy(2)
        assert not policy.supports_resharding
        with pytest.raises(RoutingError):
            policy.plan_split(0, 2)


class TestFactory:
    def test_factory_builds_each_policy(self):
        assert isinstance(make_policy(Options()), ModuloPolicy)
        ring = make_policy(
            Options({"routing_policy": "ring", "shard_count": 3})
        )
        assert isinstance(ring, HashRingPolicy)
        assert ring.shard_ids() == (0, 1, 2)


class TestServiceParity:
    def test_one_shard_ring_matches_modulo_op_for_op(self):
        """A 1-shard ring routes everything to shard 0, exactly like
        1-shard modulo — the whole run must be virtually identical."""

        def run(policy_name):
            options = Options(
                {"shard_count": 1, "routing_policy": policy_name}
            )
            result = ShardedService(_spec(), options).run()
            result.wall_clock_s = 0.0
            return result

        ring, modulo = run("ring"), run("modulo")
        assert ring.aggregate.ops_done == modulo.aggregate.ops_done
        assert ring.aggregate.duration_s == modulo.aggregate.duration_s
        assert ring.aggregate.tickers == modulo.aggregate.tickers
        assert ring.aggregate.write_summary == modulo.aggregate.write_summary
        assert ring.aggregate.read_summary == modulo.aggregate.read_summary
        assert [s.requests for s in ring.shards] == [
            s.requests for s in modulo.shards
        ]


class TestMisrouteDetection:
    def test_desynced_policy_raises_instead_of_serving(self):
        """If the layout changes under queued requests without a
        migration, the serve path must raise — never silently serve
        from (or write to) the wrong shard."""
        class _Flipped(ModuloPolicy):
            def owner(self, key):
                return 1 - super().owner(key)

        # A saturating arrival rate keeps the shard queues non-empty,
        # so the swap is guaranteed to strand queued entries.
        service = ShardedService(
            _spec(),
            Options({"shard_count": 2}),
            num_clients=4,
            client_ops_per_sec=500_000.0,
        )
        sabotaged = []

        def hook(svc, event):
            if not sabotaged and any(
                s.write_q or s.read_q for s in svc._shards
            ):
                sabotaged.append(event.ops_done)
                # Swap in a policy with the inverted layout, bypassing
                # the migration machinery: every queued entry is now on
                # the wrong shard.
                svc._policy = _Flipped(2)

        service.on_progress = hook
        with pytest.raises(MisroutedRequestError) as err:
            service.run()
        assert sabotaged
        assert "routing policy maps it to shard" in str(err.value)
        assert err.value.owner == 1 - err.value.shard
