"""Property tests for the pluggable routing layer.

Covers the satellite checklist: the vnode ring is deterministic across
instances/processes, split/merge move keys only between donor and
recipient (bounded churn), the modulo policy is bit-identical to the
legacy router, and a 1-shard ring service matches the modulo service
op for op.
"""

import random
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


def owner_of(policy, key):
    """The shard ``policy`` maps ``key`` to: its owner of the key's route."""
    return policy.owner(policy.route(key))


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
        assert [owner_of(a, k) for k in KEYS] == [owner_of(b, k) for k in KEYS]

    def test_ring_hash_is_process_stable(self):
        # Pinned constants: any change to the ring's hash function
        # moves every key and must be a deliberate (versioned) choice.
        assert ring_hash(b"shard:0:vnode:0") == 0x584940B9D8DA706D
        assert ring_hash(format_key(0)) == 0xE84146BE4D55DDDF

    def test_vnodes_spread_the_key_space(self):
        ring = HashRingPolicy([0, 1], virtual_nodes=16)
        owners = [owner_of(ring, k) for k in KEYS]
        share = owners.count(0) / len(owners)
        # Raw FNV-1a over the short labels clustered each shard's
        # points into one arc (94/6 splits); the finalizer keeps the
        # spread sane.
        assert 0.3 < share < 0.7
        hit_arcs = {ring._arc_index(ring.route(k)) for k in KEYS}
        assert len(hit_arcs) == len(ring._points)


class TestSplitMergeChurn:
    def test_split_moves_keys_only_donor_to_recipient(self):
        ring = HashRingPolicy([0, 1], virtual_nodes=16)
        before = {k: owner_of(ring, k) for k in KEYS}
        plan = ring.plan_split(1, 2)
        # Routing is unchanged until commit (two-phase).
        assert {k: owner_of(ring, k) for k in KEYS} == before
        ring.commit(plan)
        after = {k: owner_of(ring, k) for k in KEYS}
        moved = {k for k in KEYS if before[k] != after[k]}
        assert moved, "split moved nothing"
        for k in moved:
            assert before[k] == 1 and after[k] == 2
        assert all(plan.moves(ring.route(k)) == (k in moved) for k in KEYS)
        # Churn bound: a split hands over every other donor arc, so at
        # most the donor's keys move — shard 0's keys never do — and
        # the moved share of donor keys is near half, never all.
        donor_keys = sum(1 for k in KEYS if before[k] == 1)
        assert len(moved) < donor_keys

    def test_merge_returns_arcs_to_original_owners(self):
        ring = HashRingPolicy([0, 1], virtual_nodes=16)
        original = {k: owner_of(ring, k) for k in KEYS}
        ring.commit(ring.plan_split(1, 2))
        plan = ring.plan_merge(2)
        ring.commit(plan)
        # LIFO undo: every arc carries its creation label, so the merge
        # restores exactly the pre-split layout.
        assert {k: owner_of(ring, k) for k in KEYS} == original
        assert ring.shard_ids() == (0, 1)

    def test_merge_of_original_shard_falls_back_to_min_survivor(self):
        ring = HashRingPolicy([0, 1], virtual_nodes=8)
        plan = ring.plan_merge(1)
        ring.commit(plan)
        assert ring.shard_ids() == (0,)
        assert all(owner_of(ring, k) == 0 for k in KEYS)

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

    def test_one_late_mask_equals_a_mask_per_byte(self):
        """The hash masks once at the end; at every length that must
        give the textbook per-byte-masked bits."""

        def per_byte(data):
            h = 0xCBF29CE484222325
            for byte in data:
                h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
            return h

        rng = random.Random(7)
        for n in (*range(0, 80), 129, 1000):
            data = bytes(rng.randrange(256) for _ in range(n))
            assert fnv1a_64(data) == per_byte(data), n


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
                assert owner_of(policy, k) == shard_for_key(k, n)

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
    @pytest.mark.parametrize("policy_name", ["modulo", "ring"])
    def test_desynced_policy_raises_instead_of_serving(self, policy_name):
        """If the layout changes under queued requests without a
        migration, the serve path must raise — never silently serve
        from (or write to) the wrong shard. The flip goes through
        ``owner(route)``: queued entries keep the routes they were
        enqueued with, and the serve-time check maps them again under
        the new layout."""
        options = Options({"shard_count": 2, "routing_policy": policy_name})
        flipped = make_policy(options)
        layout = flipped.owner
        flipped.owner = lambda route: 1 - layout(route)

        # A saturating arrival rate keeps the shard queues non-empty,
        # so the swap is guaranteed to strand queued entries.
        service = ShardedService(
            _spec(),
            options,
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
                svc._policy = flipped

        service.on_progress = hook
        with pytest.raises(MisroutedRequestError) as err:
            service.run()
        assert sabotaged
        assert "routing policy maps it to shard" in str(err.value)
        assert err.value.owner == 1 - err.value.shard


class TestOneHashPerRequest:
    """A served point request is hashed once, at enqueue: the serve-time
    check, queue revalidation and the journal reuse the carried route."""

    @pytest.mark.parametrize(
        "overrides, hashes_per_request",
        [
            ({"shard_count": 4}, 1),
            ({"shard_count": 4, "routing_policy": "ring"}, 1),
            ({"shard_count": 1}, 0),
        ],
        ids=["modulo-4", "ring-4", "modulo-1"],
    )
    def test_fnv1a_calls_per_request(
        self, monkeypatch, overrides, hashes_per_request
    ):
        import repro.service.routing as routing

        calls = [0]
        real = routing.fnv1a_64

        def counted(data):
            calls[0] += 1
            return real(data)

        monkeypatch.setattr(routing, "fnv1a_64", counted)
        # Point requests only, and a request count that is a multiple of
        # the progress window: the last progress event fires once every
        # request has been enqueued and served.
        spec = _spec()
        assert spec.num_ops % ShardedService.PROGRESS_EVERY == 0
        service = ShardedService(spec, Options(overrides))
        marks = []
        service.on_serving_start = lambda svc: marks.append((0, calls[0]))
        service.on_progress = lambda svc, event: marks.append(
            (event.ops_done, calls[0])
        )
        service.run()
        (_, first), (ops_done, last) = marks[0], marks[-1]
        assert ops_done == spec.num_ops
        assert last - first == hashes_per_request * spec.num_ops
