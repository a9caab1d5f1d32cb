"""Tests for key/value generators."""

import hashlib
import random
import zlib
from collections import Counter

import pytest

from repro.bench.keygen import (
    MixgraphKeys,
    UniformKeys,
    ValueGenerator,
    ZipfianKeys,
    format_key,
    make_generator,
)
from repro.bench.spec import WorkloadSpec
from repro.errors import WorkloadError


class TestFormatKey:
    def test_fixed_width(self):
        assert format_key(0) == b"0000000000000000"
        assert format_key(123) == b"0000000000000123"
        assert len(format_key(10**15)) == 16

    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            format_key(-1)

    def test_sort_order_matches_numeric(self):
        keys = [format_key(i) for i in (5, 50, 500)]
        assert keys == sorted(keys)


class TestUniform:
    def test_in_range_and_deterministic(self):
        a = UniformKeys(1000, seed=3)
        b = UniformKeys(1000, seed=3)
        seq_a = [a.next_index() for _ in range(100)]
        seq_b = [b.next_index() for _ in range(100)]
        assert seq_a == seq_b
        assert all(0 <= i < 1000 for i in seq_a)

    def test_roughly_uniform(self):
        gen = UniformKeys(10, seed=1)
        counts = Counter(gen.next_index() for _ in range(10_000))
        assert max(counts.values()) < 2 * min(counts.values())

    def test_invalid_space(self):
        with pytest.raises(WorkloadError):
            UniformKeys(0)


class TestZipfian:
    def test_skew_concentrates_mass(self):
        gen = ZipfianKeys(10_000, seed=5)
        counts = Counter(gen.next_index() for _ in range(20_000))
        top = sum(n for _, n in counts.most_common(100))
        assert top > 20_000 * 0.3  # 1% of keys get >30% of accesses

    def test_in_range(self):
        gen = ZipfianKeys(50, seed=2)
        assert all(0 <= gen.next_index() < 50 for _ in range(2000))

    def test_deterministic(self):
        a, b = ZipfianKeys(100, seed=9), ZipfianKeys(100, seed=9)
        assert [a.next_index() for _ in range(1000)] == [
            b.next_index() for _ in range(1000)
        ]


class TestMixgraph:
    def test_hot_region_dominates(self):
        # 1% of the keys take 85% of the accesses.
        gen = MixgraphKeys(10_000, seed=4)
        hits = [gen.next_index() for _ in range(20_000)]
        hot = sum(1 for i in hits if i < 100)
        assert 0.80 <= hot / len(hits) <= 0.90

    def test_tail_covers_cold_region(self):
        gen = MixgraphKeys(10_000, seed=4)
        assert any(gen.next_index() >= 100 for _ in range(1000))

    def test_deterministic(self):
        a, b = MixgraphKeys(10_000, seed=9), MixgraphKeys(10_000, seed=9)
        assert [a.next_index() for _ in range(1000)] == [
            b.next_index() for _ in range(1000)
        ]

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            MixgraphKeys(0)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("uniform", UniformKeys),
        ("zipfian", ZipfianKeys),
        ("mixgraph", MixgraphKeys),
    ])
    def test_known(self, name, cls):
        assert isinstance(make_generator(name, 100, 1), cls)

    def test_unknown(self):
        with pytest.raises(WorkloadError):
            make_generator("gaussian", 100)

    def test_next_key_is_formatted(self):
        gen = make_generator("uniform", 100, 1)
        assert len(gen.next_key()) == 16


class TestValues:
    def test_fixed_size(self):
        gen = ValueGenerator(100, seed=1)
        assert all(len(gen.next_value()) == 100 for _ in range(50))

    def test_half_compressible(self):
        gen = ValueGenerator(4096, seed=1)
        value = gen.next_value()
        compressed = zlib.compress(value, 1)
        assert 0.3 < len(compressed) / len(value) < 0.8

    def test_pareto_sizes_heavy_tailed(self):
        gen = ValueGenerator(100, pareto_sizes=True, seed=1)
        sizes = [len(gen.next_value()) for _ in range(3000)]
        assert min(sizes) >= 16
        assert max(sizes) > 300  # tail beyond the mean
        assert max(sizes) <= 2000

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            ValueGenerator(0)

    def test_value_too_large_for_the_pool_is_rejected_at_construction(self):
        """Was a bare ``ValueError: empty range for randrange()`` from
        ``next_value`` — on the first call here, on the 347th for
        ``ValueGenerator(8192, pareto_sizes=True, seed=3)``, i.e. inside
        a preload that had already written."""
        with pytest.raises(WorkloadError):
            ValueGenerator(200_000).next_value()
        with pytest.raises(WorkloadError):
            gen = ValueGenerator(8192, pareto_sizes=True, seed=3)
            for _ in range(347):
                gen.next_value()

    def test_largest_value_that_fits_still_works(self):
        gen = ValueGenerator(131_071, seed=1)  # random half: 65,535
        assert len(gen.next_value()) == 131_071
        with pytest.raises(WorkloadError):
            ValueGenerator(131_072).next_value()
        ValueGenerator(6553, pareto_sizes=True)  # 20x, halved: 65,530
        with pytest.raises(WorkloadError):
            ValueGenerator(6554, pareto_sizes=True)

    def test_spec_rejects_non_positive_value_size(self):
        for value_size in (0, -1):
            with pytest.raises(WorkloadError):
                WorkloadSpec(
                    name="fillrandom", num_ops=10, num_keys=10,
                    preload_keys=0, read_fraction=0.0,
                    distribution="uniform", value_size=value_size,
                )


def _per_byte_pool(seed: int) -> bytes:
    """The reference: what ``ValueGenerator`` ran up to commit 4159a23."""
    rng = random.Random(seed ^ 0xABCDEF)
    return bytes(rng.randrange(256) for _ in range(64 * 1024))


def _sha256(chunks) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()


class TestValuePool:
    """The pool is drawn in bulk and memoised; neither may move a byte
    of it, or of any value cut from it (values are virtual time: their
    sizes and compressibility decide flushes and block counts)."""

    # seed -> sha256 of (pool, 1,000 fixed values, 1,000 Pareto values),
    # recorded at commit 4159a23 from the per-byte ``randrange(256)``
    # pool; 42 ^ 0x5EED is the preload stream's seed at the default 42.
    PINS = {
        0: (
            "780b342de3abd7398add49da614506b2f06f5722b45971c6e2e88d453de76488",
            "20a67b855c18336b9c278e36344fe095e77d860a2c6d1e1a6b021e5f8ff211a6",
            "3809166ab4174cb02858dc6bf35ac5df0e460ac22b1158eb42453220ed995051",
        ),
        1: (
            "62400d8f23a76aed57c3f192be72867846d0903ac8634088c3290bf1b4d65987",
            "0efdc1c73c81c76ba5d1508767f91e84a4cefd0956575c07f083e589942f45ef",
            "c7d4df20915d1fad4b976f566fbd7fcc92ed9385a49f9d18745812f843ffd47f",
        ),
        42: (
            "ca650d6f0594e8c36b2683ccf44c94ce26f59226e1312c1abcd8b35ced61cb33",
            "5e3f033652e5db82e1642381e361075d321aaa02ccefd73107e143663b4f38f8",
            "618c21e053f834bf0c5de0bc130a3cf38f6277001504a4ad1beba6ac29534ecd",
        ),
        42 ^ 0x5EED: (
            "b943f9f845a32ea81a5c528aa4420cc717d975a1d76bdba517aaf86eaaa3e737",
            "28e5f62dfc0e64bfb8bfccd6475ca0b7200d0f99891c81b91c39a4c32d36cade",
            "edbb0877605dcf21bef0c1efc6a2b83785f1ac9cf1cb4eb30c25ee727f7d3db1",
        ),
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_pool_and_values_are_pinned(self, seed):
        pool, fixed, pareto = self.PINS[seed]
        gen = ValueGenerator(100, seed=seed)
        assert _sha256([gen._pool]) == pool
        assert _sha256(gen.next_value() for _ in range(1000)) == fixed
        gen = ValueGenerator(100, pareto_sizes=True, seed=seed)
        assert _sha256(gen.next_value() for _ in range(1000)) == pareto

    def test_bulk_draw_equals_per_byte_reference(self):
        seeds = random.Random(23)
        for _ in range(20):
            seed = seeds.getrandbits(seeds.choice((8, 32, 64)))
            assert ValueGenerator(100, seed=seed)._pool == _per_byte_pool(seed)

    def test_pool_is_shared_and_the_memo_is_bounded(self):
        first = ValueGenerator(100, seed=7000)
        assert ValueGenerator(999, pareto_sizes=True, seed=7000)._pool is first._pool
        for seed in range(7001, 7009):  # eight more distinct pools
            ValueGenerator(100, seed=seed)
        rebuilt = ValueGenerator(100, seed=7000)._pool
        assert rebuilt is not first._pool
        assert rebuilt == first._pool
