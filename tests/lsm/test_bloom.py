"""Tests for the bloom filter: no false negatives, bounded false positives."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.bloom import BloomFilter, key_hashes


class TestBasics:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 100)
        with pytest.raises(ValueError):
            BloomFilter(10, 0)

    def test_probe_count_follows_bits_per_key(self):
        assert BloomFilter(10, 100).num_probes == 7
        assert BloomFilter(1, 100).num_probes == 1

    def test_no_false_negatives(self):
        bloom = BloomFilter(10, 1000)
        keys = [b"key-%d" % i for i in range(1000)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.may_contain(k) for k in keys)

    def test_false_positive_rate_near_theory(self):
        bloom = BloomFilter(10, 2000)
        for i in range(2000):
            bloom.add(b"present-%d" % i)
        false_positives = sum(
            bloom.may_contain(b"absent-%d" % i) for i in range(5000)
        )
        rate = false_positives / 5000
        # ~1% expected at 10 bits/key; allow generous slack.
        assert rate < 0.05

    def test_theoretical_fp_rate(self):
        bloom = BloomFilter(10, 1000)
        assert bloom.theoretical_fp_rate() == 0.0
        for i in range(1000):
            bloom.add(b"%d" % i)
        assert 0.0 < bloom.theoretical_fp_rate() < 0.05

    def test_fewer_bits_means_more_false_positives(self):
        low = BloomFilter(4, 1000)
        high = BloomFilter(16, 1000)
        for i in range(1000):
            low.add(b"%d" % i)
            high.add(b"%d" % i)
        low_fp = sum(low.may_contain(b"x%d" % i) for i in range(3000))
        high_fp = sum(high.may_contain(b"x%d" % i) for i in range(3000))
        assert high_fp < low_fp


def fnv1a_64(data: bytes, seed: int) -> int:
    """The reference: seeded FNV-1a, one byte and one lane at a time."""
    mask = (1 << 64) - 1
    h = (14695981039346656037 ^ (seed * 0x9E3779B97F4A7C15)) & mask
    for b in data:
        h ^= b
        h = (h * 1099511628211) & mask
    return h


class TestKeyHashes:
    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_one_pass_equals_two_seeded_passes(self, key):
        assert key_hashes(key) == (fnv1a_64(key, 1), fnv1a_64(key, 2) | 1)

    def test_hashed_probe_agrees_with_keyed_probe(self):
        bloom = BloomFilter(10, 200)
        for i in range(200):
            bloom.add(b"k%d" % i)
        for i in range(1000):
            probe = b"p%d" % i
            assert bloom.may_contain(probe) == bloom.may_contain_hashes(
                key_hashes(probe)
            )


#: From one probe (bits_per_key 1) to the clamp's 30 (43 * ln 2 > 29.5).
BITS_PER_KEY = [1, 2.5, 6.5, 10, 20, 43]


class TestAddRun:
    """``add_run`` resumes FNV-1a from the state shared with the
    previous key; per-key ``add`` is the reference it must equal."""

    @staticmethod
    def _filters(keys, bits_per_key=10):
        per_key = BloomFilter(bits_per_key, max(1, len(keys)))
        for key in keys:
            per_key.add(key)
        run = BloomFilter(bits_per_key, max(1, len(keys)))
        run.add_run(iter(keys))
        return per_key, run

    def test_run_equals_per_key_add_in_any_order(self):
        """Over bits_per_key 1 to 43, so probe counts 1 to 30."""
        rng = random.Random(5)
        edge = [b"", b"\x00", b"\x00\xff", b"\x00\xff\x00", b"a", b"a\x00", b"ab"]
        for trial in range(240):
            bits_per_key = BITS_PER_KEY[trial % len(BITS_PER_KEY)]
            # A small alphabet and short lengths force shared prefixes,
            # keys that are prefixes of one another, and NUL runs.
            keys = rng.sample(edge, rng.randrange(len(edge) + 1)) + [
                bytes(rng.choice(b"\x00\xffab") for _ in range(rng.randrange(1, 9)))
                for _ in range(rng.randrange(60))
            ]
            if trial % 5 == 0:  # dense fixed-width keys, as a table's are
                keys += [b"%016d" % rng.randrange(500) for _ in range(40)]
            shuffled = keys[:]
            rng.shuffle(shuffled)
            for order in (sorted(keys), sorted(keys, reverse=True), shuffled):
                per_key, run = self._filters(order, bits_per_key)
                assert run.to_bytes() == per_key.to_bytes()
                assert run.num_added == per_key.num_added == len(order)

    @pytest.mark.parametrize("bits_per_key", BITS_PER_KEY)
    def test_probe_counts_span_one_to_thirty(self, bits_per_key):
        """Every probe count the clamp allows, from 1 to 30, sets the
        bits per-key ``add`` sets, on a filter sized below and above the
        64-bit floor."""
        keys = sorted(b"user%012d" % (i * 7919) for i in range(300))
        for count in (3, len(keys)):
            per_key, run = self._filters(keys[:count], bits_per_key)
            assert 1 <= run.num_probes <= 30
            assert run.to_bytes() == per_key.to_bytes()
        assert BloomFilter(43, 1).num_probes == 30

    def test_add_then_add_run_on_one_filter(self):
        """A run ORs into the bits already set, never replaces them."""
        early = [b"early-%03d" % i for i in range(40)]
        late = sorted(b"late-%03d" % i for i in range(60))
        mixed = BloomFilter(10, 100)
        for key in early:
            mixed.add(key)
        mixed.add_run(late)
        reference = BloomFilter(10, 100)
        for key in early + late:
            reference.add(key)
        assert mixed.to_bytes() == reference.to_bytes()
        assert mixed.num_added == reference.num_added == 100

    def test_one_key_run_and_empty_run(self):
        per_key, run = self._filters([b"only"])
        assert run.to_bytes() == per_key.to_bytes() and run.num_added == 1
        empty = BloomFilter(10, 1)
        empty.add_run([])
        assert empty.to_bytes() == BloomFilter(10, 1).to_bytes()
        assert empty.num_added == 0

    def test_nothing_is_kept_between_runs(self):
        """Two runs on one filter == one run over both: the resumed
        state is local to the call."""
        a = [b"key-%04d" % i for i in range(0, 50)]
        b = [b"key-%04d" % i for i in range(50, 100)]
        split = BloomFilter(10, 100)
        split.add_run(a)
        split.add_run(b)
        whole = BloomFilter(10, 100)
        whole.add_run(a + b)
        assert split.to_bytes() == whole.to_bytes()


class TestSerialization:
    def test_round_trip_preserves_membership(self):
        bloom = BloomFilter(10, 500)
        keys = [b"k%d" % i for i in range(500)]
        for key in keys:
            bloom.add(key)
        restored = BloomFilter.from_bytes(bloom.to_bytes(), 10)
        assert all(restored.may_contain(k) for k in keys)

    def test_round_trip_preserves_negatives(self):
        bloom = BloomFilter(12, 300)
        for i in range(300):
            bloom.add(b"in-%d" % i)
        restored = BloomFilter.from_bytes(bloom.to_bytes(), 12)
        for i in range(2000):
            probe = b"out-%d" % i
            assert restored.may_contain(probe) == bloom.may_contain(probe)

    @pytest.mark.parametrize("bits_per_key, digest", [
        (10, "6cd4847e936e1872d8fa1de9ac42333af3b982af35c989f72a321db1e1f2e122"),
        (6.5, "bc7e9a7990d09bfac3c4e7d11f6aec17c04b7bd2b2bc0425670302f3ac6c93eb"),
    ])
    def test_filter_bytes_are_pinned(self, bits_per_key, digest):
        """The filter's bits decide false positives, hence which blocks
        a read touches, hence virtual time: a faster way to hash must
        yield these bytes (sha256 recorded at commit ce208f7, before
        the one-pass ``key_hashes``). Keys include the empty key, NUL
        bytes and unequal lengths."""
        keys = [
            b"", b"a", b"a\x00", b"a\x00b", b"\x00", b"\x00\x00\xff",
            b"key-%06d" % 7, b"x" * 100, bytes(range(256)),
        ] + [b"k%d" % (i * i) for i in range(200)]
        bloom = BloomFilter(bits_per_key, len(keys))
        for key in keys:
            bloom.add(key)
        assert hashlib.sha256(bloom.to_bytes()).hexdigest() == digest
        for order in (keys, sorted(keys)):
            run = BloomFilter(bits_per_key, len(keys))
            run.add_run(order)
            assert hashlib.sha256(run.to_bytes()).hexdigest() == digest

    def test_from_bytes_too_short(self):
        with pytest.raises(CorruptionError):
            BloomFilter.from_bytes(b"\x07", 10)

    @given(st.sets(st.binary(min_size=1, max_size=24), min_size=1, max_size=200))
    @settings(max_examples=30)
    def test_no_false_negatives_after_round_trip(self, keys):
        bloom = BloomFilter(10, len(keys))
        for key in keys:
            bloom.add(key)
        restored = BloomFilter.from_bytes(bloom.to_bytes(), 10)
        assert all(restored.may_contain(k) for k in keys)
