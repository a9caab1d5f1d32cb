"""Real wall-clock micro-benchmarks of the PyLSM engine primitives.

Unlike the paper-reproduction experiments (which report *virtual* time),
these measure actual Python execution speed of the hot paths, so
regressions in the engine implementation itself are visible.
"""

import random

import pytest

# The `benchmark` fixture comes from the pytest-benchmark plugin; on
# environments without it, skip this module instead of erroring.
pytest.importorskip("pytest_benchmark")

from repro.hardware import make_profile
from repro.lsm import DB, Options
from repro.lsm.bloom import BloomFilter


@pytest.fixture
def loaded_db():
    db = DB.open(
        "/bench-db",
        Options({"write_buffer_size": 64 * 1024,
                 "bloom_filter_bits_per_key": 10.0}),
        profile=make_profile(4, 8),
    )
    for i in range(5000):
        db.put(b"%08d" % i, b"v" * 100)
    db.flush()
    yield db
    db.close()


def test_put_throughput(benchmark):
    db = DB.open("/bench-put", Options({"write_buffer_size": 256 * 1024}),
                 profile=make_profile(4, 8))
    counter = [0]

    def put_one():
        counter[0] += 1
        db.put(b"%012d" % (counter[0] * 7919 % 100000), b"v" * 100)

    benchmark(put_one)
    db.close()


def test_get_hit_latency(benchmark, loaded_db):
    rng = random.Random(1)

    def get_one():
        return loaded_db.get(b"%08d" % rng.randrange(5000))

    value = benchmark(get_one)
    assert value is not None or True


def test_get_miss_latency_with_bloom(benchmark, loaded_db):
    rng = random.Random(2)

    def get_missing():
        return loaded_db.get(b"missing-%08d" % rng.randrange(10**6))

    assert benchmark(get_missing) is None


def test_bloom_probe(benchmark):
    bloom = BloomFilter(10, 10_000)
    for i in range(10_000):
        bloom.add(b"key-%d" % i)
    rng = random.Random(4)

    def probe():
        return bloom.may_contain(b"key-%d" % rng.randrange(20_000))

    benchmark(probe)


def test_scan_100(benchmark, loaded_db):
    rng = random.Random(5)

    def scan_window():
        start = b"%08d" % rng.randrange(4900)
        return loaded_db.scan(start=start, limit=100)

    rows = benchmark(scan_window)
    assert len(rows) == 100
