"""Key and value generation for benchmark workloads.

Keys follow ``db_bench``'s convention: fixed-width decimal strings over
a bounded key space. Distributions: uniform, zipfian (hot keys), and the
two-term power-law used by the mixgraph workload. Values are ~50%
compressible like ``db_bench``'s default ``compression_ratio=0.5``.

The value pool is a pure function of its seed, so it is drawn in bulk
from the same Mersenne stream a per-byte ``randrange`` would consume,
byte for byte, and the last few pools stay memoised
(docs/performance.md).
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import compress

from repro.errors import WorkloadError

KEY_WIDTH = 16

#: Mixgraph's hot region: its share of the key space, its share of the
#: accesses, and the power-law exponent of rank selection inside it.
_HOT_FRACTION = 0.01
_HOT_ACCESS_FRACTION = 0.85
_HOT_POWER = 1.2

#: Zipfian skew: YCSB's default constant.
_ZIPF_THETA = 0.99

#: Share of each value drawn at random (the rest is spaces): the
#: ~50% compressibility of db_bench's default ``compression_ratio``.
_RANDOM_SHARE = 0.5


@lru_cache(maxsize=1 << 16)
def _format_key_cached(index: int) -> bytes:
    return b"%0*d" % (KEY_WIDTH, index)


def format_key(index: int) -> bytes:
    """db_bench-style fixed-width key.

    Memoized: workloads re-visit the same indices constantly (zipfian hot
    keys, readrandom over a loaded space), so encoding is cached with a
    bound large enough to cover the scaled-down experiment key spaces.
    """
    if index < 0:
        raise WorkloadError("key index cannot be negative")
    return _format_key_cached(index)


class UniformKeys:
    """Uniformly random key indices in [0, num_keys)."""

    def __init__(self, num_keys: int, seed: int = 0) -> None:
        if num_keys <= 0:
            raise WorkloadError("key space must be positive")
        self.num_keys = num_keys
        self._rng = random.Random(seed)

    def next_index(self) -> int:
        return self._rng.randrange(self.num_keys)

    def next_key(self) -> bytes:
        return format_key(self.next_index())


class ZipfianKeys:
    """Zipfian-distributed key indices (YCSB-style rejection-free).

    Uses the Gray et al. analytic method: constant-time sampling without
    building a table, at YCSB's skew (theta 0.99).
    """

    def __init__(self, num_keys: int, seed: int = 0) -> None:
        if num_keys <= 0:
            raise WorkloadError("key space must be positive")
        theta = _ZIPF_THETA
        self.num_keys = num_keys
        self._rng = random.Random(seed)
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(num_keys, theta)
        self._zeta2 = self._zeta(2, theta)
        self._eta = (1 - (2.0 / num_keys) ** (1 - theta)) / (
            1 - self._zeta2 / self._zetan
        )
        # Scatter ranks over the key space so "hot" keys are not adjacent.
        self._scramble = 0x9E3779B9

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Exact for small n; integral approximation beyond the cutoff.
        cutoff = min(n, 10_000)
        s = sum(1.0 / (i**theta) for i in range(1, cutoff + 1))
        if n > cutoff:
            s += ((n ** (1 - theta)) - (cutoff ** (1 - theta))) / (1 - theta)
        return s

    def next_index(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5**_ZIPF_THETA:
            rank = 1
        else:
            rank = int(self.num_keys * ((self._eta * u - self._eta + 1) ** self._alpha))
            rank = min(rank, self.num_keys - 1)
        return (rank * self._scramble) % self.num_keys

    def next_key(self) -> bytes:
        return format_key(self.next_index())


class MixgraphKeys:
    """Two-region key model from the Facebook mixgraph characterization.

    A small hot range absorbs most accesses (power-law rank selection
    inside it); the rest of the space gets the long tail — matching the
    key-space locality ("keys close together are hot") that
    Cao et al. (FAST '20) report for production RocksDB workloads.
    """

    def __init__(self, num_keys: int, *, seed: int = 0) -> None:
        if num_keys <= 0:
            raise WorkloadError("key space must be positive")
        self.num_keys = num_keys
        self._hot_range = max(1, int(num_keys * _HOT_FRACTION))
        self._rng = random.Random(seed)

    def next_index(self) -> int:
        r = self._rng
        if r.random() < _HOT_ACCESS_FRACTION:
            # Power-law rank inside the hot region.
            u = r.random()
            rank = int(self._hot_range * (u**_HOT_POWER))
            return min(rank, self._hot_range - 1)
        return self._hot_range + r.randrange(max(1, self.num_keys - self._hot_range))

    def next_key(self) -> bytes:
        return format_key(self.next_index())


def make_generator(distribution: str, num_keys: int, seed: int = 0):
    """Factory over the three supported key distributions."""
    if distribution == "uniform":
        return UniformKeys(num_keys, seed)
    if distribution == "zipfian":
        return ZipfianKeys(num_keys, seed=seed)
    if distribution == "mixgraph":
        return MixgraphKeys(num_keys, seed=seed)
    raise WorkloadError(f"unknown key distribution {distribution!r}")


_POOL_SIZE = 64 * 1024
# Words drawn per getrandbits call: the bigint temporaries of one chunk
# stay under ~100 KiB instead of the ~3 MB of a single draw.
_POOL_LANES = 4096
_LANE_LOW9 = int.from_bytes(b"\xff\x01\x00\x00" * _POOL_LANES, "little")
_LANE_BIT8 = int.from_bytes(b"\x00\x01\x00\x00" * _POOL_LANES, "little")


@lru_cache(maxsize=16)
def _value_pool(seed: int) -> bytes:
    """``_POOL_SIZE`` draws of ``Random(seed).randrange(1 << 8)`` as
    bytes, without the Python-level loop.

    Each such draw is ``getrandbits(9)`` redrawn while the result is
    >= 256, and ``getrandbits(9)`` is the top 9 bits of one 32-bit
    Mersenne word; ``getrandbits(32 * n)`` lays the same n words out as
    little-endian lanes. So: shift every lane right by 23, keep its low
    9 bits, flip bit 8 (now 1 = accepted), and of each lane's four
    bytes take byte 0 wherever byte 1 is set. Memoised because a tuning
    session rebuilds the same pools on every iteration. The largest
    shipped run, 8 clients plus the preload, draws 9 pools in the same
    order every run, so a memo of fewer would evict each pool just
    before its next use: at most 16 immutable pools, 1 MiB.
    """
    rng = random.Random(seed)
    pool = bytearray()
    while len(pool) < _POOL_SIZE:
        lanes = (
            ((rng.getrandbits(32 * _POOL_LANES) >> 23) & _LANE_LOW9) ^ _LANE_BIT8
        ).to_bytes(4 * _POOL_LANES, "little")
        pool += bytes(compress(lanes[0::4], lanes[1::4]))
    return bytes(pool[:_POOL_SIZE])


class ValueGenerator:
    """~50% compressible values of fixed or Pareto-distributed size.

    A value's random part is a slice of a 64 KiB pool, so it must be
    shorter than the pool: half the largest size a generator can draw
    (``value_size``, 20x that under ``pareto_sizes``) has to stay below
    65,536, or construction raises
    :class:`~repro.errors.WorkloadError`.
    """

    def __init__(
        self,
        value_size: int,
        *,
        pareto_sizes: bool = False,
        seed: int = 0,
    ) -> None:
        if value_size <= 0:
            raise WorkloadError("value size must be positive")
        largest = value_size * 20 if pareto_sizes else value_size
        if int(largest * _RANDOM_SHARE) >= _POOL_SIZE:
            raise WorkloadError(
                f"value size {value_size} is too large: the random part of "
                f"a {largest}-byte value does not fit the {_POOL_SIZE}-byte pool"
            )
        self.value_size = value_size
        self._pareto = pareto_sizes
        self._rng = random.Random(seed)
        # Pre-built random pool sliced at random offsets: cheap per call.
        self._pool = _value_pool(seed ^ 0xABCDEF)

    def _size(self) -> int:
        if not self._pareto:
            return self.value_size
        # Pareto with the mean pinned at value_size (mixgraph's value
        # sizes are heavy-tailed).
        shape = 1.5
        scale = self.value_size * (shape - 1) / shape
        size = int(scale / (self._rng.random() ** (1.0 / shape)))
        return max(16, min(size, self.value_size * 20))

    def next_value(self) -> bytes:
        size = self._size()
        random_part = int(size * _RANDOM_SHARE)
        offset = self._rng.randrange(len(self._pool) - max(1, random_part))
        return self._pool[offset : offset + random_part] + b"\x20" * (
            size - random_part
        )
