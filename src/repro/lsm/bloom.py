"""Bloom filter (RocksDB full-filter style).

Double hashing over two 64-bit seeds approximates k independent hash
functions; the probe count is derived from bits-per-key as in RocksDB
(``k = bits_per_key * ln 2``).

The seeds depend on the key alone, never on the filter, so a lookup
computes them once (:func:`key_hashes`) and hands the pair to every
filter it meets — memtable bloom, then one SSTable filter per table
probed. The hash is FNV-1a and stays FNV-1a: its bits decide the false
positives, those decide which blocks a read touches, and that is
virtual time.

A table's keys arrive sorted, and FNV-1a is a left fold, so
:meth:`BloomFilter.add_run` resumes each key's hash from the state it
shares with the previous key — the same hash, fewer steps
(docs/performance.md).
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import CorruptionError

_MASK64 = (1 << 64) - 1
_FNV_PRIME = 1099511628211

# Both seeded FNV-1a lanes run in one integer, 128 bits apart: XOR with
# a byte touches only each lane's low 8 bits, and a 64-bit lane times
# the 41-bit prime stays below 2**105, so the lanes cannot meet before
# the mask cuts both back to 64 bits. One pass, half the bigint steps
# of hashing the key twice, the same two values bit for bit.
_LANE = 128
_LANES_MASK = _MASK64 | (_MASK64 << _LANE)
_LANES_SEED = (
    (14695981039346656037 ^ (1 * 0x9E3779B97F4A7C15)) & _MASK64
) | (((14695981039346656037 ^ (2 * 0x9E3779B97F4A7C15)) & _MASK64) << _LANE)
_LANES_BYTE = [b | (b << _LANE) for b in range(256)]

#: ``bytes.translate`` table turning a 0/1 byte map into ASCII digits.
_FLAG_DIGITS = bytes(range(48, 50)) + bytes(254)


def key_hashes(key: bytes) -> tuple[int, int]:
    """The ``(h1, h2)`` double-hashing pair of ``key``.

    ``h1`` and ``h2`` are FNV-1a over ``key`` from the offset basis
    folded with seed 1 and seed 2; ``h2`` is forced odd so stepping by
    it has full period.
    """
    h = _LANES_SEED
    lanes_byte = _LANES_BYTE
    for b in key:
        h = ((h ^ lanes_byte[b]) * _FNV_PRIME) & _LANES_MASK
    return h & _MASK64, (h >> _LANE) | 1


class BloomFilter:
    """A fixed-size bloom filter built for an expected key count."""

    def __init__(self, bits_per_key: float, expected_keys: int) -> None:
        if bits_per_key <= 0:
            raise ValueError("bits_per_key must be positive")
        if expected_keys <= 0:
            raise ValueError("expected_keys must be positive")
        self.bits_per_key = float(bits_per_key)
        nbits = max(64, int(expected_keys * bits_per_key))
        nbits = (nbits + 7) & ~7  # byte multiple: round-trips to_bytes()
        self._nbits = nbits
        self._bits = bytearray((nbits + 7) // 8)
        self._num_probes = max(1, min(30, int(round(bits_per_key * math.log(2)))))

    def add(self, key: bytes) -> None:
        self._set_probes(*key_hashes(key))

    def add_run(self, keys: Iterable[bytes]) -> None:
        """:meth:`add` every key of ``keys``, hashing each from where
        it parts with the one before.

        ``states[i]`` is the two-lane FNV-1a state after ``i`` bytes of
        the previous key; a key that shares its first ``shared`` bytes
        with it resumes from ``states[shared]``. A table builder's
        ascending fixed-width keys hash in 2-3 steps instead of 16; any
        other order is only slower, never different. The state is
        O(key length) and dies with the call.

        Probes land in a byte-per-bit map, one store each, and the map
        is packed into bits and ORed into the filter once per call.
        """
        lanes_byte = _LANES_BYTE
        from_bytes = int.from_bytes
        nbits = self._nbits
        probes = range(self._num_probes)
        flags = bytearray(nbits)
        states = [_LANES_SEED]
        push = states.append
        prev = b""
        added = 0
        for key in keys:
            n = len(prev)
            if len(key) == n:
                diff = from_bytes(key, "big") ^ from_bytes(prev, "big")
            else:
                if len(key) < n:
                    n = len(key)
                diff = from_bytes(key[:n], "big") ^ from_bytes(prev[:n], "big")
            shared = n - ((diff.bit_length() + 7) >> 3)
            del states[shared + 1:]
            h = states[shared]
            for b in key[shared:]:
                h = ((h ^ lanes_byte[b]) * _FNV_PRIME) & _LANES_MASK
                push(h)
            prev = key
            added += 1
            # The probes of _set_probes: ((h1 + i*h2) mod 2**64) mod nbits.
            step = (h >> _LANE) | 1
            h &= _MASK64
            for _ in probes:
                flags[h % nbits] = 1
                h = (h + step) & _MASK64
        if added:
            # Bit i of the filter is flags[i]: as a binary numeral with
            # flags[0] last, the map is the filter's little-endian value.
            nbytes = len(self._bits)
            run = int(flags.translate(_FLAG_DIGITS)[::-1], 2)
            self._bits = bytearray(
                (from_bytes(self._bits, "little") | run).to_bytes(nbytes, "little")
            )

    def _set_probes(self, h: int, step: int) -> None:
        bits = self._bits
        nbits = self._nbits
        for _ in range(self._num_probes):
            # Probe i is ((h1 + i*h2) mod 2**64) mod nbits.
            bit = (h & _MASK64) % nbits
            bits[bit >> 3] |= 1 << (bit & 7)
            h += step

    def may_contain(self, key: bytes) -> bool:
        return self.may_contain_hashes(key_hashes(key))

    def may_contain_hashes(self, hashes: tuple[int, int]) -> bool:
        """:meth:`may_contain` for a key whose hashes are in hand."""
        h, step = hashes
        bits = self._bits
        nbits = self._nbits
        for _ in range(self._num_probes):
            bit = (h & _MASK64) % nbits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            h += step
        return True

    def to_bytes(self) -> bytes:
        """Serialize (probe count + bit array) for embedding in an SST."""
        return bytes([self._num_probes]) + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes, bits_per_key: float) -> "BloomFilter":
        if len(data) < 2:
            raise CorruptionError("bloom payload too short")
        obj = cls.__new__(cls)
        obj.bits_per_key = bits_per_key
        obj._num_probes = data[0]
        obj._bits = bytearray(data[1:])
        obj._nbits = len(obj._bits) * 8
        return obj
