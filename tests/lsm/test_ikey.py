"""Tests for internal-key encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm import ikey


class TestEncodeDecode:
    def test_round_trip(self):
        internal = ikey.encode(b"user", 42)
        assert ikey.decode(internal) == (b"user", 42)
        assert ikey.user_key_of(internal) == b"user"

    def test_seq_bounds(self):
        ikey.encode(b"k", 0)
        ikey.encode(b"k", ikey.MAX_SEQUENCE)
        with pytest.raises(ValueError):
            ikey.encode(b"k", -1)
        with pytest.raises(ValueError):
            ikey.encode(b"k", ikey.MAX_SEQUENCE + 1)

    def test_decode_too_short(self):
        with pytest.raises(CorruptionError):
            ikey.decode(b"short")

    def test_decode_missing_terminator(self):
        damaged = bytearray(ikey.encode(b"user", 42))
        damaged[-9] = 0x01  # the terminator's second byte
        with pytest.raises(CorruptionError):
            ikey.decode(bytes(damaged))

    def test_newer_versions_sort_first(self):
        old = ikey.encode(b"k", 5)
        new = ikey.encode(b"k", 9)
        assert new < old

    def test_user_key_order_dominates(self):
        a_new = ikey.encode(b"a", 100)
        b_old = ikey.encode(b"b", 1)
        assert a_new < b_old

    def test_seek_key_sees_everything_at_or_below(self):
        seek = ikey.seek_key(b"k", 10)
        visible = ikey.encode(b"k", 10)
        newer = ikey.encode(b"k", 11)
        assert seek <= visible
        assert newer < seek

    @given(st.binary(min_size=1, max_size=24),
           st.integers(0, ikey.MAX_SEQUENCE))
    @settings(max_examples=60)
    def test_round_trip_property(self, user_key, seq):
        assert ikey.decode(ikey.encode(user_key, seq)) == (user_key, seq)

    @given(st.binary(min_size=1, max_size=12),
           st.integers(0, 1 << 40), st.integers(0, 1 << 40))
    @settings(max_examples=60)
    def test_same_key_orders_by_descending_seq(self, key, s1, s2):
        if s1 == s2:
            return
        lo, hi = sorted((s1, s2))
        assert ikey.encode(key, hi) < ikey.encode(key, lo)

    @given(st.binary(min_size=1, max_size=12),
           st.binary(min_size=1, max_size=12),
           st.integers(0, 1 << 30), st.integers(0, 1 << 30))
    @settings(max_examples=120)
    def test_distinct_keys_order_by_user_key(self, k1, k2, s1, s2):
        """Byte order of encodings == user-key order, for ALL byte
        strings — including NULs and prefix pairs (the escape exists
        precisely for those)."""
        if k1 == k2:
            return
        assert (ikey.encode(k1, s1) < ikey.encode(k2, s2)) == (k1 < k2)

    def test_nul_after_shared_prefix_regression(self):
        # b"a" < b"a\x00\x01" must hold for the encodings too; a naive
        # single-byte separator breaks this against the seq bytes.
        assert ikey.encode(b"a", 5) < ikey.encode(b"a\x00\x01", 5)
        assert ikey.encode(b"a", 0) < ikey.encode(b"a\x00", 1 << 30)

    @given(st.binary(max_size=8), st.binary(max_size=8),
           st.integers(0, ikey.MAX_SEQUENCE))
    @settings(max_examples=60)
    def test_nul_keys_round_trip(self, prefix, suffix, seq):
        key = prefix + b"\x00" + suffix  # always contains a NUL
        assert ikey.decode(ikey.encode(key, seq)) == (key, seq)
