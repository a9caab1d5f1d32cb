"""Tests for block encode/decode, compression envelope, and seek."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.block import (
    BlockBuilder,
    block_entries_seek,
    compress_block,
    decode_block,
    decompress_block,
)


def build(pairs, restart_interval=16):
    builder = BlockBuilder(restart_interval)
    for key, value in pairs:
        builder.add(key, value)
    return builder.finish()


class TestBlockBuilder:
    def test_round_trip(self):
        pairs = [(b"apple", b"1"), (b"banana", b"2"), (b"cherry", b"3")]
        assert decode_block(build(pairs)) == pairs

    def test_empty_block(self):
        assert decode_block(BlockBuilder().finish()) == []

    def test_rejects_out_of_order(self):
        builder = BlockBuilder()
        builder.add(b"b", b"")
        with pytest.raises(CorruptionError):
            builder.add(b"a", b"")

    def test_rejects_duplicates(self):
        builder = BlockBuilder()
        builder.add(b"a", b"")
        with pytest.raises(CorruptionError):
            builder.add(b"a", b"")

    def test_prefix_compression_shrinks_shared_keys(self):
        shared = [(b"user:%08d" % i, b"v") for i in range(100)]
        unshared = [(bytes([65 + i % 26]) * 12, b"v") for i in range(100)]
        # Same total key bytes, but shared prefixes compress better.
        assert len(build(sorted(shared))) < sum(len(k) + 2 for k, _ in shared)

    def test_restart_interval_one_disables_sharing(self):
        pairs = [(b"prefix-a", b""), (b"prefix-b", b"")]
        with_sharing = build(pairs, restart_interval=16)
        without = build(pairs, restart_interval=1)
        assert len(without) >= len(with_sharing)

    def test_invalid_restart_interval(self):
        with pytest.raises(ValueError):
            BlockBuilder(0)

    def test_size_estimate_grows(self):
        builder = BlockBuilder()
        before = builder.size_estimate()
        builder.add(b"key", b"value")
        assert builder.size_estimate() > before

    @given(st.dictionaries(st.binary(min_size=1, max_size=32),
                           st.binary(max_size=64), max_size=100))
    @settings(max_examples=50)
    def test_round_trip_property(self, mapping):
        pairs = sorted(mapping.items())
        assert decode_block(build(pairs)) == pairs

    @pytest.mark.parametrize("restart_interval", [1, 16])
    def test_round_trip_across_varint_widths(self, restart_interval):
        """Lengths either side of each varint width: one-byte (127),
        two-byte (128, 16,383) and three-byte (16,384) values, and keys
        long enough that the shared and non-shared lengths need two."""
        pairs = [
            (b"k" * 200 + b"%03d" % i, bytes([i]) * n)
            for i, n in enumerate([0, 1, 127, 128, 129, 16383, 16384, 20000])
        ] + [(b"z%03d" % i, b"v" * (i * 37 % 300)) for i in range(40)]
        assert decode_block(build(pairs, restart_interval)) == pairs


class TestDecodeCorruption:
    def test_truncated_block(self):
        with pytest.raises(CorruptionError):
            decode_block(b"\x01")

    def test_garbage_restart_count(self):
        payload = build([(b"a", b"b")])
        bad = payload[:-4] + (10**6).to_bytes(4, "little")
        with pytest.raises(CorruptionError):
            decode_block(bad)

    @pytest.mark.parametrize("high", [0x00, 0x81])
    def test_value_length_cut_by_the_data_region_end(self, high):
        """An entry header ending in the first byte of a two-byte (or
        longer) value length, with the data region ending right there:
        the length's next byte is the restart array's, and the entry
        overruns instead of decoding."""
        header = bytes([0, 1, 0x81])
        restarts = (0).to_bytes(4, "little") + (1).to_bytes(4, "little")
        payload = header + bytes([high]) + restarts[1:]
        assert len(payload) - 8 == len(header)  # data region is the header
        with pytest.raises(CorruptionError):
            decode_block(payload)


class TestCompressionEnvelope:
    @pytest.mark.parametrize("codec", ["none", "snappy", "lz4", "zlib", "zstd"])
    def test_round_trip(self, codec):
        payload = build([(b"key-%04d" % i, b"value" * 10) for i in range(50)])
        envelope = compress_block(payload, codec)
        assert decompress_block(envelope) == payload

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            compress_block(b"data", "brotli")

    def test_compressible_data_shrinks(self):
        payload = build([(b"key-%04d" % i, b"a" * 100) for i in range(50)])
        assert len(compress_block(payload, "zstd")) < len(payload)

    def test_incompressible_falls_back_to_none(self):
        import os

        payload = os.urandom(64)
        envelope = compress_block(payload, "zstd")
        assert envelope[0] == 0  # codec byte for "none"
        assert decompress_block(envelope) == payload

    def test_checksum_detects_corruption(self):
        envelope = bytearray(compress_block(b"payload data here", "none"))
        envelope[-1] ^= 0xFF
        with pytest.raises(CorruptionError):
            decompress_block(bytes(envelope))

    def test_checksum_can_be_skipped(self):
        envelope = bytearray(compress_block(b"payload data here", "none"))
        envelope[-1] ^= 0xFF
        out = decompress_block(bytes(envelope), verify_checksum=False)
        assert out != b"payload data here"  # garbage, but no raise

    def test_envelope_too_short(self):
        with pytest.raises(CorruptionError):
            decompress_block(b"\x00\x00")


class TestSeek:
    def test_seek_finds_lower_bound(self):
        entries = [(b"b", b""), (b"d", b""), (b"f", b"")]
        assert block_entries_seek(entries, b"a") == 0
        assert block_entries_seek(entries, b"c") == 1
        assert block_entries_seek(entries, b"b") == 0
        assert block_entries_seek(entries, b"g") == 3
