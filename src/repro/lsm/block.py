"""Data/index block encoding.

Blocks use LevelDB/RocksDB's layout: prefix-compressed entries with
restart points every ``block_restart_interval`` keys, a restart-offset
array trailer, an optional compression envelope, and a crc32 checksum.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left

from repro.errors import CorruptionError

_U32 = struct.Struct("<I")

#: codec byte values in the block envelope
_CODECS = {"none": 0, "snappy": 1, "lz4": 2, "zlib": 3, "zstd": 4}
_CODEC_NAMES = {v: k for k, v in _CODECS.items()}

#: zlib effort standing in for each codec (snappy/lz4 are fast+light,
#: zstd is slower+denser). The *relative* size/CPU trade-off is what the
#: tuner needs to observe.
_CODEC_ZLIB_LEVEL = {"snappy": 1, "lz4": 1, "zlib": 6, "zstd": 9}


def _put_varint(buf: bytearray, value: int) -> None:
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _get_varint(data: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    result = 0
    while True:
        if pos >= len(data):
            raise CorruptionError("truncated varint in block")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptionError("varint too long in block")


class BlockBuilder:
    """Accumulates sorted (key, value) pairs into one block payload."""

    def __init__(self, restart_interval: int = 16) -> None:
        if restart_interval < 1:
            raise ValueError("restart interval must be >= 1")
        self._restart_interval = restart_interval
        self._buf = bytearray()
        self._restarts: list[int] = [0]
        self._counter = 0
        self._last_key = b""
        self._num_entries = 0

    @property
    def num_entries(self) -> int:
        return self._num_entries

    def size_estimate(self) -> int:
        return len(self._buf) + 4 * len(self._restarts) + 4

    def empty(self) -> bool:
        return self._num_entries == 0

    def add(self, key: bytes, value: bytes) -> int:
        """Append one entry; returns the updated size estimate."""
        last = self._last_key
        if self._num_entries and key <= last:
            raise CorruptionError(
                "block keys must be added in strictly increasing order"
            )
        buf = self._buf
        key_len = len(key)
        if self._counter < self._restart_interval:
            # Shared-prefix length via one XOR: the first differing byte
            # is the highest set byte of key^last over the common span —
            # three C calls instead of a per-byte (or per-probe) Python
            # loop. This is the busiest spot in table building.
            n = len(last)
            if key_len == n:
                diff = int.from_bytes(key, "big") ^ int.from_bytes(last, "big")
            else:
                if key_len < n:
                    n = key_len
                diff = (
                    int.from_bytes(key[:n], "big")
                    ^ int.from_bytes(last[:n], "big")
                )
            shared = n if diff == 0 else n - ((diff.bit_length() + 7) >> 3)
        else:
            self._restarts.append(len(buf))
            self._counter = 0
            shared = 0
        non_shared = key_len - shared
        value_len = len(value)
        # Single-byte varint fast path: block-sized keys/values are
        # almost always under 128 bytes.
        if shared < 0x80 and non_shared < 0x80 and value_len < 0x80:
            buf.append(shared)
            buf.append(non_shared)
            buf.append(value_len)
        else:
            _put_varint(buf, shared)
            _put_varint(buf, non_shared)
            _put_varint(buf, value_len)
        buf += key[shared:]
        buf += value
        self._last_key = key
        self._counter += 1
        self._num_entries += 1
        return len(buf) + 4 * len(self._restarts) + 4

    def finish(self) -> bytes:
        out = bytearray(self._buf)
        for restart in self._restarts:
            out.extend(_U32.pack(restart))
        out.extend(_U32.pack(len(self._restarts)))
        return bytes(out)


def decode_block(payload: bytes) -> list[tuple[bytes, bytes]]:
    """Decode a finished block payload back into (key, value) pairs."""
    if len(payload) < 4:
        raise CorruptionError("block too short")
    num_restarts = _U32.unpack_from(payload, len(payload) - 4)[0]
    data_end = len(payload) - 4 - 4 * num_restarts
    if data_end < 0:
        raise CorruptionError("block restart array overruns payload")
    entries: list[tuple[bytes, bytes]] = []
    append = entries.append
    pos = 0
    last_key = b""
    # The three length varints are read as one 3-byte slice: shared and
    # non-shared lengths are one byte each in any block-sized entry, the
    # value length one or two (values under 16 KiB). Anything longer
    # takes the general varint path. The slice never runs short: the
    # restart count alone puts 4 bytes after the data region, and a
    # header that reaches into them fails the overrun check below.
    # Compaction decodes every entry of every input through here.
    try:
        while pos < data_end:
            shared, non_shared, value_len = payload[pos : pos + 3]
            if (shared | non_shared) & 0x80:
                shared, pos = _get_varint(payload, pos)
                non_shared, pos = _get_varint(payload, pos)
                value_len, pos = _get_varint(payload, pos)
            elif value_len & 0x80:
                high = payload[pos + 3]
                if high & 0x80:
                    value_len, pos = _get_varint(payload, pos + 2)
                else:
                    value_len = (value_len & 0x7F) | (high << 7)
                    pos += 4
            else:
                pos += 3
            if shared > len(last_key) or pos + non_shared + value_len > data_end:
                raise CorruptionError("block entry overruns payload")
            key = last_key[:shared] + payload[pos : pos + non_shared]
            pos += non_shared
            value = payload[pos : pos + value_len]
            pos += value_len
            append((key, value))
            last_key = key
    except IndexError:
        raise CorruptionError("truncated varint in block") from None
    return entries


def compress_block(payload: bytes, codec: str) -> bytes:
    """Wrap a block payload in a (codec, checksum) envelope."""
    if codec not in _CODECS:
        raise ValueError(f"unknown codec {codec!r}")
    if codec == "none":
        body = payload
    else:
        body = zlib.compress(payload, _CODEC_ZLIB_LEVEL[codec])
        if len(body) >= len(payload):
            codec = "none"
            body = payload
    crc = zlib.crc32(body)
    return bytes([_CODECS[codec]]) + _U32.pack(crc) + body


def decompress_block(envelope: bytes, *, verify_checksum: bool = True) -> bytes:
    """Unwrap a block envelope; raises :class:`CorruptionError` on damage."""
    if len(envelope) < 5:
        raise CorruptionError("block envelope too short")
    codec_byte = envelope[0]
    if codec_byte not in _CODEC_NAMES:
        raise CorruptionError(f"unknown codec byte {codec_byte}")
    stored_crc = _U32.unpack_from(envelope, 1)[0]
    body = envelope[5:]
    if verify_checksum and zlib.crc32(body) != stored_crc:
        raise CorruptionError("block checksum mismatch")
    if _CODEC_NAMES[codec_byte] == "none":
        return body
    try:
        return zlib.decompress(body)
    except zlib.error as exc:
        raise CorruptionError(f"block decompression failed: {exc}") from exc


def block_entries_seek(entries: list[tuple[bytes, bytes]], key: bytes) -> int:
    """Index of the first entry with entry_key >= key (len(entries) when
    there is none). Entry keys are unique, and a 1-tuple sorts just
    before any pair sharing its key, so the pairs bisect as they are."""
    return bisect_left(entries, (key,))
