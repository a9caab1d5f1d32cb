"""Write-ahead log.

Record format per entry::

    crc32(u32) | payload_len(u32) | payload

where payload is ``seq(u64) | kind(u8) | klen(u32) | key | vlen(u32) | value``.
Replay stops at the first damaged or truncated record (torn tail after a
crash), which is exactly LevelDB's recovery contract.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

from repro.errors import CorruptionError
from repro.lsm.env import MemFileSystem, WritableFile
from repro.lsm.memtable import ValueKind

_HEADER = struct.Struct("<II")
_PAYLOAD_FIXED = struct.Struct("<QBI")
_U32 = struct.Struct("<I")
_crc32 = zlib.crc32


class WalWriter:
    """Appends records to one WAL file.

    WAL paths come from the engine's monotonic file-number counter, so a
    new log must never collide with an existing file; creation goes
    through ``fs.create`` to fail loudly (instead of silently appending
    new records after a stale generation's) if that invariant breaks.
    """

    def __init__(self, fs: MemFileSystem, path: str) -> None:
        self._file: WritableFile = fs.create(path)
        self.path = path
        # Bound method, not a raw buffer: fault-injection filesystems
        # wrap files to track appends, and that must keep working.
        self._append = self._file.append

    def add_record(self, seq: int, kind: ValueKind, key: bytes, value: bytes) -> int:
        """Append one record; returns bytes written."""
        payload = (
            _PAYLOAD_FIXED.pack(seq, kind, len(key))
            + key
            + _U32.pack(len(value))
            + value
        )
        return self._append(
            _HEADER.pack(_crc32(payload), len(payload)) + payload
        )

    def add_records(
        self, records: list[tuple[int, ValueKind, bytes, bytes]]
    ) -> int:
        """Append a write group's records with one write; returns bytes.

        The whole group is packed into one buffer (struct packers bound,
        one CRC per record — the on-disk bytes are identical to N
        ``add_record`` calls) and lands in a single append. ``DB._write``
        calls it for a batch; a single op encodes its record inline.
        """
        buf = bytearray()
        extend = buf.extend
        pack_header = _HEADER.pack
        pack_fixed = _PAYLOAD_FIXED.pack
        pack_u32 = _U32.pack
        crc32 = _crc32
        for seq, kind, key, value in records:
            payload = (
                pack_fixed(seq, kind, len(key)) + key + pack_u32(len(value)) + value
            )
            extend(pack_header(crc32(payload), len(payload)))
            extend(payload)
        return self._append(bytes(buf))

    def sync(self) -> int:
        """Durability barrier; returns newly synced bytes."""
        return self._file.sync()

    def unsynced_bytes(self) -> int:
        return self._file.unsynced_bytes()

    def size(self) -> int:
        return self._file.size()

    def close(self) -> None:
        self._file.close()


def replay_wal(
    fs: MemFileSystem, path: str, *, strict: bool = False
) -> Iterator[tuple[int, ValueKind, bytes, bytes]]:
    """Yield (seq, kind, key, value) for every intact record.

    A torn/corrupt tail ends replay silently (normal crash recovery); with
    ``strict`` it raises :class:`CorruptionError` instead.
    """
    data = fs.read_all(path)
    pos = 0
    size = len(data)
    while pos < size:
        if pos + _HEADER.size > size:
            if strict:
                raise CorruptionError(f"truncated WAL header in {path}")
            return
        crc, length = _HEADER.unpack_from(data, pos)
        payload_start = pos + _HEADER.size
        payload_end = payload_start + length
        if payload_end > size:
            if strict:
                raise CorruptionError(f"truncated WAL payload in {path}")
            return
        payload = data[payload_start:payload_end]
        if zlib.crc32(payload) != crc:
            if strict:
                raise CorruptionError(f"WAL checksum mismatch in {path} @ {pos}")
            return
        seq, kind_byte, klen = _PAYLOAD_FIXED.unpack_from(payload, 0)
        cursor = _PAYLOAD_FIXED.size
        key = payload[cursor : cursor + klen]
        cursor += klen
        (vlen,) = _U32.unpack_from(payload, cursor)
        cursor += 4
        value = payload[cursor : cursor + vlen]
        if len(key) != klen or len(value) != vlen:
            if strict:
                raise CorruptionError(f"WAL record length mismatch in {path}")
            return
        yield seq, ValueKind(kind_byte), key, value
        pos = payload_end
