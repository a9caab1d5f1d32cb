"""Internal key encoding.

An internal key must sort by (user_key ascending, sequence descending)
under plain byte-wise comparison — that is the invariant every read
path (memtable, SSTable, compaction merge) relies on.

Layout::

    escape(user_key) + 0x00 0x00 + big-endian(~seq)

where ``escape`` maps ``0x00 -> 0x00 0xFF``. The escape keeps the
terminator ``0x00 0x00`` strictly smaller than any key content, so
byte-wise order over the encoding equals (user_key, -seq) order even
for user keys that contain NUL bytes or are prefixes of one another.
"""

from __future__ import annotations

from repro.errors import CorruptionError

_SEQ_MASK = 0xFFFFFFFFFFFFFFFF
_TERMINATOR = b"\x00\x00"
_SEQ_BYTES = 8

#: The largest sequence number the encoding supports.
MAX_SEQUENCE = (1 << 56) - 1


def encode(user_key: bytes, seq: int) -> bytes:
    """Encode one internal key."""
    if not 0 <= seq <= MAX_SEQUENCE:
        raise ValueError(f"sequence {seq} out of range")
    escaped = user_key.replace(b"\x00", b"\x00\xff")
    return escaped + _TERMINATOR + ((~seq) & _SEQ_MASK).to_bytes(8, "big")


def decode(internal: bytes) -> tuple[bytes, int]:
    """Split an internal key back into (user_key, seq)."""
    if len(internal) < _SEQ_BYTES + len(_TERMINATOR):
        raise CorruptionError("internal key too short")
    body = internal[:-_SEQ_BYTES]
    if not body.endswith(_TERMINATOR):
        raise CorruptionError("internal key missing terminator")
    escaped = body[: -len(_TERMINATOR)]
    user_key = escaped.replace(b"\x00\xff", b"\x00")
    seq = (~int.from_bytes(internal[-_SEQ_BYTES:], "big")) & _SEQ_MASK
    return user_key, seq


def seek_key(user_key: bytes, snapshot_seq: int = MAX_SEQUENCE) -> bytes:
    """The smallest internal key visible at ``snapshot_seq`` for a user key."""
    return encode(user_key, snapshot_seq)


def user_key_of(internal: bytes) -> bytes:
    """Extract just the user key."""
    return decode(internal)[0]
