"""WriteBatch: multi-operation writes.

A running store applies a batch all at once: its ops get one sequence
range, land in one WAL append, share one sync boundary, and become
visible together (the memtable never rotates mid-batch). A failed
append applies none of them.

A crash is weaker. The batch is encoded as one WAL record per op, and
replay stops at the first damaged record, so a crash inside the batch's
append can recover the first k ops of that unacknowledged batch, in
order, for some k. Encoding the whole batch as one WAL record would
make recovery all-or-nothing, but it changes the WAL bytes and with
them every virtual-time result, so it is not done.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DBError
from repro.lsm.memtable import ValueKind


@dataclass(frozen=True)
class BatchOp:
    kind: ValueKind
    key: bytes
    value: bytes


@dataclass
class WriteBatch:
    """An ordered list of puts/deletes applied atomically via
    :meth:`repro.lsm.db.DB.write`."""

    ops: list[BatchOp] = field(default_factory=list, init=False)

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        if not key:
            raise DBError("empty keys are not supported")
        self.ops.append(BatchOp(ValueKind.VALUE, key, value))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        if not key:
            raise DBError("empty keys are not supported")
        self.ops.append(BatchOp(ValueKind.DELETE, key, b""))
        return self

    def clear(self) -> None:
        self.ops.clear()

    def __len__(self) -> int:
        return len(self.ops)
