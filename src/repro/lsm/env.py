"""Environment: virtual filesystem + clock.

PyLSM never touches the host disk by default; SSTables, WALs, and the
MANIFEST live in a :class:`MemFileSystem`. All *timing* is charged via
the performance model, not here — the filesystem is pure state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DBError
from repro.sim.clock import SimClock


class FileNotFound(DBError):
    """Requested file does not exist in the environment."""

    def __init__(self, path: str) -> None:
        super().__init__(f"file not found: {path}")
        self.path = path


@dataclass
class _File:
    data: bytearray
    synced_bytes: int = 0


class WritableFile:
    """Append-only handle, LevelDB-style."""

    def __init__(self, fs: "MemFileSystem", path: str) -> None:
        self._fs = fs
        self._path = path
        self._closed = False
        # The handle is created by create()/open_writable() right after
        # the _File is inserted; crash()/truncate() mutate it in place,
        # so caching it here (one append per WAL record) never goes stale.
        self._f = fs._files[path]

    @property
    def path(self) -> str:
        return self._path

    def append(self, data: bytes) -> int:
        if self._closed:
            raise DBError(f"append to closed file {self._path}")
        self._f.data.extend(data)
        return len(data)

    def _adopt(self, data: bytearray) -> int:
        """Append by move into a freshly created file: ``data`` becomes
        the file's buffer, uncopied. The caller gives ``data`` up (a
        later write to either side would show through the other), and
        no reader holds the empty buffer it replaces."""
        assert not self._closed and not self._f.data, self._path
        self._f.data = data
        return len(data)

    def sync(self) -> int:
        """Mark everything written so far durable; returns newly-synced bytes."""
        f = self._f
        delta = len(f.data) - f.synced_bytes
        f.synced_bytes = len(f.data)
        return max(0, delta)

    def size(self) -> int:
        return len(self._f.data)

    def unsynced_bytes(self) -> int:
        f = self._f
        return len(f.data) - f.synced_bytes

    def close(self) -> None:
        self._closed = True


class RandomAccessFile:
    """Positional-read handle over an immutable file."""

    def __init__(self, fs: "MemFileSystem", path: str) -> None:
        if path not in fs._files:
            raise FileNotFound(path)
        self._data = fs._files[path].data
        self._path = path

    @property
    def path(self) -> str:
        return self._path

    def read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset or length")
        return bytes(self._data[offset : offset + nbytes])

    def size(self) -> int:
        return len(self._data)


class MemFileSystem:
    """An in-memory hierarchical-by-convention filesystem."""

    def __init__(self) -> None:
        self._files: dict[str, _File] = {}

    def create(self, path: str, *, overwrite: bool = False) -> WritableFile:
        if path in self._files and not overwrite:
            raise DBError(f"file already exists: {path}")
        self._files[path] = _File(data=bytearray())
        return WritableFile(self, path)

    def open_writable(self, path: str) -> WritableFile:
        """Open for append, creating if missing."""
        if path not in self._files:
            self._files[path] = _File(data=bytearray())
        return WritableFile(self, path)

    def open_random(self, path: str) -> RandomAccessFile:
        return RandomAccessFile(self, path)

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise FileNotFound(path)
        del self._files[path]

    def file_size(self, path: str) -> int:
        if path not in self._files:
            raise FileNotFound(path)
        return len(self._files[path].data)

    def list_dir(self, prefix: str) -> list[str]:
        if prefix and not prefix.endswith("/"):
            prefix += "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def total_bytes(self) -> int:
        return sum(len(f.data) for f in self._files.values())

    def read_all(self, path: str) -> bytes:
        if path not in self._files:
            raise FileNotFound(path)
        return bytes(self._files[path].data)

    def _take(self, path: str) -> bytearray:
        """Unlink ``path`` and hand back its buffer, uncopied: how a
        background job ships a table out of its scratch filesystem."""
        if path not in self._files:
            raise FileNotFound(path)
        return self._files.pop(path).data

    def corrupt(self, path: str, offset: int, new_byte: int) -> None:
        """Flip one byte (failure-injection hook for tests)."""
        if path not in self._files:
            raise FileNotFound(path)
        data = self._files[path].data
        if not 0 <= offset < len(data):
            raise ValueError("corrupt offset out of range")
        data[offset] = new_byte & 0xFF

    def truncate(self, path: str, size: int) -> None:
        """Drop the file tail (models a torn write / crash)."""
        if path not in self._files:
            raise FileNotFound(path)
        f = self._files[path]
        del f.data[size:]
        f.synced_bytes = min(f.synced_bytes, size)

    def crash(self) -> None:
        """Simulate a process crash: only synced bytes survive.

        The strict (most pessimistic) crash model: every file is cut
        back to its ``synced_bytes`` watermark and files that were never
        synced vanish entirely (their creation was never made durable).
        :class:`repro.lsm.faults.FaultFS` layers a seeded, *partial*
        survival model on top of this for torn-tail testing.
        """
        for path in list(self._files):
            f = self._files[path]
            if f.synced_bytes == 0:
                del self._files[path]
            else:
                del f.data[f.synced_bytes:]


class Env:
    """Bundle of filesystem and virtual clock shared by one DB."""

    def __init__(self, fs: MemFileSystem | None = None) -> None:
        self.fs = fs if fs is not None else MemFileSystem()
        self.clock = SimClock()

    def now_us(self) -> float:
        return self.clock.now_us
