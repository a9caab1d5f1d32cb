"""Version: the live LSM shape (which files live at which level).

A Version is a snapshot of per-level file lists. L0 files may overlap
(each is one flushed memtable); L1+ files are disjoint and sorted, so a
point lookup touches at most one file per level.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.errors import DBError
from repro.lsm.sstable import FileMetaData


@dataclass
class Version:
    """Mutable level structure (single-writer engine: mutated in place)."""

    num_levels: int
    levels: list[list[FileMetaData]] = field(init=False)
    #: Monotonic mutation counter; bumps whenever the file set changes so
    #: derived quantities (pending compaction debt) can be memoized.
    stamp: int = field(default=0, init=False)
    #: ``largest_key`` of every file, per level and in list order: the
    #: bisect keys of :meth:`files_for_key`, :meth:`files_from` and the
    #: level walk ``DB.get`` inlines, updated by every mutation instead
    #: of rebuilt per lookup.
    _largest: list[list[bytes]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_levels < 2:
            raise DBError("need at least two levels")
        self.levels = [[] for _ in range(self.num_levels)]
        self._largest = [[] for _ in range(self.num_levels)]

    # -- mutation ----------------------------------------------------------

    def add_file(self, level: int, meta: FileMetaData) -> None:
        self._check_level(level)
        self.stamp += 1
        meta = FileMetaData(
            file_number=meta.file_number,
            file_size=meta.file_size,
            smallest_key=meta.smallest_key,
            largest_key=meta.largest_key,
            num_entries=meta.num_entries,
            level=level,
        )
        files = self.levels[level]
        if level == 0:
            files.append(meta)  # newest last; read path scans newest first
            self._largest[0].append(meta.largest_key)
        else:
            # The first file ending at or after the new one's start is
            # the only one it can overlap: the run is sorted and disjoint.
            largest = self._largest[level]
            idx = bisect.bisect_left(largest, meta.smallest_key)
            if idx < len(files) and files[idx].smallest_key <= meta.largest_key:
                raise DBError(
                    f"overlap installing file {meta.file_number} at L{level}"
                )
            files.insert(idx, meta)
            largest.insert(idx, meta.largest_key)

    def add_file_l0_front(self, meta: FileMetaData) -> None:
        """Install at the *oldest* L0 position (universal merge outputs
        replace the oldest runs, so they must sort as oldest)."""
        self.stamp += 1
        meta = FileMetaData(
            file_number=meta.file_number,
            file_size=meta.file_size,
            smallest_key=meta.smallest_key,
            largest_key=meta.largest_key,
            num_entries=meta.num_entries,
            level=0,
        )
        self.levels[0].insert(0, meta)
        self._largest[0].insert(0, meta.largest_key)

    def remove_file(self, level: int, file_number: int) -> FileMetaData:
        self._check_level(level)
        files = self.levels[level]
        for idx, meta in enumerate(files):
            if meta.file_number == file_number:
                self.stamp += 1
                del self._largest[level][idx]
                return files.pop(idx)
        raise DBError(f"file {file_number} not found at L{level}")

    # -- queries -----------------------------------------------------------

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.num_levels:
            raise DBError(f"level {level} out of range")

    def files_at(self, level: int) -> list[FileMetaData]:
        self._check_level(level)
        return self.levels[level]

    def num_files(self, level: int | None = None) -> int:
        if level is not None:
            return len(self.files_at(level))
        return sum(len(files) for files in self.levels)

    def level_bytes(self, level: int) -> int:
        return sum(f.file_size for f in self.files_at(level))

    def total_bytes(self) -> int:
        return sum(self.level_bytes(level) for level in range(self.num_levels))

    def max_populated_level(self) -> int:
        last = 0
        for level in range(self.num_levels):
            if self.levels[level]:
                last = level
        return last

    def files_for_key(self, level: int, user_key: bytes) -> list[FileMetaData]:
        """Files possibly containing ``user_key``, newest first at L0."""
        # _check_level inlined: this runs per level of every point lookup.
        if not 0 <= level < self.num_levels:
            raise DBError(f"level {level} out of range")
        files = self.levels[level]
        if level == 0:
            return [
                f for f in reversed(files)
                if f.smallest_key <= user_key <= f.largest_key
            ]
        idx = bisect.bisect_left(self._largest[level], user_key)
        if idx < len(files) and files[idx].smallest_key <= user_key:
            return [files[idx]]
        return []

    def files_from(
        self, level: int, start: bytes | None
    ) -> list[FileMetaData]:
        """Files that may hold keys >= ``start``, in key order (L1+).

        Binary-searches ``largest_key`` over the sorted, disjoint run:
        the result is the suffix beginning with the first file whose
        ``largest_key >= start`` — every file before it lies wholly
        below the scan and is pruned in O(log n) without being touched.
        L0 files overlap arbitrarily, so this helper is meaningless
        there; callers filter L0 per file.
        """
        self._check_level(level)
        files = self.levels[level]
        if start is None or not files:
            return files
        return files[bisect.bisect_left(self._largest[level], start):]

    def overlapping_files(
        self, level: int, lo: bytes | None, hi: bytes | None
    ) -> list[FileMetaData]:
        return [f for f in self.files_at(level) if f.overlaps(lo, hi)]

    def describe(self) -> str:
        """Per-level summary used in prompts (like `rocksdb.levelstats`)."""
        lines = ["Level  Files  Size(MB)"]
        for level in range(self.num_levels):
            files = self.levels[level]
            if not files and level > self.max_populated_level():
                continue
            lines.append(
                f"  L{level:<4} {len(files):>5}  {self.level_bytes(level) / 2**20:8.2f}"
            )
        return "\n".join(lines)

    def all_files(self) -> list[FileMetaData]:
        return [f for files in self.levels for f in files]
