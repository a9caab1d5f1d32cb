"""Table cache: open SSTable reader handles.

``max_open_files`` bounds how many table handles stay open; evicting a
handle means the next read of that file pays a re-open (footer + index +
filter load), which is the cost this cache exists to avoid.

A compaction output the tree will compact again arrives with the blocks
its builder kept (:meth:`TableCache.seed`): the reader opened for that
file starts its decoded-block memo from them, so the next compaction
reads the table without decoding it. The blocks wait here only until
that reader opens or the file is evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.lsm.sstable import KeptBlock, SSTableReader


class TableCache:
    """LRU of ``file_number -> SSTableReader``."""

    def __init__(
        self,
        opener: Callable[[int], SSTableReader],
        max_open_files: int = -1,
    ) -> None:
        self._opener = opener
        self._capacity = max_open_files if max_open_files > 0 else None
        self._handles: OrderedDict[int, SSTableReader] = OrderedDict()
        #: file_number -> kept blocks for the file's first reader.
        self._seeds: dict[int, list[KeptBlock]] = {}
        self.opens = 0
        self.hits = 0
        self.evictions = 0

    def get(self, file_number: int) -> tuple[SSTableReader, bool]:
        """Return (reader, was_cached)."""
        reader = self._handles.get(file_number)
        if reader is not None:
            self._handles.move_to_end(file_number)
            self.hits += 1
            return reader, True
        reader = self._opener(file_number)
        blocks = self._seeds.pop(file_number, None)
        if blocks is not None:
            reader.seed(blocks)
        self.opens += 1
        self._handles[file_number] = reader
        if self._capacity is not None:
            while len(self._handles) > self._capacity:
                self._handles.popitem(last=False)
                self.evictions += 1
        return reader, False

    def seed(self, file_number: int, blocks: list[KeptBlock]) -> None:
        """Hand the next reader opened for ``file_number`` its builder's
        kept blocks."""
        self._seeds[file_number] = blocks

    def evict(self, file_number: int) -> None:
        self._handles.pop(file_number, None)
        self._seeds.pop(file_number, None)

    def drop_seeds(self) -> None:
        """Forget every pending handoff (close, crash)."""
        self._seeds.clear()

    def set_capacity(self, max_open_files: int) -> None:
        self._capacity = max_open_files if max_open_files > 0 else None

    def __len__(self) -> int:
        return len(self._handles)
