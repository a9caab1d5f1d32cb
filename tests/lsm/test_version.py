"""Tests for the Version (level structure)."""

import bisect
import random

import pytest

from repro.errors import DBError
from repro.lsm.sstable import FileMetaData
from repro.lsm.version import Version


def meta(number, lo, hi, size=100, entries=10):
    return FileMetaData(number, size, lo, hi, entries)


class TestAddRemove:
    def test_l0_keeps_insertion_order(self):
        v = Version(num_levels=3)
        v.add_file(0, meta(1, b"a", b"z"))
        v.add_file(0, meta(2, b"a", b"z"))
        assert [f.file_number for f in v.files_at(0)] == [1, 2]

    def test_l0_front_insert(self):
        v = Version(num_levels=3)
        v.add_file(0, meta(1, b"a", b"z"))
        v.add_file_l0_front(meta(2, b"a", b"z"))
        assert [f.file_number for f in v.files_at(0)] == [2, 1]

    def test_l1_sorted_by_key(self):
        v = Version(num_levels=3)
        v.add_file(1, meta(2, b"m", b"p"))
        v.add_file(1, meta(1, b"a", b"c"))
        assert [f.file_number for f in v.files_at(1)] == [1, 2]

    def test_l1_overlap_rejected(self):
        v = Version(num_levels=3)
        v.add_file(1, meta(1, b"a", b"m"))
        with pytest.raises(DBError, match="overlap"):
            v.add_file(1, meta(2, b"k", b"z"))
        with pytest.raises(DBError, match="overlap"):
            v.add_file(1, meta(3, b"a", b"b"))

    def test_l1_adjacent_ok(self):
        v = Version(num_levels=3)
        v.add_file(1, meta(1, b"a", b"c"))
        v.add_file(1, meta(2, b"d", b"f"))  # touching but disjoint

    def test_remove(self):
        v = Version(num_levels=3)
        v.add_file(0, meta(1, b"a", b"z"))
        removed = v.remove_file(0, 1)
        assert removed.file_number == 1
        assert v.num_files(0) == 0

    def test_remove_missing(self):
        with pytest.raises(DBError):
            Version(num_levels=3).remove_file(0, 99)

    def test_level_bounds(self):
        v = Version(num_levels=3)
        with pytest.raises(DBError):
            v.add_file(3, meta(1, b"a", b"b"))
        with pytest.raises(DBError):
            v.files_at(-1)

    def test_min_levels(self):
        with pytest.raises(DBError):
            Version(num_levels=1)

    def test_level_recorded_in_meta(self):
        v = Version(num_levels=3)
        v.add_file(2, meta(1, b"a", b"b"))
        assert v.files_at(2)[0].level == 2


class TestQueries:
    def _populated(self):
        v = Version(num_levels=4)
        v.add_file(0, meta(1, b"c", b"p", size=10))
        v.add_file(0, meta(2, b"a", b"f", size=20))
        v.add_file(1, meta(3, b"a", b"h", size=30))
        v.add_file(1, meta(4, b"k", b"s", size=40))
        return v

    def test_counts_and_bytes(self):
        v = self._populated()
        assert v.num_files() == 4
        assert v.num_files(0) == 2
        assert v.level_bytes(0) == 30
        assert v.total_bytes() == 100
        assert v.max_populated_level() == 1

    def test_files_for_key_l0_newest_first(self):
        v = self._populated()
        hits = v.files_for_key(0, b"d")
        assert [f.file_number for f in hits] == [2, 1]

    def test_files_for_key_l0_range_filter(self):
        v = self._populated()
        assert [f.file_number for f in v.files_for_key(0, b"n")] == [1]

    def test_files_for_key_l1_binary_search(self):
        v = self._populated()
        assert [f.file_number for f in v.files_for_key(1, b"g")] == [3]
        assert [f.file_number for f in v.files_for_key(1, b"m")] == [4]
        assert v.files_for_key(1, b"i") == []  # gap between files
        assert v.files_for_key(1, b"z") == []

    def test_overlapping_files(self):
        v = self._populated()
        hits = v.overlapping_files(1, b"g", b"l")
        assert [f.file_number for f in hits] == [3, 4]
        assert v.overlapping_files(1, None, None) == v.files_at(1)

    def test_files_from_prunes_left_of_start(self):
        v = Version(num_levels=3)
        v.add_file(1, meta(1, b"a", b"c"))
        v.add_file(1, meta(2, b"d", b"f"))
        v.add_file(1, meta(3, b"g", b"i"))
        # The suffix starts at the FIRST file whose largest_key >= start:
        # a file ending exactly at start can still hold the start key.
        assert [f.file_number for f in v.files_from(1, b"f")] == [2, 3]
        assert [f.file_number for f in v.files_from(1, b"e")] == [2, 3]
        assert [f.file_number for f in v.files_from(1, b"g")] == [3]

    def test_files_from_boundaries(self):
        v = Version(num_levels=3)
        v.add_file(1, meta(1, b"d", b"f"))
        assert v.files_from(1, None) == v.files_at(1)
        assert v.files_from(1, b"a") == v.files_at(1)
        assert v.files_from(1, b"z") == []
        assert v.files_from(2, b"a") == []  # empty level

    def test_describe(self):
        text = self._populated().describe()
        assert "L0" in text and "L1" in text

    def test_all_files(self):
        assert len(self._populated().all_files()) == 4


class TestStamp:
    """The mutation counter backing the DB's pending-bytes memo."""

    def _meta(self, number, lo=b"a", hi=b"m"):
        from repro.lsm.sstable import FileMetaData

        return FileMetaData(file_number=number, file_size=100,
                            smallest_key=lo, largest_key=hi,
                            num_entries=10, level=0)

    def test_stamp_bumps_on_every_mutation(self):
        from repro.lsm.version import Version

        v = Version(num_levels=3)
        assert v.stamp == 0
        v.add_file(0, self._meta(1))
        assert v.stamp == 1
        v.add_file_l0_front(self._meta(2))
        assert v.stamp == 2
        v.remove_file(0, 1)
        assert v.stamp == 3

    def test_stamp_unchanged_on_failed_remove(self):
        import pytest as _pytest

        from repro.errors import DBError
        from repro.lsm.version import Version

        v = Version(num_levels=3)
        v.add_file(0, self._meta(1))
        before = v.stamp
        with _pytest.raises(DBError):
            v.remove_file(0, 999)
        assert v.stamp == before


class TestKeyListsStayCurrent:
    """``files_for_key`` and ``files_from`` bisect per-level key lists
    that every mutation keeps current; after any sequence of mutations
    they must answer exactly what a scan of the file lists answers."""

    LEVELS = 4

    @staticmethod
    def scan_for_key(v, level, key):
        files = v.files_at(level)
        if level == 0:
            return [
                f for f in reversed(files)
                if f.smallest_key <= key <= f.largest_key
            ]
        return [f for f in files if f.smallest_key <= key <= f.largest_key]

    @staticmethod
    def scan_from(v, level, start):
        files = v.files_at(level)
        if start is None:
            return list(files)
        first = next(
            (i for i, f in enumerate(files) if f.largest_key >= start),
            len(files),
        )
        return files[first:]

    def _mutate(self, v, rng, next_number):
        op = rng.random()
        level = rng.randrange(self.LEVELS)
        files = v.files_at(level)
        if files and op < 0.3:
            v.remove_file(level, rng.choice(files).file_number)
            return
        lo = rng.randrange(200)
        hi = min(199, lo + rng.randrange(16))
        new = meta(next_number, b"k%03d" % lo, b"k%03d" % hi)
        if level == 0:
            if op < 0.65:
                v.add_file_l0_front(new)
            else:
                v.add_file(0, new)
            return
        # A disjoint slot: only add when [lo, hi] fits between neighbours.
        smallest = [f.smallest_key for f in files]
        idx = bisect.bisect_left(smallest, new.smallest_key)
        if idx > 0 and files[idx - 1].largest_key >= new.smallest_key:
            return
        if idx < len(files) and files[idx].smallest_key <= new.largest_key:
            return
        v.add_file(level, new)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mutations_match_a_scan(self, seed):
        rng = random.Random(seed)
        v = Version(num_levels=self.LEVELS)
        probes = [b"k%03d" % i for i in range(0, 201, 7)] + [b"a", b"z"]
        for step in range(300):
            self._mutate(v, rng, next_number=step + 1)
            for level in range(self.LEVELS):
                for key in probes:
                    assert v.files_for_key(level, key) == \
                        self.scan_for_key(v, level, key), (step, level, key)
                if level == 0:
                    continue
                for start in (None, *probes):
                    assert v.files_from(level, start) == \
                        self.scan_from(v, level, start), (step, level, start)
            for bad in (-1, self.LEVELS):
                with pytest.raises(DBError):
                    v.files_for_key(bad, b"k000")
                with pytest.raises(DBError):
                    v.files_from(bad, b"k000")
