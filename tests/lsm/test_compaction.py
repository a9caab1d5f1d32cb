"""Tests for compaction picking and execution."""

import random

import pytest

from repro.lsm import DB, ikey
from repro.lsm.compaction.fifo import FifoPicker
from repro.lsm.compaction.leveled import run_compaction
from repro.lsm.compaction.picker import Compaction, CompactionPicker
from repro.lsm.compaction.universal import UniversalPicker
from repro.lsm.env import MemFileSystem
from repro.lsm.memtable import ValueKind
from repro.lsm.options import MiB, Options
from repro.lsm.sstable import FileMetaData, SSTableBuilder, SSTableReader
from repro.lsm.statistics import Ticker
from repro.lsm.version import Version
from tests.lsm.test_sstable import lookup


def make_table(fs, number, pairs, level=0):
    """pairs: list of (user_key, seq, kind, value) in internal-key order."""
    builder = SSTableBuilder(fs, f"/db/{number:06d}.sst")
    for user_key, seq, kind, value in pairs:
        builder.add(ikey.encode(user_key, seq), kind, value)
    meta = builder.finish()
    return FileMetaData(meta.file_number, meta.file_size, meta.smallest_key,
                        meta.largest_key, meta.num_entries, level=level)


def simple_table(fs, number, keys, seq_base=0, level=0, value=b"v"):
    pairs = [(k, seq_base + i + 1, ValueKind.VALUE, value)
             for i, k in enumerate(sorted(keys))]
    return make_table(fs, number, pairs, level)


class TestLeveledPicker:
    def test_nothing_to_do(self):
        picker = CompactionPicker(Options())
        assert picker.pick(Version(num_levels=3)) is None

    def test_l0_triggered_by_file_count(self):
        fs = MemFileSystem()
        version = Version(num_levels=3)
        for n in range(4):  # default trigger = 4
            version.add_file(0, simple_table(fs, n + 1, [b"a", b"z"], n * 10))
        picker = CompactionPicker(Options())
        compaction = picker.pick(version)
        assert compaction is not None
        assert compaction.level == 0
        assert compaction.output_level == 1
        assert len(compaction.inputs) == 4

    def test_l0_below_trigger_not_picked(self):
        fs = MemFileSystem()
        version = Version(num_levels=3)
        for n in range(3):
            version.add_file(0, simple_table(fs, n + 1, [b"a", b"z"], n * 10))
        assert CompactionPicker(Options()).pick(version) is None

    def test_claimed_files_skipped(self):
        fs = MemFileSystem()
        version = Version(num_levels=3)
        for n in range(4):
            version.add_file(0, simple_table(fs, n + 1, [b"a", b"z"], n * 10))
        claimed = {1, 2, 3, 4}
        assert CompactionPicker(Options()).pick(version, claimed) is None

    def test_overlapping_l1_inputs_included(self):
        fs = MemFileSystem()
        version = Version(num_levels=3)
        for n in range(4):
            version.add_file(0, simple_table(fs, n + 1, [b"c", b"m"], n * 10))
        version.add_file(1, simple_table(fs, 5, [b"a", b"d"], 100, level=1))
        version.add_file(1, simple_table(fs, 6, [b"n", b"z"], 200, level=1))
        compaction = CompactionPicker(Options()).pick(version)
        overlap_numbers = {f.file_number for f in compaction.overlapping}
        assert overlap_numbers == {5}

    def test_size_triggered_level_compaction(self):
        fs = MemFileSystem()
        opts = Options({"max_bytes_for_level_base": 16 * 1024})
        version = Version(num_levels=4)
        # Two disjoint L1 files totalling > 16 KiB.
        version.add_file(1, simple_table(
            fs, 1, [b"a%03d" % i for i in range(200)], 0, 1, value=b"x" * 64))
        version.add_file(1, simple_table(
            fs, 2, [b"b%03d" % i for i in range(200)], 300, 1, value=b"x" * 64))
        compaction = CompactionPicker(opts).pick(version)
        assert compaction is not None
        assert compaction.level == 1
        assert compaction.output_level == 2
        assert len(compaction.inputs) == 1  # one seed file at L1+

    def test_disable_auto_compactions(self):
        fs = MemFileSystem()
        version = Version(num_levels=3)
        for n in range(10):
            version.add_file(0, simple_table(fs, n + 1, [b"a", b"z"], n * 10))
        picker = CompactionPicker(Options({"disable_auto_compactions": True}))
        assert picker.pick(version) is None

    def test_pending_bytes_counts_debt(self):
        fs = MemFileSystem()
        opts = Options({"max_bytes_for_level_base": 16 * 1024})
        version = Version(num_levels=4)
        version.add_file(1, simple_table(
            fs, 1, [b"k%04d" % i for i in range(600)], 0, 1, value=b"x" * 64))
        picker = CompactionPicker(opts)
        assert picker.pending_compaction_bytes(version) > 0


class TestRunCompaction:
    def _execute(self, fs, compaction, opts=None, bottommost=True):
        readers = [
            SSTableReader(fs.open_random(f"/db/{m.file_number:06d}.sst"),
                          m.file_number)
            for m in compaction.all_inputs
        ]
        counter = [50]
        def new_path():
            counter[0] += 1
            return f"/db/{counter[0]:06d}.sst"
        opts = opts if opts is not None else Options()
        return run_compaction(
            compaction, readers,
            opts.target_file_size(compaction.output_level),
            new_table_path=new_path,
            open_builder=lambda path, level: SSTableBuilder(fs, path),
            bottommost=bottommost,
        )

    def test_merge_keeps_newest_version(self):
        fs = MemFileSystem()
        old = simple_table(fs, 1, [b"k"], seq_base=0)
        new = make_table(fs, 2, [(b"k", 9, ValueKind.VALUE, b"newer")])
        compaction = Compaction(level=0, output_level=1, inputs=[new, old])
        result = self._execute(fs, compaction)
        assert result.entries_merged == 2
        assert result.entries_dropped == 1
        reader = SSTableReader(fs.open_random("/db/000051.sst"), 51)
        found, _, value, _ = lookup(reader, b"k")
        assert value == b"newer"

    def test_tombstones_dropped_at_bottom(self):
        fs = MemFileSystem()
        dead = make_table(fs, 1, [(b"k", 5, ValueKind.DELETE, b"")])
        live = simple_table(fs, 2, [b"other"])
        compaction = Compaction(level=0, output_level=1, inputs=[dead, live])
        result = self._execute(fs, compaction, bottommost=True)
        reader = SSTableReader(fs.open_random("/db/000051.sst"), 51)
        found, _, _, _ = lookup(reader, b"k")
        assert not found  # tombstone gone

    def test_tombstones_kept_above_bottom(self):
        fs = MemFileSystem()
        dead = make_table(fs, 1, [(b"k", 5, ValueKind.DELETE, b"")])
        compaction = Compaction(level=0, output_level=1, inputs=[dead])
        self._execute(fs, compaction, bottommost=False)
        reader = SSTableReader(fs.open_random("/db/000051.sst"), 51)
        found, kind, _, _ = lookup(reader, b"k")
        assert found and kind is ValueKind.DELETE

    def test_outputs_split_at_target_size(self):
        fs = MemFileSystem()
        opts = Options({"target_file_size_base": 4096,
                        "target_file_size_multiplier": 1})
        big = simple_table(fs, 1, [b"%05d" % i for i in range(400)],
                           value=b"x" * 50)
        compaction = Compaction(level=0, output_level=1, inputs=[big])
        result = self._execute(fs, compaction, opts)
        assert len(result.new_files) > 1
        # Outputs are disjoint and ordered.
        for a, b in zip(result.new_files, result.new_files[1:]):
            assert a.largest_key < b.smallest_key

    def test_bytes_accounted(self):
        fs = MemFileSystem()
        t = simple_table(fs, 1, [b"%04d" % i for i in range(100)])
        compaction = Compaction(level=0, output_level=1, inputs=[t])
        result = self._execute(fs, compaction)
        assert result.bytes_read == t.file_size
        assert result.bytes_written == sum(f.file_size for f in result.new_files)

    def test_merge_global_order(self):
        fs = MemFileSystem()
        t1 = simple_table(fs, 1, [b"a", b"c", b"e"], 0)
        t2 = simple_table(fs, 2, [b"b", b"d", b"f"], 10)
        compaction = Compaction(level=0, output_level=1, inputs=[t1, t2])
        self._execute(fs, compaction)
        reader = SSTableReader(fs.open_random("/db/000051.sst"), 51)
        keys = [ikey.decode(k)[0] for k, _, _ in reader.iter_from(None)]
        assert keys == [b"a", b"b", b"c", b"d", b"e", b"f"]


class TestUniversalPicker:
    def test_merges_oldest_runs(self):
        fs = MemFileSystem()
        version = Version(num_levels=3)
        for n in range(6):  # trigger 4 -> width = 6-4+1 = 3
            version.add_file(0, simple_table(fs, n + 1, [b"a", b"z"], n * 10))
        picker = UniversalPicker(Options())
        compaction = picker.pick(version)
        assert compaction is not None
        assert compaction.output_level == 0
        assert [f.file_number for f in compaction.inputs] == [1, 2, 3]

    def test_no_pick_below_trigger(self):
        fs = MemFileSystem()
        version = Version(num_levels=3)
        for n in range(4):
            version.add_file(0, simple_table(fs, n + 1, [b"a", b"z"], n * 10))
        assert UniversalPicker(Options()).pick(version) is None

    def test_claimed_oldest_blocks_pick(self):
        fs = MemFileSystem()
        version = Version(num_levels=3)
        for n in range(6):
            version.add_file(0, simple_table(fs, n + 1, [b"a", b"z"], n * 10))
        assert UniversalPicker(Options()).pick(version, {1}) is None


class TestFifoPicker:
    def test_drops_oldest_over_cap(self):
        fs = MemFileSystem()
        opts = Options({"max_bytes_for_level_base": 16 * 1024})
        version = Version(num_levels=3)
        for n in range(6):
            version.add_file(0, simple_table(
                fs, n + 1, [b"%03d" % i for i in range(100)], n * 1000,
                value=b"x" * 40))
        drop = FifoPicker(opts).pick_drop(version)
        assert drop is not None
        assert drop.doomed[0].file_number == 1  # oldest first

    def test_no_drop_under_cap(self):
        fs = MemFileSystem()
        version = Version(num_levels=3)
        version.add_file(0, simple_table(fs, 1, [b"a"]))
        assert FifoPicker(Options()).pick_drop(version) is None


#: Buffers, files and L1 so small that an output table fills in the
#: middle of one user key's versions once a snapshot pins them.
TINY_GEOMETRY = {
    "write_buffer_size": 4096,
    "target_file_size_base": 8192,
    "max_bytes_for_level_base": 32768,
}


@pytest.mark.parametrize("style", ["level", "universal", "fifo"])
def test_snapshot_held_across_compactions(style):
    """Regression (pre-fix, ``level``: ``DBError: overlap installing
    file 133 at L1`` from inside a foreground put). A held snapshot
    keeps several versions of a hot key alive, and a leveled output cut
    between two of them made two L1 files share a bound. Universal
    merges write only L0 and FIFO only drops, so neither ever splits —
    run, not assumed."""
    db = DB.open(
        f"/tiny-{style}", Options({**TINY_GEOMETRY, "compaction_style": style})
    )
    rng = random.Random(1)
    keys = [b"k%05d" % i for i in range(300)]
    pinned: dict[bytes, bytes] = {}
    model: dict[bytes, bytes] = {}
    snap = None
    for op in range(3000):
        key = rng.choice(keys)
        model[key] = b"%0100d" % op
        db.put(key, model[key])
        if op == 1000:
            snap = db.snapshot()
            pinned = dict(model)
    db.flush()
    stats = db.statistics
    assert stats.ticker(Ticker.COMPACTION_COUNT) > 0
    if style == "level":
        assert db.version.num_files(1) >= 2  # outputs were split
    else:
        assert not any(db.version.num_files(level) for level in range(1, 7))
    if style == "fifo":
        assert stats.ticker(Ticker.COMPACTION_BYTES_WRITTEN) == 0
    else:  # FIFO drops whole files, pinned versions included
        assert {k: db.get(k, snapshot=snap) for k in pinned} == pinned
        assert {k: db.get(k) for k in keys} == model
    gets = {k: db.get(k) for k in keys}
    assert db.scan() == sorted((k, v) for k, v in gets.items() if v is not None)
    snap.release()
    db.close()
