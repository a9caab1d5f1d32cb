"""The point read in one pass: the probe price tables and the level walk.

``PerfModel.probe_cost_us`` prices one table probe of a point lookup
from a per-configuration table that ``table_read_cost_us`` itself
fills, so every price must be the very float ``table_read_cost_us``
gives the matching ``ReadStats``; memtable probes are priced from a
table the same way. ``DB.get`` walks ``Version.levels``
itself, skipping empty levels: a tree with empty levels between
populated ones must read back exactly, with the per-level hit and
filter counters and the virtual clock pinned below.
"""

import pytest

from repro.hardware import NVME_SSD, SATA_HDD, make_profile
from repro.lsm import ikey
from repro.lsm.db import DB
from repro.lsm.env import MemFileSystem
from repro.lsm.memtable import ValueKind
from repro.lsm.options import Options
from repro.lsm.perf_model import PerfModel
from repro.lsm.sstable import ReadStats, SSTableBuilder, SSTableReader
from repro.lsm.statistics import Ticker
from tests.lsm.test_perf_model import reference_memtable_get_cost_us

SOURCES = ("cache", "page", "device")
BLOCK_SIZES = (1, 517, 4096, 4153, 16391)


def _probe_shapes():
    """Every ``(bloom_checked, block_read)`` a probe can report: no
    block (filtered out, or the index placed the key past the table),
    or one block from each source at each size."""
    for bloom in (False, True):
        yield bloom, None
        for source in SOURCES:
            for nbytes in BLOCK_SIZES:
                yield bloom, (nbytes, source)


def _matching_stats(bloom, block_read):
    if block_read is None:
        return ReadStats(bloom_checked=bloom)
    return ReadStats(
        bloom_checked=bloom, index_read=True, block_reads=[block_read]
    )


class TestPriceTable:
    @pytest.mark.parametrize("codec", ["none", "snappy", "zstd"])
    @pytest.mark.parametrize(
        "profile",
        [make_profile(4, 4, NVME_SSD), make_profile(2, 4, SATA_HDD)],
        ids=["nvme-4core", "hdd-2core"],
    )
    def test_every_price_is_the_formulas_float(self, profile, codec):
        perf = PerfModel(
            profile, Options({"compression": codec}), byte_scale=1 / 64
        )
        for _ in range(2):  # the first pass fills the tables, the second reads them
            for busy in range(4):
                for probes in range(6):
                    assert perf.memtable_get_cost_us(probes, busy) == \
                        reference_memtable_get_cost_us(perf, probes, busy)
                for bloom, block_read in _probe_shapes():
                    assert perf.probe_cost_us(bloom, block_read, busy) == \
                        perf.table_read_cost_us(
                            _matching_stats(bloom, block_read),
                            busy_bg_jobs=busy,
                        ), (bloom, block_read, busy)

    def test_the_index_miss_shape_reads_no_index(self):
        """A seek past the table's last key reads no block and, as the
        lookup has always been priced, no index: ``index_read`` stays
        False."""
        fs = MemFileSystem()
        builder = SSTableBuilder(fs, "/db/000001.sst", bloom_bits_per_key=10.0)
        builder.add(ikey.encode(b"k", 9), ValueKind.VALUE, b"v")
        builder.finish()
        reader = SSTableReader(fs.open_random("/db/000001.sst"), 1)
        probe = reader.get(
            b"k", ikey.seek_key(b"k", 5), None, None, None, None, None
        )
        assert probe == (True, None, None)
        perf = PerfModel(make_profile(4, 4), Options())
        for busy in range(4):
            price = perf.probe_cost_us(True, None, busy)
            assert price == perf.table_read_cost_us(
                ReadStats(bloom_checked=True, index_read=False),
                busy_bg_jobs=busy,
            )
            assert price < perf.table_read_cost_us(
                ReadStats(bloom_checked=True, index_read=True),
                busy_bg_jobs=busy,
            )

    def test_set_options_clears_the_table_and_prices_follow_the_codec(self):
        db = DB.open("/prices", Options({"compression": "none"}))
        try:
            perf = db._perf
            read = (4096, "device")
            before = perf.probe_cost_us(False, read, 1)
            assert perf._probe_prices
            db.set_options({"compression": "zstd"})
            assert not perf._probe_prices
            after = perf.probe_cost_us(False, read, 1)
            assert after == perf.table_read_cost_us(
                _matching_stats(False, read), busy_bg_jobs=1
            )
            assert after > before  # zstd pays a decompression
        finally:
            db.close()


def _key(i):
    return b"key-%05d" % i


def _gap_tree(filters):
    """L0 over L4 with L1-L3 empty, plus a memtable and a snapshot.

    The first batch is pushed to the bottom by ``compact_range`` (small
    target files, so L4 is a run of several tables); the second, which
    overwrites, deletes and adds keys, is flushed to L0; the third stays
    in the memtable.
    """
    options = {"num_levels": 5, "target_file_size_base": 4096}
    if filters:
        options["bloom_filter_bits_per_key"] = 10
    db = DB.open("/gap", Options(options))
    shadow = {}
    for i in range(800):
        shadow[_key(i)] = b"a%d" % i * 8
        db.put(_key(i), shadow[_key(i)])
    db.flush()
    db.compact_range(b"", b"\xff")
    snapshot = db.snapshot()
    at_snapshot = dict(shadow)
    for i in range(0, 900, 3):
        if i % 7 == 0:
            shadow.pop(_key(i), None)
            db.delete(_key(i))
        else:
            shadow[_key(i)] = b"b%d" % i * 8
            db.put(_key(i), shadow[_key(i)])
    db.flush()
    for i in range(0, 900, 11):
        shadow[_key(i)] = b"c%d" % i * 8
        db.put(_key(i), shadow[_key(i)])
    return db, shadow, snapshot, at_snapshot


#: (filters) -> (GET_HIT_L0, GET_HIT_L1, GET_HIT_L2_PLUS, BLOOM_CHECKED,
#: BLOOM_USEFUL, virtual clock after the reads).
PINNED = {
    False: (272, 0, 645, 0, 0, 10029.546365234364),
    True: (272, 0, 645, 1642, 658, 9615.890733842225),
}


class TestGapTree:
    @pytest.mark.parametrize("filters", [False, True], ids=["plain", "filters"])
    def test_gets_across_empty_levels(self, filters):
        db, shadow, snapshot, at_snapshot = _gap_tree(filters)
        try:
            levels = [len(files) for files in db.version.levels]
            assert levels[0] == 1 and levels[1:4] == [0, 0, 0]
            assert levels[4] > 1
            db.statistics.reset()
            for i in range(950):
                assert db.get(_key(i)) == shadow.get(_key(i)), i
            # 897 is the L0 table's last key, written after the
            # snapshot: its seek falls past the table's last block.
            for i in [*range(0, 950, 5), 897]:
                assert db.get(_key(i), snapshot) == at_snapshot.get(_key(i)), i
            ticker = db.statistics.ticker
            observed = (
                ticker(Ticker.GET_HIT_L0),
                ticker(Ticker.GET_HIT_L1),
                ticker(Ticker.GET_HIT_L2_PLUS),
                ticker(Ticker.BLOOM_CHECKED),
                ticker(Ticker.BLOOM_USEFUL),
                db.env.clock.now_us,
            )
            assert observed == PINNED[filters]
            # The batched and the scanning reads see the same tree.
            keys = [_key(i) for i in range(950)]
            assert db.multi_get(keys) == [shadow.get(k) for k in keys]
            assert db.scan(_key(100), 50) == [
                (k, shadow[k]) for k in sorted(shadow) if k >= _key(100)
            ][:50]
        finally:
            db.close()
