"""End-to-end tests for the DB facade."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DBClosedError, DBError
from repro.hardware import make_profile
from repro.lsm import DB, Options
from repro.lsm.statistics import OpClass, Ticker

SMALL = {"write_buffer_size": 16 * 1024}


def open_db(extra=None, path="/db", **kw):
    overrides = dict(SMALL)
    if extra:
        overrides.update(extra)
    return DB.open(path, Options(overrides), profile=make_profile(4, 8), **kw)


class TestBasicOperations:
    def test_put_get(self):
        with open_db() as db:
            db.put(b"k", b"v")
            assert db.get(b"k") == b"v"

    def test_get_missing(self):
        with open_db() as db:
            assert db.get(b"nope") is None

    def test_overwrite(self):
        with open_db() as db:
            db.put(b"k", b"v1")
            db.put(b"k", b"v2")
            assert db.get(b"k") == b"v2"

    def test_delete(self):
        with open_db() as db:
            db.put(b"k", b"v")
            db.delete(b"k")
            assert db.get(b"k") is None

    def test_delete_then_rewrite(self):
        with open_db() as db:
            db.put(b"k", b"v1")
            db.delete(b"k")
            db.put(b"k", b"v2")
            assert db.get(b"k") == b"v2"

    def test_empty_key_rejected(self):
        with open_db() as db:
            with pytest.raises(DBError):
                db.put(b"", b"v")

    def test_put_returns_latency(self):
        with open_db() as db:
            assert db.put(b"k", b"v") > 0

    def test_multi_get(self):
        with open_db() as db:
            db.put(b"a", b"1")
            db.put(b"b", b"2")
            assert db.multi_get([b"a", b"missing", b"b"]) == [b"1", None, b"2"]

    def test_closed_db_rejects_operations(self):
        db = open_db()
        db.close()
        with pytest.raises(DBClosedError):
            db.get(b"k")
        with pytest.raises(DBClosedError):
            db.put(b"k", b"v")
        db.close()  # idempotent

    def test_clock_advances(self):
        db = open_db()
        before = db.env.clock.now_us
        db.put(b"k", b"v")
        assert db.env.clock.now_us > before
        db.close()


class TestAcrossFlushesAndCompactions:
    def test_data_survives_flush(self):
        with open_db() as db:
            for i in range(100):
                db.put(b"key%04d" % i, b"val%d" % i)
            db.flush()
            assert db.version.num_files() > 0
            for i in range(100):
                assert db.get(b"key%04d" % i) == b"val%d" % i

    def test_random_workload_consistency(self):
        rng = random.Random(11)
        expected = {}
        with open_db() as db:
            for _ in range(3000):
                key = b"%05d" % rng.randrange(500)
                if rng.random() < 0.15 and expected:
                    victim = rng.choice(sorted(expected))
                    db.delete(victim)
                    del expected[victim]
                else:
                    value = b"v%d" % rng.randrange(10**6)
                    db.put(key, value)
                    expected[key] = value
            for key, value in expected.items():
                assert db.get(key) == value, key
            deleted = set(b"%05d" % i for i in range(500)) - set(expected)
            for key in sorted(deleted)[:50]:
                assert db.get(key) is None

    def test_compactions_happen(self):
        with open_db() as db:
            for i in range(4000):
                db.put(b"%06d" % (i * 37 % 4000), b"x" * 50)
            db.wait_for_background()
            assert db.statistics.ticker(Ticker.COMPACTION_COUNT) > 0
            assert db.statistics.ticker(Ticker.FLUSH_COUNT) > 0

    def test_tombstone_shadows_older_levels(self):
        with open_db() as db:
            db.put(b"k", b"v")
            db.flush()
            db.delete(b"k")
            db.flush()
            assert db.get(b"k") is None

    def test_compact_range_drains_l0(self):
        with open_db() as db:
            for i in range(2000):
                db.put(b"%06d" % i, b"x" * 40)
            db.flush()
            db.compact_range()
            assert db.version.num_files(0) <= 4


class TestScan:
    def test_scan_all_sorted(self):
        with open_db() as db:
            for key in [b"c", b"a", b"b"]:
                db.put(key, key.upper())
            rows = db.scan()
            assert rows == [(b"a", b"A"), (b"b", b"B"), (b"c", b"C")]

    def test_scan_with_start_and_limit(self):
        with open_db() as db:
            for i in range(100):
                db.put(b"%04d" % i, b"v")
            rows = db.scan(start=b"0050", limit=5)
            assert [k for k, _ in rows] == [b"0050", b"0051", b"0052",
                                            b"0053", b"0054"]

    def test_scan_across_levels(self):
        with open_db() as db:
            for i in range(0, 200, 2):
                db.put(b"%04d" % i, b"old")
            db.flush()
            for i in range(1, 200, 2):
                db.put(b"%04d" % i, b"new")
            rows = db.scan()
            assert len(rows) == 200
            assert [k for k, _ in rows] == sorted(k for k, _ in rows)

    def test_scan_hides_tombstones(self):
        with open_db() as db:
            db.put(b"a", b"1")
            db.put(b"b", b"2")
            db.delete(b"a")
            assert db.scan() == [(b"b", b"2")]

    def test_scan_sees_newest_version(self):
        with open_db() as db:
            db.put(b"k", b"old")
            db.flush()
            db.put(b"k", b"new")
            assert db.scan() == [(b"k", b"new")]


class TestOptionsBehaviour:
    def test_disable_wal(self):
        with open_db({"disable_wal": True}) as db:
            db.put(b"k", b"v")
            assert db.statistics.ticker(Ticker.WAL_BYTES) == 0

    def test_bloom_filters_count_useful(self):
        with open_db({"bloom_filter_bits_per_key": 10.0}) as db:
            for i in range(1000):
                db.put(b"key%05d" % i, b"v")
            db.flush()
            for i in range(200):
                db.get(b"key%05dx" % i)  # inside file ranges, absent
            assert db.statistics.ticker(Ticker.BLOOM_USEFUL) > 100

    def test_universal_compaction_style(self):
        with open_db({"compaction_style": "universal"}) as db:
            for i in range(3000):
                db.put(b"%06d" % (i % 700), b"x" * 40)
            db.wait_for_background()
            for i in range(700):
                assert db.get(b"%06d" % i) is not None
            assert db.version.num_files(1) == 0  # everything stays in L0

    def test_fifo_compaction_drops_old_data(self):
        opts = {"compaction_style": "fifo",
                "max_bytes_for_level_base": 64 * 1024}
        with open_db(opts) as db:
            for i in range(4000):
                db.put(b"%06d" % i, b"x" * 50)
            db.flush()
            assert db.version.level_bytes(0) <= 64 * 1024 * 2

    def test_swap_factor_on_overcommit(self):
        modest = open_db(path="/db-a")
        hog = DB.open(
            "/db-b",
            Options({"write_buffer_size": 16 * 1024,
                     "block_cache_size": 16 << 30}),
            profile=make_profile(4, 8),
        )
        assert hog._swap_factor > modest._swap_factor
        modest.close()
        hog.close()

    def test_byte_scale_shrinks_effective_options(self):
        db = DB.open("/db-s", Options({"block_cache_size": 8 << 20}),
                     profile=make_profile(4, 4), byte_scale=1 / 1024)
        assert db.block_cache.capacity_bytes == 8 << 10
        assert db.options.get("block_cache_size") == 8 << 20
        db.close()

    def test_foreground_parallelism_validation(self):
        with open_db() as db:
            with pytest.raises(DBError):
                db.foreground_parallelism = 0
            db.foreground_parallelism = 2
            assert db.foreground_parallelism == 2


class TestStallAccounting:
    def test_stalls_recorded_under_pressure(self):
        opts = {
            "write_buffer_size": 8 * 1024,
            "max_write_buffer_number": 1,
        }
        with open_db(opts) as db:
            for i in range(2000):
                db.put(b"%06d" % i, b"x" * 64)
            stalls = db.statistics.ticker(Ticker.STALL_COUNT)
            assert stalls > 0
            assert db.statistics.ticker(Ticker.STALL_MICROS) > 0

    def test_wedged_write_does_not_deadlock(self):
        opts = {
            "write_buffer_size": 8 * 1024,
            "disable_auto_compactions": True,
            "level0_stop_writes_trigger": 2,
            "level0_slowdown_writes_trigger": 1,
        }
        with open_db(opts) as db:
            for i in range(600):
                db.put(b"%06d" % i, b"x" * 64)
            # survived: the wedge penalty let writes through
            assert db.get(b"000001") is not None


class TestProperties:
    @given(st.dictionaries(st.binary(min_size=1, max_size=12),
                           st.binary(max_size=40), min_size=1, max_size=120))
    @settings(max_examples=20, deadline=None)
    def test_db_equals_dict(self, mapping):
        db = DB.open("/prop-db", Options({"write_buffer_size": 8 * 1024}),
                     profile=make_profile(4, 8))
        for key, value in mapping.items():
            db.put(key, value)
        db.flush()
        for key, value in mapping.items():
            assert db.get(key) == value
        assert dict(db.scan()) == mapping
        db.close()
