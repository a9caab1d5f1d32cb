"""Failure-injection tests: corruption, resource limits, hostile configs."""

import random

import pytest

from repro.errors import CorruptionError
from repro.hardware import make_profile
from repro.lsm import DB, Env, Options
from repro.lsm.statistics import Ticker

SMALL = {"write_buffer_size": 8 * 1024}


def open_db(env=None, extra=None, path="/fi-db"):
    overrides = dict(SMALL)
    if extra:
        overrides.update(extra)
    return DB.open(path, Options(overrides), env=env,
                   profile=make_profile(4, 8))


class TestCorruption:
    def _first_sst(self, env):
        for path in env.fs.list_dir("/fi-db"):
            if path.endswith(".sst"):
                return path
        raise AssertionError("no sst written")

    def test_corrupt_data_block_detected(self):
        env = Env()
        db = open_db(env)
        for i in range(500):
            db.put(b"%05d" % i, b"x" * 64)
        db.flush()
        sst = self._first_sst(env)
        env.fs.corrupt(sst, 50, 0xFF)
        # Evict cached handles/blocks so the read touches the bad byte.
        db._table_cache = type(db._table_cache)(db._open_reader, -1)
        db.block_cache.erase_file(int(sst.rsplit("/", 1)[-1].split(".")[0]))
        with pytest.raises(CorruptionError):
            for i in range(500):
                db.get(b"%05d" % i)
        db.close()

    def test_corrupt_data_block_detected_with_a_warm_memo(self):
        """The reader keeps what a block decoded to, keyed by the bytes
        it was decoded from. Read every block (so all are memoised),
        push them out of the block and page caches, then damage the
        file: the next read fetches the damaged bytes, they differ from
        the memo, and the checksum is verified as if no memo existed."""
        env = Env()
        db = open_db(env)
        assert db.options.get("paranoid_checks")
        for i in range(500):
            db.put(b"%05d" % i, b"x" * 64)
        db.flush()
        sst = self._first_sst(env)
        number = int(sst.rsplit("/", 1)[-1].split(".")[0])
        for _ in range(2):  # second pass: blocks come from the caches
            assert all(
                db.get(b"%05d" % i) == b"x" * 64 for i in range(500)
            )
        reader, cached = db._table_cache.get(number)
        assert cached and len(reader._decoded) == len(reader._index)
        db.block_cache.erase_file(number)
        db._page_cache.erase_file(number)
        assert db.get(b"%05d" % 0) == b"x" * 64  # clean re-read: fine
        db.block_cache.erase_file(number)
        db._page_cache.erase_file(number)
        env.fs.corrupt(sst, 50, 0xFF)
        with pytest.raises(CorruptionError):
            db.get(b"%05d" % 0)
        db.close()

    def test_corrupt_data_block_detected_with_a_seeded_memo(self):
        """A compaction output above the bottom level reaches its first
        reader with the entries its builder kept, keyed by the envelope
        bytes written. Damage the table before that reader opens, then
        compact it (the one read that fills no block cache, so nothing
        but the envelope compare stands between the damage and the
        merge): the damaged bytes differ from the seeded envelope, and
        the checksum is verified as if nothing was kept."""
        env = Env()
        db = open_db(env, {
            "write_buffer_size": 4096,
            "target_file_size_base": 4096,
            "max_bytes_for_level_base": 16384,
            "level0_file_num_compaction_trigger": 2,
        })
        assert db.options.get("paranoid_checks")
        rng = random.Random(7)
        for i in range(3000):
            value = bytes(rng.randrange(256) for _ in range(64))
            db.put(b"%05d" % (i * 7919 % 3000), value)
        db.wait_for_background()
        seeds = db._table_cache._seeds
        number, blocks = next(iter(seeds.items()))
        offset, envelope, entries = blocks[0]
        assert offset == 0 and len(envelope) > 50
        user_key = entries[0][0][:5]  # fixed-width keys, no NUL to unescape
        env.fs.corrupt(f"/fi-db/{number:06d}.sst", 50, envelope[50] ^ 0xFF)
        with pytest.raises(CorruptionError):
            db.compact_range(user_key, user_key)
        assert number not in seeds  # the seeded reader did the read

    #: Fill-shaped: L1 is the bottom level, every compaction is L0 ->
    #: L1, and 1 KiB blocks make its one table ~200 blocks long.
    FLAT = {
        "write_buffer_size": 16384,
        "block_size": 1024,
        "level0_file_num_compaction_trigger": 2,
    }

    def _flat_tree(self, env):
        """A fill-shaped tree whose one L1 table waits, handed off, for
        its first reader; returns the DB and that table's meta."""
        db = open_db(env, self.FLAT)
        rng = random.Random(7)
        for _ in range(3000):
            db.put(b"%05d" % rng.randrange(3000), rng.randbytes(100))
        db.wait_for_background()
        assert db.version.max_populated_level() == 1
        (l1,) = db.version.files_at(1)
        assert l1.file_number in db._table_cache._seeds
        return db, l1

    def test_corrupt_block_past_the_memo_bound_of_a_handed_off_l1_table(self):
        """The bottom L1 table of a fill reaches the next compaction
        with every block its builder kept. Damage block 130 before its
        reader opens, then compact: the error is exactly the one the
        same tree raises with its handoffs dropped."""
        errors = []
        for drop in (False, True):
            env = Env()
            db, l1 = self._flat_tree(env)
            seeds = db._table_cache._seeds
            offset, envelope, entries = seeds[l1.file_number][130]
            if drop:
                seeds.clear()
            user_key = entries[0][0][:5]  # fixed-width keys, no NUL to unescape
            at = len(envelope) // 2
            env.fs.corrupt(f"/fi-db/{l1.file_number:06d}.sst", offset + at,
                           envelope[at] ^ 0xFF)
            with pytest.raises(CorruptionError) as raised:
                db.compact_range(user_key, user_key)
            errors.append(str(raised.value))
            assert l1.file_number not in seeds
        assert errors[0] == errors[1]

    def test_crash_leaves_no_l1_seed(self):
        env = Env()
        db, l1 = self._flat_tree(env)
        reopened = db.crash_and_reopen()
        assert not db._table_cache._seeds
        assert not reopened._table_cache._seeds
        assert reopened.version.files_at(1) == [l1]
        reopened.close()

    def test_corrupt_manifest_fails_reopen(self):
        env = Env()
        db = open_db(env)
        db.put(b"k", b"v")
        db.close()
        env.fs.corrupt("/fi-db/MANIFEST", 10, 0xAA)
        with pytest.raises(CorruptionError):
            open_db(env)

    def test_truncated_manifest_tail_recovers_prefix(self):
        env = Env()
        db = open_db(env)
        for i in range(2000):
            db.put(b"%05d" % i, b"x" * 50)
        db.close()
        size = env.fs.file_size("/fi-db/MANIFEST")
        env.fs.truncate("/fi-db/MANIFEST", size - 3)
        db2 = open_db(env)  # torn tail is silently dropped
        assert db2.get(b"00001") is not None
        db2.close()


class TestResourceLimits:
    def test_tiny_table_cache_forces_reopens(self):
        env = Env()
        db = open_db(env, {"max_open_files": 2,
                           "target_file_size_base": 8 * 1024,
                           "max_bytes_for_level_base": 16 * 1024})
        rng = random.Random(5)
        for i in range(3000):
            value = bytes(rng.randrange(256) for _ in range(64))
            db.put(b"%06d" % (i * 131 % 3000), value)
        db.flush()
        assert db.version.num_files() > 2
        for i in range(0, 3000, 7):
            db.get(b"%06d" % i)
        assert db.statistics.ticker(Ticker.TABLE_OPENS) > 0
        db.close()

    def test_no_block_cache_reads_device_every_time(self):
        env = Env()
        db = open_db(env, {"no_block_cache": True, "use_direct_reads": True})
        for i in range(1000):
            db.put(b"%05d" % i, b"x" * 64)
        db.flush()
        for _ in range(3):
            db.get(b"00042")
        assert db.statistics.ticker(Ticker.BLOCK_CACHE_HIT) == 0
        db.close()

    def test_memory_overcommit_penalized_not_fatal(self):
        env = Env()
        db = open_db(env, {
            "block_cache_size": 1 << 40,  # 1 TiB on an 8 GiB machine
            "max_write_buffer_number": 16,
            "write_buffer_size": 1 << 30,
        })
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"
        assert db._swap_factor > 1.0
        db.close()


class TestHostileConfigs:
    def test_stop_trigger_storm_still_terminates(self):
        env = Env()
        db = open_db(env, {
            "level0_slowdown_writes_trigger": 2,
            "level0_stop_writes_trigger": 3,
            "level0_file_num_compaction_trigger": 1,
        })
        for i in range(1500):
            db.put(b"%06d" % i, b"x" * 64)
        for i in range(0, 1500, 37):
            assert db.get(b"%06d" % i) is not None
        db.close()

    def test_single_write_buffer_no_deadlock(self):
        env = Env()
        db = open_db(env, {"max_write_buffer_number": 1})
        for i in range(1000):
            db.put(b"%06d" % i, b"x" * 64)
        db.close()

    def test_fsync_every_write(self):
        env = Env()
        db = open_db(env, {"use_fsync": True})
        for i in range(50):
            db.put(b"%03d" % i, b"v")
        assert db.statistics.ticker(Ticker.WAL_SYNCS) == 50
        db.close()
