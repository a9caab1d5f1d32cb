"""Tests for ranged manual compaction."""

from repro.hardware import make_profile
from repro.lsm import DB, Options


def open_db(extra=None, path="/mc-db"):
    overrides = {"write_buffer_size": 8 * 1024,
                 "target_file_size_base": 8 * 1024,
                 "max_bytes_for_level_base": 32 * 1024}
    if extra:
        overrides.update(extra)
    return DB.open(path, Options(overrides), profile=make_profile(4, 8))


def fill(db, n=2000):
    import os
    import random

    rng = random.Random(3)
    pool = os.urandom(4096)
    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        offset = rng.randrange(len(pool) - 48)
        db.put(b"%06d" % i, pool[offset:offset + 48])
    db.flush(wait_compactions=False)


class TestRangedCompaction:
    def test_range_pushes_overlapping_files_down(self):
        with open_db() as db:
            fill(db)
            db.compact_range(b"000000", b"000999")
            # No file overlapping the range remains above the last level.
            bottom = db.version.max_populated_level()
            for level in range(bottom):
                assert db.version.overlapping_files(
                    level, b"000000", b"000999") == []
            # Data is intact.
            for i in range(0, 1000, 111):
                assert db.get(b"%06d" % i) is not None

    def test_range_leaves_other_keys_alone(self):
        with open_db() as db:
            fill(db)
            files_before = db.version.num_files()
            db.compact_range(b"000000", b"000099")
            for i in range(0, 2000, 173):
                assert db.get(b"%06d" % i) is not None
            assert db.version.num_files() > 0
            del files_before

    def test_unbounded_compaction_still_works(self):
        with open_db() as db:
            fill(db, 1500)
            db.compact_range()
            assert db.version.num_files(0) <= 4

    def test_universal_falls_back_to_auto(self):
        with open_db({"compaction_style": "universal"}) as db:
            fill(db, 1500)
            db.compact_range(b"000000", b"000500")  # must not corrupt
            for i in range(0, 1500, 97):
                assert db.get(b"%06d" % i) is not None
