"""Each table is built once and decoded at most once per lifetime.

A compaction reads its inputs through the table cache's open readers,
never through readers of its own; and an output the tree will compact
again (one above the bottommost populated level) reaches its next
reader with the blocks its builder kept, so the compaction that
consumes it decodes none of them. Flush outputs and bottom-level
outputs are not handed over, so their consumers still decode them.
"""

import random

import repro.lsm.db as db_mod
import repro.lsm.sstable as sstable_mod
from repro.hardware import make_profile
from repro.lsm import DB, Env, Options
from repro.lsm.sstable import SSTableReader
from repro.lsm.table_cache import TableCache

#: Tune-shaped and tiny: 4 KiB buffers and files, a filter per table,
#: a 16 KiB L1, so a few thousand puts populate L2 and L3.
GEOMETRY = {
    "write_buffer_size": 4096,
    "target_file_size_base": 4096,
    "max_bytes_for_level_base": 16384,
    "bloom_filter_bits_per_key": 10,
    "level0_file_num_compaction_trigger": 2,
}


def fill(db, puts=3000, seed=7):
    rng = random.Random(seed)
    for _ in range(puts):
        value = bytes(rng.randrange(256) for _ in range(rng.choice([10, 100, 200])))
        db.put(b"%08d" % rng.randrange(3000), value)
    db.wait_for_background()


def open_db(env=None):
    return DB.open("/once", Options(GEOMETRY), env=env or Env(),
                   profile=make_profile(2, 4))


def test_compactions_open_no_reader_and_decode_no_handed_block(monkeypatch):
    counts = {"readers": 0, "decodes": 0}
    in_job = []
    seeded = set()
    #: (input level, file number, decodes while read, blocks)
    reads = []

    reader_init = SSTableReader.__init__

    def counting_init(self, *args, **kwargs):
        counts["readers"] += 1
        if in_job:
            in_job[-1] += 1
        reader_init(self, *args, **kwargs)

    decode = sstable_mod.decode_block

    def counting_decode(payload):
        counts["decodes"] += 1
        return decode(payload)

    execute = db_mod.execute_compaction_job

    def watched_job(spec):
        levels = {m.file_number: m.level for m in spec.compaction.all_inputs}
        read_packed = SSTableReader.read_packed

        def counted_read(self, **kwargs):
            before = counts["decodes"]
            rows = read_packed(self, **kwargs)
            reads.append((levels[self.file_number], self.file_number,
                          counts["decodes"] - before, len(self._index)))
            return rows

        in_job.append(0)
        monkeypatch.setattr(SSTableReader, "read_packed", counted_read)
        try:
            return execute(spec)
        finally:
            monkeypatch.setattr(SSTableReader, "read_packed", read_packed)
            assert in_job.pop() == 0, "a compaction job opened a reader"

    seed = TableCache.seed

    def watched_seed(self, file_number, blocks):
        seeded.add(file_number)
        seed(self, file_number, blocks)

    monkeypatch.setattr(SSTableReader, "__init__", counting_init)
    monkeypatch.setattr(sstable_mod, "decode_block", counting_decode)
    monkeypatch.setattr(db_mod, "execute_compaction_job", watched_job)
    monkeypatch.setattr(TableCache, "seed", watched_seed)

    db = open_db()
    fill(db)  # puts only: no foreground read warms a memo
    assert db.version.num_files(2) > 0
    handed = [r for r in reads if r[1] in seeded]
    flushed = [r for r in reads if r[0] == 0]
    bottom = [r for r in reads if r[0] > 0 and r[1] not in seeded]
    assert handed and flushed and bottom
    assert all(decodes == 0 for _, _, decodes, _ in handed), handed
    assert all(decodes == blocks for _, _, decodes, blocks in flushed + bottom)
    # Every reader constructed was one the table cache opened.
    assert counts["readers"] == db._table_cache.opens
    db.close()


def test_handoffs_wait_only_for_their_reader():
    """A handoff lives until its table's reader opens or the table is
    retired; close drops what is left."""
    db = open_db()
    fill(db)
    cache = db._table_cache
    live = {
        meta.file_number
        for level in range(db.version.num_levels)
        for meta in db.version.files_at(level)
    }
    assert cache._seeds and set(cache._seeds) <= live
    assert all(
        len(blocks) <= sstable_mod._DECODED_CACHE_BLOCKS
        for blocks in cache._seeds.values()
    )
    number = next(iter(cache._seeds))
    reader, cached = cache.get(number)
    assert not cached and number not in cache._seeds and reader._decoded
    db.close()
    assert not cache._seeds


def test_crash_drops_pending_handoffs():
    env = Env()
    db = open_db(env)
    fill(db)
    cache = db._table_cache
    assert cache._seeds
    reopened = db.crash_and_reopen()
    assert not cache._seeds and not reopened._table_cache._seeds
    reopened.close()


def test_reads_through_handed_tables_match_a_cold_tree():
    """The same puts into a tree whose handoffs are all dropped before
    any read: every get and scan returns the same rows and charges the
    same virtual time."""
    envs = [Env(), Env()]
    warm, cold = open_db(envs[0]), open_db(envs[1])
    fill(warm)
    fill(cold)
    cold._table_cache._seeds.clear()
    rng = random.Random(11)
    for _ in range(400):
        key = b"%08d" % rng.randrange(3100)
        assert warm.get(key) == cold.get(key)
        assert envs[0].now_us() == envs[1].now_us()
    scans = []
    for db in (warm, cold):
        with db.iterator() as it:
            it.seek(b"%08d" % 1500)
            rows = []
            while it.valid and len(rows) < 200:
                rows.append((it.key, it.value))
                it.next()
        scans.append(rows)
    assert scans[0] == scans[1] and envs[0].now_us() == envs[1].now_us()
    warm.close()
    cold.close()
