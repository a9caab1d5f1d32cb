"""Each table is built once and decoded at most once per lifetime.

A compaction reads its inputs through the table cache's open readers,
never through readers of its own; and an output the tree will compact
again (one above the bottommost populated level, or any L1 output,
which every L0 compaction merges into) reaches its next reader with
every block its builder kept, so the compaction that consumes it
decodes none of them. Flush outputs and bottommost L2+ outputs are not
handed over, so their consumers still decode them.
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


#: Fill-shaped: L1's target is far above the data, so every compaction
#: is L0 -> L1 with L1 bottommost, and 1 KiB blocks put the one L1 table
#: past the reader's own memo bound.
FILL_GEOMETRY = {
    "write_buffer_size": 16384,
    "block_size": 1024,
    "level0_file_num_compaction_trigger": 2,
}


def fill(db, puts=3000, seed=7):
    rng = random.Random(seed)
    for _ in range(puts):
        value = bytes(rng.randrange(256) for _ in range(rng.choice([10, 100, 200])))
        db.put(b"%08d" % rng.randrange(3000), value)
    db.wait_for_background()


def open_db(env=None, geometry=GEOMETRY):
    return DB.open("/once", Options(geometry), env=env or Env(),
                   profile=make_profile(2, 4))


def fill_flat(db, puts=3000, seed=7):
    """100-byte values under 3,000 keys: one L1 table of ~200 blocks."""
    rng = random.Random(seed)
    for _ in range(puts):
        db.put(b"%08d" % rng.randrange(3000), rng.randbytes(100))
    db.wait_for_background()


def watch_compactions(monkeypatch):
    """Count, per compaction input read, the blocks it decoded and
    decompressed, and record each compaction job's output handoff.

    Returns ``(reads, jobs)``: ``reads`` holds ``(input level, file
    number, decodes, decompresses, blocks)`` per input in read order,
    ``jobs`` holds ``(spec, output)`` per job."""
    counts = {"decodes": 0, "decompresses": 0}
    reads, jobs = [], []
    decode = sstable_mod.decode_block
    decompress = sstable_mod.decompress_block

    def counting_decode(payload):
        counts["decodes"] += 1
        return decode(payload)

    def counting_decompress(envelope, **kwargs):
        counts["decompresses"] += 1
        return decompress(envelope, **kwargs)

    execute = db_mod.execute_compaction_job

    def watched_job(spec):
        levels = {m.file_number: m.level for m in spec.compaction.all_inputs}
        read_packed = SSTableReader.read_packed

        def counted_read(self, **kwargs):
            before = dict(counts)
            rows = read_packed(self, **kwargs)
            reads.append((levels[self.file_number], self.file_number,
                          counts["decodes"] - before["decodes"],
                          counts["decompresses"] - before["decompresses"],
                          len(self._index)))
            return rows

        monkeypatch.setattr(SSTableReader, "read_packed", counted_read)
        try:
            output = execute(spec)
        finally:
            monkeypatch.setattr(SSTableReader, "read_packed", read_packed)
        jobs.append((spec, output))
        return output

    monkeypatch.setattr(sstable_mod, "decode_block", counting_decode)
    monkeypatch.setattr(sstable_mod, "decompress_block", counting_decompress)
    monkeypatch.setattr(db_mod, "execute_compaction_job", watched_job)
    return reads, jobs


def test_compactions_open_no_reader_and_decode_no_handed_block(monkeypatch):
    readers = []
    in_job = []
    seeded = set()

    reader_init = SSTableReader.__init__

    def counting_init(self, *args, **kwargs):
        readers.append(self)
        if in_job:
            in_job[-1] += 1
        reader_init(self, *args, **kwargs)

    seed = TableCache.seed

    def watched_seed(self, file_number, blocks):
        seeded.add(file_number)
        seed(self, file_number, blocks)

    monkeypatch.setattr(SSTableReader, "__init__", counting_init)
    monkeypatch.setattr(TableCache, "seed", watched_seed)
    reads, jobs = watch_compactions(monkeypatch)
    execute = db_mod.execute_compaction_job

    def job_opening_no_reader(spec):
        in_job.append(0)
        try:
            return execute(spec)
        finally:
            assert in_job.pop() == 0, "a compaction job opened a reader"

    monkeypatch.setattr(db_mod, "execute_compaction_job", job_opening_no_reader)

    db = open_db()
    fill(db)  # puts only: no foreground read warms a memo
    assert db.version.num_files(2) > 0
    handed = [r for r in reads if r[1] in seeded]
    flushed = [r for r in reads if r[0] == 0]
    bottom = [r for r in reads if r[0] > 0 and r[1] not in seeded]
    assert handed and flushed and bottom
    assert all(decodes == 0 for _, _, decodes, _, _ in handed), handed
    assert all(decodes == blocks for _, _, decodes, _, blocks in flushed + bottom)
    # Bottommost outputs below L1 are still not handed over.
    deep = [out for spec, out in jobs
            if spec.bottommost and spec.compaction.output_level >= 2]
    assert deep and all(out.blocks == [] for out in deep)
    # Every reader constructed was one the table cache opened.
    assert len(readers) == db._table_cache.opens
    db.close()


def test_each_l1_table_reaches_the_next_l0_compaction_decoded(monkeypatch):
    """In a fill, L1 is the bottom level and every compaction merges L0
    into it: the L1 table the last compaction wrote is read by the next
    one with no block decoded or decompressed, past 128 blocks too."""
    reads, jobs = watch_compactions(monkeypatch)
    db = open_db(geometry=FILL_GEOMETRY)
    fill_flat(db)
    assert db.version.max_populated_level() == 1
    assert len(jobs) > 3
    assert all(spec.bottommost and spec.compaction.level == 0
               and spec.compaction.output_level == 1 for spec, _ in jobs)
    # The first compaction finds L1 empty; each later one reads the
    # one table the one before it wrote.
    assert all(len(out.result.new_files) == 1 for _, out in jobs)
    l1_reads = [r for r in reads if r[0] == 1]
    assert len(l1_reads) == len(jobs) - 1
    assert all(decodes == 0 and decompresses == 0
               for _, _, decodes, decompresses, _ in l1_reads), l1_reads
    assert max(blocks for *_, blocks in l1_reads) > sstable_mod._DECODED_CACHE_BLOCKS
    # Each handoff is the whole table: as many blocks as the next
    # compaction reads from it.
    kept = [len(out.blocks[0]) for _, out in jobs[:-1]]
    assert kept == [blocks for *_, blocks in l1_reads]
    # L0 inputs (flush outputs) are still decoded in full.
    assert all(decodes == blocks for level, _, decodes, _, blocks in reads
               if level == 0)
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
    number = next(iter(cache._seeds))
    reader, cached = cache.get(number)
    assert not cached and number not in cache._seeds
    assert len(reader._decoded) == len(reader._index)  # every block
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
