"""Property: scan() == the sorted union of per-key get() results.

The lazy merge, the concat runs, and the pruning bounds must never
change *what* a scan returns — only how much work it does. This pins
the equivalence on trees shaped by both compaction styles, through
overwrites, deletes, and a snapshot pinned in the middle of the write
stream.
"""

import pytest

from repro.hardware import make_profile
from repro.lsm import DB, Options


def key(i):
    return b"%06d" % i


def reference_state(writes):
    """Replay the write log into a plain dict (None = deleted)."""
    state = {}
    for op, k, v in writes:
        if op == "put":
            state[k] = v
        else:
            state.pop(k, None)
    return state


def write_log(seed, n=2500):
    """A deterministic churn of puts/overwrites/deletes."""
    writes = []
    x = seed
    for _ in range(n):
        x = (x * 1103515245 + 12345) % (1 << 31)
        k = key(x % 900)
        if x % 11 == 0:
            writes.append(("delete", k, None))
        else:
            writes.append(("put", k, b"v%d" % (x % 10_000)))
    return writes


#: ``level`` again on buffers and files so small that a table fills in
#: the middle of one user key's versions, with a snapshot held from a
#: third of the way into every write log so compaction must keep them.
TINY_HELD = "level-tiny-held-snapshot"


@pytest.mark.parametrize("style", ["level", "universal", TINY_HELD])
class TestScanMatchesGets:
    def _open(self, style):
        tiny = style == TINY_HELD
        return DB.open(
            f"/scan-equiv-{style}",
            Options({"write_buffer_size": (4 if tiny else 8) * 1024,
                     "target_file_size_base": 8 * 1024,
                     "max_bytes_for_level_base": 32 * 1024,
                     "compaction_style": "level" if tiny else style,
                     "bloom_filter_bits_per_key": 10.0}),
            profile=make_profile(4, 8),
        )

    def _apply(self, db, style, log):
        for i, (op, k, v) in enumerate(log):
            if style == TINY_HELD and i == len(log) // 3:
                db.snapshot()  # held (never released) until close
            db.put(k, v) if op == "put" else db.delete(k)

    def _check(self, db, snapshot=None):
        rows = db.scan(snapshot=snapshot)
        keys = [key(i) for i in range(900)]
        gets = {k: db.get(k, snapshot=snapshot) for k in keys}
        expected = sorted((k, v) for k, v in gets.items() if v is not None)
        assert rows == expected

    def test_scan_equals_union_of_gets(self, style):
        db = self._open(style)
        self._apply(db, style, write_log(seed=7))
        self._check(db)
        db.flush()
        self._check(db)
        db.close()

    def test_snapshot_pinned_mid_writes(self, style):
        db = self._open(style)
        log = write_log(seed=13)
        half = len(log) // 2
        self._apply(db, style, log[:half])
        snap = db.snapshot()
        self._apply(db, style, log[half:])
        db.flush()  # flush + compactions must not disturb the pinned view
        self._check(db, snapshot=snap)
        self._check(db)
        # The snapshot view equals a replay of only the first half.
        expected = sorted(
            (k, v) for k, v in reference_state(log[:half]).items()
        )
        assert db.scan(snapshot=snap) == expected
        snap.release()
        db.close()

    def test_bounded_scan_is_a_slice(self, style):
        db = self._open(style)
        self._apply(db, style, write_log(seed=29))
        db.flush()
        full = db.scan()
        start = key(300)
        suffix = [row for row in full if row[0] >= start]
        assert db.scan(start=start) == suffix
        assert db.scan(start=start, limit=10) == suffix[:10]
        db.close()
