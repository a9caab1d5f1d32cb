"""Stateful property test: PyLSM vs a model dict under random op streams,
including flushes, compactions, snapshots, and crash-reopen cycles."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.hardware import make_profile
from repro.lsm import DB, Env, Options

KEYS = st.binary(min_size=1, max_size=8)
VALUES = st.binary(max_size=24)

OPTS = {
    "write_buffer_size": 4096,  # rotate constantly: stress flush paths
    "max_bytes_for_level_base": 16 * 1024,
    "target_file_size_base": 4096,
    "bloom_filter_bits_per_key": 10.0,
}


class DBMachine(RuleBasedStateMachine):
    snapshots = Bundle("snapshots")

    @initialize()
    def setup(self):
        self.env = Env()
        self.db = DB.open("/state-db", Options(OPTS), env=self.env,
                          profile=make_profile(2, 8))
        self.model: dict[bytes, bytes] = {}
        # Live snapshot handles keyed by object identity: sequence
        # numbers restart after crash_and_reopen, so a stale pre-crash
        # handle could otherwise collide with a live post-crash one and
        # be released against the dead DB. The bundle keeps every handle
        # alive, so ids cannot be reused among them.
        self.snapshot_models: dict[int, dict[bytes, bytes]] = {}

    def teardown(self):
        if not self.db.closed:
            self.db.close()

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.db.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.db.delete(key)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def get_matches_model(self, key):
        assert self.db.get(key) == self.model.get(key)

    @rule()
    def flush(self):
        self.db.flush()

    @rule()
    def compact(self):
        self.db.compact_range()

    @rule(key=KEYS)
    def scan_window_matches_model(self, key):
        rows = self.db.scan(start=key, limit=5)
        expected = sorted(
            (k, v) for k, v in self.model.items() if k >= key
        )[:5]
        assert rows == expected

    @rule(target=snapshots)
    def take_snapshot(self, ):
        snap = self.db.snapshot()
        self.snapshot_models[id(snap)] = dict(self.model)
        return snap

    @rule(snap=snapshots, key=KEYS)
    def snapshot_read_is_frozen(self, snap, key):
        if id(snap) not in self.snapshot_models:
            return  # released earlier, or invalidated by a crash
        frozen = self.snapshot_models[id(snap)]
        assert self.db.get(key, snapshot=snap) == frozen.get(key)

    @rule(snap=snapshots)
    def release_snapshot(self, snap):
        if id(snap) in self.snapshot_models:
            snap.release()
            del self.snapshot_models[id(snap)]

    @rule()
    def crash_and_reopen(self):
        # Handles die with the DB: every live snapshot is invalidated.
        self.snapshot_models.clear()
        self.db = DB.open("/state-db", Options(OPTS), env=self.env,
                          profile=make_profile(2, 8))

    @invariant()
    def sizes_agree(self):
        if self.db.closed:
            return
        entries = sum(f.num_entries for f in self.db.version.all_files())
        entries += sum(m.num_entries for m in self.db.memtables)
        # Stale versions and tombstones count too, so the entries
        # upper-bound the model's live keys.
        assert entries >= len(self.model)


TestDBStateMachine = DBMachine.TestCase
TestDBStateMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
