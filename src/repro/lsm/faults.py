"""Deterministic fault injection and the crash-recovery property harness.

Three layers, smallest first:

* :class:`FaultFS` — a wrapper around :class:`~repro.lsm.env.MemFileSystem`
  that counts every *mutating* filesystem call (append, sync, create,
  delete) in one deterministic stream and can, at a scheduled
  index, kill the simulated process (:class:`~repro.errors.SimulatedCrash`,
  with a seeded torn tail when the victim call is an append) or fail one
  call (:class:`~repro.errors.InjectedIOError`). Its :meth:`FaultFS.crash`
  materializes the post-crash disk: synced bytes always survive; each
  file's unsynced tail survives as a seeded prefix (possibly garbled —
  partial sector writes), and never-synced files usually vanish. Every
  injected fault is published as a :class:`~repro.obs.events.FaultInjected`
  /:class:`~repro.obs.events.CrashSimulated` trace event carrying the op
  index, so a failing schedule is replayable from its trace.

* :class:`KVModel` + :func:`check_crash_invariants` — a write-history
  model of what the store was told, and the post-recovery oracle: every
  write at or below the durability watermark must read back (no value
  older than its durable version, no invented values), the MANIFEST must
  only reference files that exist, no orphan SSTs may survive recovery,
  and never-written keys stay absent. Stale-read checks double as the
  L0-recency-order gate: distinct values per overwrite make any ordering
  regression read back as a too-old value.

* :func:`run_crash_schedule` / :func:`sweep` — one seeded workload
  (fillrandom with overwrites, deletes and small write batches, explicit
  flush, compaction churn, a tuning-style restart with a changed option)
  crashed at an arbitrary point in the syscall stream, recovered, and
  checked; and the randomized sweep over many such schedules across all
  three compaction styles. ``scripts/crashmonkey.py`` is the CLI;
  ``scripts/check.sh`` gates every PR on a bounded sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import DBError, InjectedIOError, SimulatedCrash
from repro.lsm.env import Env, MemFileSystem, RandomAccessFile, WritableFile
from repro.lsm.write_batch import WriteBatch
from repro.obs.events import CrashSimulated, FaultInjected
from repro.obs.tracer import NULL_TRACER, Tracer


class _FaultWritableFile:
    """Append-only handle that routes mutations through the fault gate."""

    def __init__(self, fs: "FaultFS", inner: WritableFile) -> None:
        self._fs = fs
        self._inner = inner

    @property
    def path(self) -> str:
        return self._inner.path

    def append(self, data: bytes) -> int:
        self._fs._gate_append(self._inner, data)
        return self._inner.append(data)

    def _adopt(self, data: bytearray) -> int:
        # A move is an append to the schedule: same op index, same torn
        # prefix (copied) when the crash lands on it.
        self._fs._gate_append(self._inner, data)
        return self._inner._adopt(data)

    def sync(self) -> int:
        self._fs._gate("sync", self._inner.path)
        return self._inner.sync()

    def size(self) -> int:
        self._fs._check_alive()
        return self._inner.size()

    def unsynced_bytes(self) -> int:
        self._fs._check_alive()
        return self._inner.unsynced_bytes()

    def close(self) -> None:
        # Closing a handle is not a durability event; allowed even after
        # the crash fired so cleanup paths don't mask the SimulatedCrash.
        self._inner.close()


class FaultFS:
    """A fault-injecting view over a :class:`MemFileSystem`.

    All engine-visible behaviour is delegated to ``inner``; this layer
    only counts mutating calls, fires scheduled faults, and models the
    crash image. Reads are never faulted (crash testing targets the
    write/recovery path) but do fail once the process is "dead".
    """

    def __init__(self, *, seed: int = 0, tracer: Tracer | None = None) -> None:
        self.inner = MemFileSystem()
        self._seed = seed
        self._rng = random.Random(seed)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._op_index = 0
        self._crash_at: int | None = None
        self._error_ops: set[int] = set()
        self._crashed = False

    # -- scheduling --------------------------------------------------------

    @property
    def op_index(self) -> int:
        """Mutating calls observed so far (the schedule coordinate)."""
        return self._op_index

    @property
    def crashed(self) -> bool:
        return self._crashed

    def schedule_crash(self, at_op: int | None) -> None:
        """Kill the process at mutating-call index ``at_op`` (None: never)."""
        self._crash_at = at_op

    def schedule_error(self, at_op: int) -> None:
        """Fail the single mutating call at index ``at_op`` with
        :class:`InjectedIOError`; the filesystem stays alive."""
        self._error_ops.add(at_op)

    # -- the gate ----------------------------------------------------------

    def _check_alive(self) -> None:
        if self._crashed:
            raise SimulatedCrash("filesystem gone: simulated process crash")

    def _fire(self, op: str, path: str, idx: int, kind: str, detail: str = "") -> None:
        if self._tracer.enabled:
            self._tracer.emit(FaultInjected(op, path, idx, kind, detail))

    def _gate(self, op: str, path: str) -> None:
        self._check_alive()
        idx = self._op_index
        self._op_index += 1
        if idx in self._error_ops:
            self._error_ops.discard(idx)
            self._fire(op, path, idx, "io_error")
            raise InjectedIOError(f"injected {op} failure on {path}")
        if self._crash_at is not None and idx >= self._crash_at:
            self._crashed = True
            self._fire(op, path, idx, "crash", detail=f"seed={self._seed}")
            raise SimulatedCrash(f"crash at op {idx} ({op} {path})")

    def _gate_append(self, inner_file: WritableFile, data: bytes) -> None:
        """Like :meth:`_gate`, but a crash tears the append: a seeded
        prefix of ``data`` reaches the (unsynced part of the) file."""
        self._check_alive()
        idx = self._op_index
        self._op_index += 1
        if idx in self._error_ops:
            self._error_ops.discard(idx)
            self._fire("append", inner_file.path, idx, "io_error")
            raise InjectedIOError(f"injected append failure on {inner_file.path}")
        if self._crash_at is not None and idx >= self._crash_at:
            self._crashed = True
            kept = self._rng.randint(0, max(0, len(data) - 1))
            if kept:
                inner_file.append(data[:kept])
            self._fire(
                "append", inner_file.path, idx, "torn_append",
                detail=f"kept={kept}/{len(data)} seed={self._seed}",
            )
            raise SimulatedCrash(
                f"crash during append at op {idx} ({inner_file.path})"
            )

    # -- crash image -------------------------------------------------------

    def crash(self) -> dict:
        """Materialize the post-crash disk and revive the filesystem.

        Synced bytes always survive. For each file's unsynced tail a
        seeded prefix survives (the page cache had flushed part of it),
        occasionally with a garbled byte (a partially-written sector).
        Files never synced at all usually vanish — their directory entry
        was never made durable — but sometimes survive as partial junk.
        Clears the crashed flag and all schedules; returns a summary.
        """
        rng = self._rng
        files = self.inner._files
        dropped_files = 0
        bytes_dropped = 0
        files_torn = 0
        for path in sorted(files):
            f = files[path]
            unsynced = len(f.data) - f.synced_bytes
            if f.synced_bytes == 0 and rng.random() < 0.75:
                bytes_dropped += len(f.data)
                del files[path]
                dropped_files += 1
                continue
            keep = f.synced_bytes + (rng.randint(0, unsynced) if unsynced > 0 else 0)
            if keep < len(f.data):
                bytes_dropped += len(f.data) - keep
                del f.data[keep:]
                files_torn += 1
            if keep > f.synced_bytes and rng.random() < 0.25:
                pos = rng.randrange(f.synced_bytes, keep)
                f.data[pos] ^= 0xFF
            f.synced_bytes = len(f.data)
        self._crashed = False
        self._crash_at = None
        self._error_ops.clear()
        if self._tracer.enabled:
            self._tracer.emit(
                CrashSimulated(
                    files_dropped=dropped_files,
                    bytes_dropped=bytes_dropped,
                    files_torn=files_torn,
                    op_index=self._op_index,
                )
            )
        return {
            "files_dropped": dropped_files,
            "bytes_dropped": bytes_dropped,
            "files_torn": files_torn,
        }

    # -- delegated filesystem surface -------------------------------------

    def create(self, path: str, *, overwrite: bool = False) -> _FaultWritableFile:
        self._gate("create", path)
        return _FaultWritableFile(self, self.inner.create(path, overwrite=overwrite))

    def open_writable(self, path: str) -> _FaultWritableFile:
        # Opening for append mutates only when the file is missing; count
        # it like create so schedules cover it uniformly.
        self._gate("create", path)
        return _FaultWritableFile(self, self.inner.open_writable(path))

    def open_random(self, path: str) -> RandomAccessFile:
        self._check_alive()
        return self.inner.open_random(path)

    def exists(self, path: str) -> bool:
        self._check_alive()
        return self.inner.exists(path)

    def delete(self, path: str) -> None:
        self._gate("delete", path)
        self.inner.delete(path)

    def file_size(self, path: str) -> int:
        self._check_alive()
        return self.inner.file_size(path)

    def list_dir(self, prefix: str) -> list[str]:
        self._check_alive()
        return self.inner.list_dir(prefix)

    def total_bytes(self) -> int:
        self._check_alive()
        return self.inner.total_bytes()

    def read_all(self, path: str) -> bytes:
        self._check_alive()
        return self.inner.read_all(path)

    def corrupt(self, path: str, offset: int, new_byte: int) -> None:
        self.inner.corrupt(path, offset, new_byte)

    def truncate(self, path: str, size: int) -> None:
        self.inner.truncate(path, size)


# ------------------------------------------------- multi-env schedules

class FaultEnvFactory:
    """One :class:`FaultFS`-backed :class:`Env` per (shard, replica).

    The service-level chaos harness plugs this into
    ``ShardedService.env_factory`` so *every* replica in the fleet runs
    over a fault-injecting filesystem with its own deterministic
    mutating-op stream; a schedule then arms a crash on exactly one
    victim. Envs are remembered by (shard, replica) key so the harness
    can read op indices and crash flags after the run.

    Arming is offset-based and defer-friendly: :meth:`arm_after`
    schedules the crash ``ops_from_now`` mutating calls past the
    victim's *current* op index — call it from
    ``ShardedService.on_serving_start`` and the preload can never be
    the victim. If the victim env does not exist yet (a reshard
    recipient opened mid-run), the arm is stored and applied the moment
    the factory creates it, so the crash lands inside the drain
    install.
    """

    def __init__(self, seed: int = 0, *, tracer: Tracer | None = None) -> None:
        self._seed = seed
        self._tracer = tracer
        self.envs: dict[tuple[int, int], Env] = {}
        self._pending_arms: dict[tuple[int, int], int] = {}

    def __call__(self, shard: int, replica: int) -> Env:
        fs = FaultFS(
            seed=self._seed ^ (0x9E3779B1 * (shard * 8 + replica + 1) & 0x7FFFFFFF),
            tracer=self._tracer,
        )
        env = Env(fs=fs)
        self.envs[(shard, replica)] = env
        offset = self._pending_arms.pop((shard, replica), None)
        if offset is not None:
            fs.schedule_crash(fs.op_index + offset)
        return env

    def fs(self, shard: int, replica: int) -> FaultFS:
        return self.envs[(shard, replica)].fs  # type: ignore[return-value]

    def arm_after(self, shard: int, replica: int, ops_from_now: int) -> None:
        """Crash (shard, replica) ``ops_from_now`` mutating calls from
        its current position (or from creation, if it does not exist
        yet)."""
        key = (shard, replica)
        env = self.envs.get(key)
        if env is None:
            self._pending_arms[key] = ops_from_now
            return
        fs = env.fs
        fs.schedule_crash(fs.op_index + ops_from_now)

    def op_index(self, shard: int, replica: int) -> int:
        env = self.envs.get((shard, replica))
        return env.fs.op_index if env is not None else 0

    def crashed(self, shard: int, replica: int) -> bool:
        env = self.envs.get((shard, replica))
        return bool(env is not None and env.fs.crashed)


# --------------------------------------------------------------- oracle

@dataclass
class KVModel:
    """Write history + durability watermark: what the store was told.

    ``history`` maps key -> [(seq, value-or-None)] in ack order (None is
    a tombstone); ``durable`` is the highest sequence the engine had
    promised durable the last time the harness looked.
    """

    history: dict = field(default_factory=dict, init=False)
    durable: int = field(default=0, init=False)
    ticket: int = field(default=0, init=False)

    def record(self, key: bytes, value: bytes | None, seq: int) -> None:
        self.history.setdefault(key, []).append((seq, value))

    def mark_durable(self, seq: int) -> None:
        if seq > self.durable:
            self.durable = seq

    def next_value(self, rng: random.Random) -> bytes:
        """Distinct per write, so stale reads are distinguishable."""
        self.ticket += 1
        return b"v%06d:" % self.ticket + b"x" * rng.randint(20, 90)


#: Never-written keys the oracle probes after recovery.
_PROBE_ABSENT = 5


def check_crash_invariants(db, model: KVModel) -> list[str]:
    """Post-recovery oracle; returns human-readable violations (empty = ok).

    1. Durability: each key reads back a value no older than its newest
       durable version (acked-but-unsynced writes may surface or not —
       both are legal — but a *pre*-durable value is a lost write and a
       too-old value is a stale read, e.g. broken L0 recency order).
    2. Catalog: every MANIFEST-declared file exists; recovery left no
       orphan SSTs behind.
    3. No invention: never-written keys stay absent.
    """
    violations: list[str] = []
    # Recovery replays the WAL and *schedules* flushes; their tables hit
    # the filesystem before their edits hit the MANIFEST. Drain that
    # in-flight work first or it reads as false orphans.
    db.wait_for_background()
    fs = db.env.fs
    referenced = {meta.file_number for meta in db.version.all_files()}
    for meta in db.version.all_files():
        path = f"{db.path}/{meta.file_number:06d}.sst"
        if not fs.exists(path):
            violations.append(f"MANIFEST references missing file {path}")
    for path in fs.list_dir(db.path):
        if path.endswith(".sst"):
            number = int(path.rsplit("/", 1)[-1].split(".")[0])
            if number not in referenced:
                violations.append(f"orphan SST survived recovery: {path}")
    for key, versions in model.history.items():
        try:
            got = db.get(key)
        except DBError as exc:  # includes CorruptionError / FileNotFound
            violations.append(f"get({key!r}) raised {type(exc).__name__}: {exc}")
            continue
        durable_seqs = [s for s, _ in versions if s <= model.durable]
        floor_seq = max(durable_seqs) if durable_seqs else 0
        acceptable = {v for s, v in versions if s >= floor_seq}
        if floor_seq == 0:
            acceptable.add(None)
        if got not in acceptable:
            durable_val = next(
                (v for s, v in reversed(versions) if s <= model.durable), None
            )
            violations.append(
                f"key {key!r}: recovered {got!r}, durable version (seq "
                f"{floor_seq}) was {durable_val!r}, watermark {model.durable}"
            )
    for i in range(_PROBE_ABSENT):
        probe = b"__never_written_%d" % i
        if db.get(probe) is not None:
            violations.append(f"phantom key materialized: {probe!r}")
    return violations


# -------------------------------------------------------------- harness

#: Small-buffer base config: a few hundred writes exercise rotation,
#: flush, and compaction for every style.
BASE_OVERRIDES = {
    "write_buffer_size": 4096,
    "max_write_buffer_number": 3,
    "level0_file_num_compaction_trigger": 2,
    "target_file_size_base": 8192,
    "max_bytes_for_level_base": 16384,
}

STYLES = ("level", "universal", "fifo")

_DB_PATH = "/crash/db"
_KEYSPACE = 90


@dataclass
class ScheduleResult:
    """Outcome of one crash schedule."""

    style: str
    crash_at: int | None
    seed: int
    crashed: bool
    ops_issued: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _overrides(style: str, **extra) -> dict:
    overrides = dict(BASE_OVERRIDES)
    overrides["compaction_style"] = style
    overrides.update(extra)
    return overrides


def _step(db, model: KVModel, rng: random.Random) -> None:
    # Record BEFORE issuing, under the sequence each op will be
    # assigned: if a crash lands inside the call after the WAL append
    # (e.g. during the rotation it triggered), the write may still
    # surface at recovery, and the oracle must know it was possible.
    # About one step in ten is a 2-4 op WriteBatch, so crash points
    # also land inside a group commit's single append.
    seq = db.last_sequence + 1
    if rng.random() < 0.1:
        batch = WriteBatch()
        for i in range(rng.randint(2, 4)):
            _record_op(model, rng, seq + i, batch.put, batch.delete)
        db.write(batch)
    else:
        _record_op(model, rng, seq, db.put, db.delete)
    model.mark_durable(db.durable_sequence)
    if rng.random() < 0.05:
        db.get(b"key%03d" % rng.randrange(_KEYSPACE))


def _record_op(model: KVModel, rng: random.Random, seq: int, put, delete) -> None:
    """Draw one put or delete, record it under ``seq``, then issue it."""
    key = b"key%03d" % rng.randrange(_KEYSPACE)
    if rng.random() < 0.12:
        model.record(key, None, seq)
        delete(key)
    else:
        value = model.next_value(rng)
        model.record(key, value, seq)
        put(key, value)


def _workload(env, style: str, model: KVModel, seed: int, profile) -> None:
    """Deterministic timeline: fillrandom -> flush -> compaction churn ->
    tuning-style restart with a changed option -> clean close."""
    from repro.lsm.db import DB
    from repro.lsm.options import Options

    rng = random.Random(seed)  # workload stream, independent of fault rng
    db = DB.open(_DB_PATH, Options(_overrides(style)), env=env, profile=profile)
    model.mark_durable(db.durable_sequence)
    for _ in range(140):
        _step(db, model, rng)
    db.flush(wait_compactions=False)
    model.mark_durable(db.durable_sequence)
    for _ in range(120):
        _step(db, model, rng)
    db.wait_for_background()
    model.mark_durable(db.durable_sequence)
    # One tuning iteration: the loop applies a config change, which in
    # deployment means a restart — crash points must cover it too.
    db.close()
    model.mark_durable(db.durable_sequence)
    db = DB.open(
        _DB_PATH,
        Options(_overrides(style, write_buffer_size=6144)),
        env=env,
        profile=profile,
    )
    model.mark_durable(db.durable_sequence)
    for _ in range(100):
        _step(db, model, rng)
    db.close()
    model.mark_durable(db.durable_sequence)


def run_crash_schedule(
    style: str,
    crash_at: int | None,
    seed: int = 0,
    *,
    tracer: Tracer | None = None,
) -> ScheduleResult:
    """Run one workload, crash at ``crash_at`` (None: run to completion),
    recover, and check the invariants. Fully deterministic in
    (style, crash_at, seed)."""
    from repro.lsm.db import DB
    from repro.lsm.options import Options
    from repro.hardware.profile import make_profile

    profile = make_profile(4, 8)
    fs = FaultFS(seed=seed ^ 0xFA17, tracer=tracer)
    env = Env(fs=fs)
    model = KVModel()
    fs.schedule_crash(crash_at)
    crashed = False
    try:
        _workload(env, style, model, seed, profile)
    except SimulatedCrash:
        crashed = True
    ops_issued = fs.op_index
    fs.crash()
    try:
        db = DB.open(
            _DB_PATH, Options(_overrides(style)), env=env, profile=profile
        )
    except DBError as exc:
        # Crash damage must never look like corruption (or any other
        # engine error) to recovery — torn tails are expected, not fatal.
        kind = type(exc).__name__
        return ScheduleResult(
            style, crash_at, seed, crashed, ops_issued,
            [f"recovery raised {kind}: {exc}"],
        )
    violations = check_crash_invariants(db, model)
    db.close()
    return ScheduleResult(style, crash_at, seed, crashed, ops_issued, violations)


def sweep(
    schedules: int,
    seed: int = 0,
    *,
    styles: tuple = STYLES,
    tracer: Tracer | None = None,
    on_schedule=None,
) -> list[ScheduleResult]:
    """Randomized seeded sweep: ``schedules`` crash points spread across
    ``styles`` and the whole syscall timeline. Returns every result;
    failing ones carry their (style, crash_at, seed) replay coordinates."""
    rng = random.Random(seed)
    totals = {}
    for style in styles:
        baseline = run_crash_schedule(style, None, seed=seed)
        if baseline.violations:
            return [baseline]
        totals[style] = baseline.ops_issued
    results = []
    for i in range(schedules):
        style = styles[i % len(styles)]
        crash_at = rng.randrange(max(1, totals[style] + 1))
        schedule_seed = rng.randrange(1 << 30)
        result = run_crash_schedule(style, crash_at, schedule_seed, tracer=tracer)
        results.append(result)
        if on_schedule is not None:
            on_schedule(result)
    return results
