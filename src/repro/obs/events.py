"""Typed trace events: the vocabulary of the observability spine.

Every observable fact in the system — an engine flush, a write stall, a
benchmark progress sample, a tuning-loop decision — is one dataclass
here. Events are plain data: JSON-safe scalar fields (plus lists of
scalars), a class-level ``TYPE`` string, and a keyword-only ``t_us``
timestamp in *virtual* microseconds, stamped by the
:class:`~repro.obs.tracer.Tracer` at emission. Because timestamps come
from the simulated clock, traces are deterministic: the same task
produces byte-identical JSONL whether it ran serially, in a worker
process, or was replayed from the result cache.

Serialization is a registry round-trip: :func:`event_to_dict` /
:func:`event_from_dict` (and the JSONL line forms) reconstruct the exact
dataclass, so ``from_jsonl_line(to_jsonl_line(e)) == e`` holds for every
registered type — ``scripts/check.sh`` enforces this invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Iterator

from repro.errors import ReproError


class TraceError(ReproError):
    """Malformed trace data (unknown type, bad fields, bad JSON)."""


#: type string -> event class; populated by :func:`register_event`.
_REGISTRY: dict[str, type["TraceEvent"]] = {}


def register_event(cls: type["TraceEvent"]) -> type["TraceEvent"]:
    """Class decorator: make an event type JSONL round-trippable."""
    if not cls.TYPE:
        raise TraceError(f"{cls.__name__} must define a TYPE string")
    if cls.TYPE in _REGISTRY:
        raise TraceError(f"duplicate event type {cls.TYPE!r}")
    _REGISTRY[cls.TYPE] = cls
    return cls


def event_types() -> dict[str, type["TraceEvent"]]:
    """The full registry (type string -> class), for tooling."""
    return dict(_REGISTRY)


@dataclass
class TraceEvent:
    """Base class: one timestamped, typed observation."""

    TYPE: ClassVar[str] = ""

    #: Virtual-clock timestamp (microseconds); stamped at emission.
    t_us: float = field(default=0.0, kw_only=True)

    @property
    def type(self) -> str:
        return self.TYPE


# --------------------------------------------------------------- spans

@register_event
@dataclass
class SpanBegin(TraceEvent):
    """A named region of work opened (spans nest by ``depth``)."""

    TYPE: ClassVar[str] = "span.begin"
    name: str
    depth: int = 0


@register_event
@dataclass
class SpanEnd(TraceEvent):
    """The matching close; ``duration_us`` is virtual time inside."""

    TYPE: ClassVar[str] = "span.end"
    name: str
    depth: int = 0
    duration_us: float = 0.0


# -------------------------------------------------------------- engine

@register_event
@dataclass
class FlushRun(TraceEvent):
    """One flush job merged immutable memtables into an L0 table."""

    TYPE: ClassVar[str] = "engine.flush.run"
    memtables: int
    entries_in: int
    entries_out: int
    bytes_in: int
    bytes_out: int


@register_event
@dataclass
class FlushInstalled(TraceEvent):
    """A finished flush was applied to the live version."""

    TYPE: ClassVar[str] = "engine.flush.installed"
    bytes_out: int
    duration_us: float
    l0_files: int


@register_event
@dataclass
class BgSubmit(TraceEvent):
    """A flush/compaction job was submitted to the background scheduler.

    Carries the lower-bound completion time computed from what is known
    at schedule time (input bytes and entries, no output bytes): the
    bound a slot is booked until, settled at the matching ``BgJoin``.
    """

    TYPE: ClassVar[str] = "engine.bg.submit"
    kind: str
    job_id: int
    lower_bound_due_us: float


@register_event
@dataclass
class BgJoin(TraceEvent):
    """A background job's result was joined on the foreground."""

    TYPE: ClassVar[str] = "engine.bg.join"
    kind: str
    job_id: int
    due_us: float
    duration_us: float


@register_event
@dataclass
class CompactionRun(TraceEvent):
    """One compaction merge executed (not yet installed)."""

    TYPE: ClassVar[str] = "engine.compaction.run"
    level: int
    output_level: int
    inputs: int
    bytes_read: int
    bytes_written: int
    entries_merged: int
    entries_dropped: int


@register_event
@dataclass
class CompactionInstalled(TraceEvent):
    """A finished compaction was applied to the live version."""

    TYPE: ClassVar[str] = "engine.compaction.installed"
    level: int
    output_level: int
    bytes_read: int
    bytes_written: int
    duration_us: float


@register_event
@dataclass
class FifoDrop(TraceEvent):
    """FIFO compaction dropped the oldest files."""

    TYPE: ClassVar[str] = "engine.fifo.drop"
    files_dropped: int
    bytes_dropped: int


@register_event
@dataclass
class WriteStateChange(TraceEvent):
    """The write controller moved between NORMAL/DELAYED/STOPPED."""

    TYPE: ClassVar[str] = "engine.write.state"
    state: str
    reason: str = ""


@register_event
@dataclass
class StallEvent(TraceEvent):
    """A write paid stall latency (delayed pacing, stop wait, wedge)."""

    TYPE: ClassVar[str] = "engine.stall"
    kind: str  # "delayed" | "stopped" | "wedged"
    reason: str
    wait_us: float


@register_event
@dataclass
class MemtableRotate(TraceEvent):
    """The active memtable was sealed and a new one started."""

    TYPE: ClassVar[str] = "engine.memtable.rotate"
    memtable_bytes: int
    immutables: int


@register_event
@dataclass
class CacheEviction(TraceEvent):
    """The block cache evicted one entry under capacity pressure."""

    TYPE: ClassVar[str] = "engine.cache.evict"
    file_number: int
    offset: int
    charge: int


# ----------------------------------------------------------- iterators

@register_event
@dataclass
class IteratorSeek(TraceEvent):
    """One cursor seek positioned (or exhausted) the lazy merged view.

    ``sources`` counts the merge inputs *considered* — memtables, L0
    files, and one concatenating source per populated L1+ level; how
    many actually opened shows up in the cursor's close summary.
    """

    TYPE: ClassVar[str] = "iterator.seek"
    target: str  # user key (utf-8, lossy); "" = seek-to-first
    sources: int
    valid: bool
    latency_us: float


@register_event
@dataclass
class IteratorClose(TraceEvent):
    """A cursor was released: its lifetime lazy-open accounting."""

    TYPE: ClassVar[str] = "iterator.close"
    seeks: int
    nexts: int
    tables_opened: int
    blocks_read: int
    device_bytes: int


# ------------------------------------------------------------ multiget

@register_event
@dataclass
class MultiGetBatch(TraceEvent):
    """One batched ``DB.multi_get`` call (grouped, shared block reads)."""

    TYPE: ClassVar[str] = "multiget.batch"
    keys: int
    found: int
    blocks_read: int
    device_bytes: int
    latency_us: float


# -------------------------------------------------------------- faults

@register_event
@dataclass
class FaultInjected(TraceEvent):
    """The fault layer fired one scheduled fault at a filesystem call.

    ``op_index`` is the position in the deterministic mutation-syscall
    stream, so a failing schedule can be rebuilt from its trace alone.
    """

    TYPE: ClassVar[str] = "fault.injected"
    op: str  # "append" | "sync" | "create" | "rename" | "delete"
    path: str
    op_index: int
    kind: str  # "crash" | "torn_append" | "io_error"
    detail: str = ""


@register_event
@dataclass
class CrashSimulated(TraceEvent):
    """The post-crash disk image was materialized (unsynced state cut)."""

    TYPE: ClassVar[str] = "fault.crash"
    files_dropped: int
    bytes_dropped: int
    files_torn: int
    op_index: int


# --------------------------------------------------------------- bench

@register_event
@dataclass
class BenchStart(TraceEvent):
    """A db_bench run began its measured phase."""

    TYPE: ClassVar[str] = "bench.start"
    benchmark: str
    num_ops: int
    num_keys: int


@register_event
@dataclass
class BenchProgress(TraceEvent):
    """Periodic progress sample (the old ``ProgressEvent``)."""

    TYPE: ClassVar[str] = "bench.progress"
    ops_done: int
    total_ops: int
    elapsed_virtual_s: float
    ops_per_sec: float


@register_event
@dataclass
class BenchAbort(TraceEvent):
    """The run was aborted early (e.g. by the benchmark monitor)."""

    TYPE: ClassVar[str] = "bench.abort"
    reason: str


@register_event
@dataclass
class BenchEnd(TraceEvent):
    """A db_bench run finished (or aborted) its measured phase."""

    TYPE: ClassVar[str] = "bench.end"
    ops_done: int
    reads_done: int
    writes_done: int
    duration_s: float
    ops_per_sec: float
    aborted: bool


# ------------------------------------------------------------- service

@register_event
@dataclass
class ServiceStart(TraceEvent):
    """A sharded multi-client service run began its measured phase."""

    TYPE: ClassVar[str] = "service.start"
    benchmark: str
    shards: int
    clients: int
    num_ops: int
    group_commit: bool


@register_event
@dataclass
class GroupCommit(TraceEvent):
    """One write group committed on a shard (one WAL sync boundary).

    ``size`` writers were coalesced: the leader executed the batch and
    ``size - 1`` followers were completed on its behalf.
    """

    TYPE: ClassVar[str] = "service.group_commit"
    shard: int
    size: int
    leader_client: int
    latency_us: float


@register_event
@dataclass
class ShardSummary(TraceEvent):
    """Per-shard accounting emitted once at the end of a service run."""

    TYPE: ClassVar[str] = "service.shard"
    shard: int
    requests: int
    reads: int
    writes: int
    groups: int
    wal_syncs: int
    db_size_bytes: int


@register_event
@dataclass
class ServiceEnd(TraceEvent):
    """A service run finished; headline group-commit economics inline."""

    TYPE: ClassVar[str] = "service.end"
    ops_done: int
    reads_done: int
    writes_done: int
    duration_s: float
    groups: int
    grouped_writes: int
    wal_syncs: int


@register_event
@dataclass
class ServiceProgress(TraceEvent):
    """Periodic progress sample from a running service benchmark.

    Mirrors :class:`BenchProgress` (the monitor reads the same first four
    fields) and adds the mix counters the drift detector characterizes
    workload phases from.
    """

    TYPE: ClassVar[str] = "service.progress"
    ops_done: int
    total_ops: int
    elapsed_virtual_s: float
    ops_per_sec: float
    reads_done: int
    writes_done: int
    cache_hit_rate: float


@register_event
@dataclass
class ReshardBegin(TraceEvent):
    """A live topology change started: the donor's moving range was
    drained at a pinned snapshot and the migration journal opened."""

    TYPE: ClassVar[str] = "service.reshard.begin"
    kind: str  # "split" | "merge"
    donor: int
    recipient: int
    vnodes_moved: int
    keys_drained: int
    shards_after: int
    ops_at: int


@register_event
@dataclass
class ReshardEnd(TraceEvent):
    """The ring swapped atomically: journal replayed, queued requests
    migrated, the donor (split) or victim (merge) released its range."""

    TYPE: ClassVar[str] = "service.reshard.end"
    kind: str  # "split" | "merge"
    donor: int
    recipient: int
    journal_replayed: int
    queued_migrated: int
    duration_us: float
    shards_after: int


# ---------------------------------------------------------- replication

@register_event
@dataclass
class ReplicaShip(TraceEvent):
    """A leader shipped a write group to its followers over the virtual
    network; the service ack waited for ``acks_needed`` durable acks."""

    TYPE: ClassVar[str] = "replica.ship"
    shard: int
    group_size: int
    followers: int
    acks_needed: int
    leader_seq: int


@register_event
@dataclass
class ReplicaCrash(TraceEvent):
    """A replica died on an injected fault. Leader crashes start the
    lease-failover timeline; follower crashes just shrink the group."""

    TYPE: ClassVar[str] = "replica.crash"
    shard: int
    replica: int
    role: str  # "leader" | "follower"
    durable_seq: int
    op_index: int


@register_event
@dataclass
class ReplicaPromote(TraceEvent):
    """The freshest durable follower recovered its DB and became the
    shard's new leader."""

    TYPE: ClassVar[str] = "replica.promote"
    shard: int
    replica: int
    durable_seq: int
    lag_behind_leader: int


@register_event
@dataclass
class FailoverBegin(TraceEvent):
    """A shard leader crashed; the shard is unavailable until the
    leader lease expires on the virtual clock."""

    TYPE: ClassVar[str] = "service.failover.begin"
    shard: int
    crashed_replica: int
    lease_timeout_us: float
    pending_cancelled: int
    requeued: int


@register_event
@dataclass
class FailoverEnd(TraceEvent):
    """The lease expired and a follower took over; queued requests now
    drain against the promoted leader."""

    TYPE: ClassVar[str] = "service.failover.end"
    shard: int
    new_leader: int
    duration_us: float
    queued_writes: int
    queued_reads: int


# ------------------------------------------------------ dynamic options

@register_event
@dataclass
class SetOptions(TraceEvent):
    """A live DB applied a mutable-option diff without reopening."""

    TYPE: ClassVar[str] = "db.set_options"
    #: Applied ``[name, old, new]`` triples (paper-unit values).
    changes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        # Tuples arrive from the engine; JSON yields lists. Normalize
        # so round-tripped events compare equal.
        self.changes = [list(item) for item in self.changes]


@register_event
@dataclass
class WorkloadDrift(TraceEvent):
    """A rolling-window phase characterization changed materially."""

    TYPE: ClassVar[str] = "workload.drift"
    metric: str  # "read_fraction" | "cache_hit_rate"
    previous: float
    current: float
    window_ops: int


# -------------------------------------------------------------- tuning

@register_event
@dataclass
class SessionStart(TraceEvent):
    """An ELMo-Tune session opened."""

    TYPE: ClassVar[str] = "tune.session.start"
    workload: str
    profile: str


@register_event
@dataclass
class IterationStart(TraceEvent):
    """One loop turn began (iteration 0 is the baseline run)."""

    TYPE: ClassVar[str] = "tune.iteration.start"
    iteration: int


@register_event
@dataclass
class LLMExchange(TraceEvent):
    """One LLM round-trip (including format retries) completed."""

    TYPE: ClassVar[str] = "tune.llm.exchange"
    proposals: int
    parse_failures: int


@register_event
@dataclass
class Veto(TraceEvent):
    """The safeguard rejected one proposed change."""

    TYPE: ClassVar[str] = "tune.veto"
    name: str
    raw_value: str
    reason: str
    category: str


@register_event
@dataclass
class FlagDecisionEvent(TraceEvent):
    """The active flagger's keep-or-revert verdict."""

    TYPE: ClassVar[str] = "tune.flag"
    keep: bool
    improved: bool
    reason: str
    best_ops_per_sec: float
    candidate_ops_per_sec: float


@register_event
@dataclass
class IterationEnd(TraceEvent):
    """One loop turn finished; carries the applied option diff."""

    TYPE: ClassVar[str] = "tune.iteration.end"
    iteration: int
    kept: bool
    ops_per_sec: float
    #: Accepted ``[name, value]`` pairs (empty when nothing was applied).
    changes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        # Tuples arrive from the safeguard; JSON yields lists. Normalize
        # so round-tripped events compare equal.
        self.changes = [list(pair) for pair in self.changes]


@register_event
@dataclass
class Revert(TraceEvent):
    """A regressing configuration was rolled back."""

    TYPE: ClassVar[str] = "tune.revert"
    diff: str


@register_event
@dataclass
class Feedback(TraceEvent):
    """The feedback context composed for the next prompt."""

    TYPE: ClassVar[str] = "tune.feedback"
    deteriorated: bool
    aborted_early: bool


@register_event
@dataclass
class Stop(TraceEvent):
    """The stopping criteria ended the session."""

    TYPE: ClassVar[str] = "tune.stop"
    reason: str


@register_event
@dataclass
class SessionEnd(TraceEvent):
    """An ELMo-Tune session closed; headline outcome inline."""

    TYPE: ClassVar[str] = "tune.session.end"
    iterations: int
    best_iteration: int
    best_ops_per_sec: float


# ------------------------------------------------------ sweep schedules

@register_event
@dataclass
class TaskStart(TraceEvent):
    """A crash or chaos sweep began one seeded schedule."""

    TYPE: ClassVar[str] = "exec.task.start"
    index: int
    kind: str  # "crash" | "chaos"
    label: str = ""


@register_event
@dataclass
class TaskEnd(TraceEvent):
    """End of one sweep schedule."""

    TYPE: ClassVar[str] = "exec.task.end"
    index: int


# ------------------------------------------------------- serialization

def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    """Flat JSON-safe dict with the ``type`` discriminator first."""
    out: dict[str, Any] = {"type": event.TYPE}
    for f in fields(event):
        out[f.name] = getattr(event, f.name)
    return out


def event_from_dict(payload: dict[str, Any]) -> TraceEvent:
    """Inverse of :func:`event_to_dict`; raises :class:`TraceError`."""
    data = dict(payload)
    type_name = data.pop("type", None)
    if type_name is None:
        raise TraceError("trace record has no 'type' field")
    cls = _REGISTRY.get(type_name)
    if cls is None:
        raise TraceError(f"unknown trace event type {type_name!r}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise TraceError(f"bad fields for {type_name!r}: {exc}") from exc


def to_jsonl_line(event: TraceEvent) -> str:
    """One compact JSON object (no newline)."""
    return json.dumps(
        event_to_dict(event), sort_keys=True, separators=(",", ":")
    )


def from_jsonl_line(line: str) -> TraceEvent:
    """Parse one JSONL line back into its event dataclass."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"bad trace JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise TraceError("trace line is not a JSON object")
    return event_from_dict(payload)


# ----------------------------------------------------- schema tooling

_SAMPLE_BY_ANNOTATION = {
    "str": "sample",
    "int": 3,
    "float": 1.5,
    "bool": True,
    "list": [["name", 7]],
}


def sample_events() -> Iterator[TraceEvent]:
    """One synthetic instance of every registered event type.

    Used by the schema-validation gate in ``scripts/check.sh`` (and the
    mirrored pytest) to prove each type survives a JSONL round-trip.
    """
    for cls in _REGISTRY.values():
        kwargs: dict[str, Any] = {}
        for f in fields(cls):
            annotation = str(f.type)
            for key, sample in _SAMPLE_BY_ANNOTATION.items():
                if annotation.startswith(key):
                    kwargs[f.name] = sample
                    break
            else:
                raise TraceError(
                    f"{cls.__name__}.{f.name}: no sample for {annotation!r}; "
                    "trace events must stick to JSON-safe scalar fields"
                )
        yield cls(**kwargs)
