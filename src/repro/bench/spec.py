"""Workload specifications, including the paper's four workloads.

The paper evaluates: fillrandom (FR, write-intensive), readrandom (RR,
read-intensive over a preloaded store), readrandomwriterandom (RRWR,
mixed, 2 threads), and mixgraph (production-like 50/50). Specs carry a
``scale`` so the 50M/25M-op originals can run at laptop size with the
dataset/memory pressure preserved (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import WorkloadError


@dataclass(frozen=True)
class WorkloadPhase:
    """A mid-run workload shift: at ``at_fraction`` of the op stream,
    the mix and/or key skew change.

    ``None`` fields inherit the value in force before the shift. Phased
    specs give an online tuning loop real drift to react to — e.g. a
    write-heavy uniform phase that turns read-heavy zipfian halfway.
    """

    #: Fraction of the op stream at which this phase begins (0, 1).
    at_fraction: float
    #: New read mix; None keeps the previous value.
    read_fraction: float | None = None
    #: New key distribution (uniform | zipfian | mixgraph); None keeps.
    distribution: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.at_fraction < 1.0:
            raise WorkloadError("phase at_fraction must be in (0, 1)")
        if self.read_fraction is not None and not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError("phase read_fraction must be in [0, 1]")
        if self.read_fraction is None and self.distribution is None:
            raise WorkloadError("a phase must change something")


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything the runner needs to drive one benchmark."""

    name: str
    #: Operations in the measured phase.
    num_ops: int
    #: Size of the key space (indices 0..num_keys-1).
    num_keys: int
    #: Keys preloaded (sequential fill) before measurement; 0 = none.
    preload_keys: int
    #: Fraction of measured ops that are reads.
    read_fraction: float
    #: Key distribution: uniform | zipfian | mixgraph.
    distribution: str
    value_size: int = 100
    #: Pareto-distributed value sizes (mixgraph).
    pareto_values: bool = False
    threads: int = 1
    seed: int = 42
    #: Keys fetched per read request (db_bench's --batch_size for
    #: multireadrandom); 1 means plain point gets.
    batch_size: int = 1
    #: Iterator Next() calls after each seek (db_bench's --seek_nexts
    #: for seekrandom); only meaningful for scan-shaped workloads.
    seek_nexts: int = 0
    #: Mid-run shifts, ordered by ``at_fraction`` (empty = steady-state).
    phases: tuple[WorkloadPhase, ...] = ()

    def __post_init__(self) -> None:
        if self.num_ops <= 0 or self.num_keys <= 0:
            raise WorkloadError("ops and key space must be positive")
        if self.value_size <= 0:
            raise WorkloadError("value size must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError("read_fraction must be in [0, 1]")
        if self.threads < 1:
            raise WorkloadError("need at least one thread")
        if self.preload_keys < 0:
            raise WorkloadError("preload_keys cannot be negative")
        if self.batch_size < 1:
            raise WorkloadError("batch_size must be at least 1")
        if self.seek_nexts < 0:
            raise WorkloadError("seek_nexts cannot be negative")
        fractions = [p.at_fraction for p in self.phases]
        if fractions != sorted(set(fractions)):
            raise WorkloadError("phases must be strictly ordered by at_fraction")

    def schedule(self, total_ops: int) -> "list[tuple[int, float, str]]":
        """Resolve phases into ``(start_index, read_fraction,
        distribution)`` segments over a stream of ``total_ops`` ops.

        Segment boundaries are indices into *one* op stream; each client
        (or the single-threaded runner) applies the schedule to its own
        stream so a phase shift lands at the same stream fraction
        regardless of how ops were split — the property that keeps
        serial and parallel traces identical.
        """
        segments = [(0, self.read_fraction, self.distribution)]
        read_fraction, distribution = self.read_fraction, self.distribution
        for phase in self.phases:
            if phase.read_fraction is not None:
                read_fraction = phase.read_fraction
            if phase.distribution is not None:
                distribution = phase.distribution
            segments.append(
                (int(phase.at_fraction * total_ops), read_fraction, distribution)
            )
        return segments

    def scaled(self, factor: float) -> "WorkloadSpec":
        """Scale op counts and key space by ``factor`` (< 1 shrinks)."""
        if factor <= 0:
            raise WorkloadError("scale factor must be positive")
        return replace(
            self,
            num_ops=max(1000, int(self.num_ops * factor)),
            num_keys=max(1000, int(self.num_keys * factor)),
            preload_keys=int(self.preload_keys * factor),
        )

    def with_seed(self, seed: int) -> "WorkloadSpec":
        return replace(self, seed=seed)

    def describe(self) -> str:
        """One-line summary for prompts/reports."""
        kind = (
            "write-intensive"
            if self.read_fraction < 0.2
            else "read-intensive"
            if self.read_fraction > 0.8
            else "mixed read/write"
        )
        scans = (
            f", scans ({self.seek_nexts} nexts/seek)" if self.seek_nexts else ""
        )
        return (
            f"{self.name}: {self.num_ops} ops, {self.read_fraction * 100:.0f}% reads "
            f"({kind}{scans}), key space {self.num_keys}, value ~{self.value_size}B, "
            f"{self.threads} thread(s), {self.distribution} key distribution"
        )


#: Paper workload 1: write 50M KV pairs in random order.
FILLRANDOM = WorkloadSpec(
    name="fillrandom",
    num_ops=50_000_000,
    num_keys=50_000_000,
    preload_keys=0,
    read_fraction=0.0,
    distribution="uniform",
)

#: Paper workload 2: read 10M pairs at random, DB preloaded with 25M.
READRANDOM = WorkloadSpec(
    name="readrandom",
    num_ops=10_000_000,
    num_keys=25_000_000,
    preload_keys=25_000_000,
    read_fraction=1.0,
    distribution="uniform",
)

#: Paper workload 3: 25M mixed ops on 2 threads (db_bench default
#: readwritepercent=90).
READRANDOMWRITERANDOM = WorkloadSpec(
    name="readrandomwriterandom",
    num_ops=25_000_000,
    num_keys=25_000_000,
    preload_keys=25_000_000,
    read_fraction=0.9,
    distribution="uniform",
    threads=2,
)

#: Paper workload 4: mixgraph, 25M ops, 50% writes / 50% reads.
MIXGRAPH = WorkloadSpec(
    name="mixgraph",
    num_ops=25_000_000,
    num_keys=25_000_000,
    preload_keys=25_000_000,
    read_fraction=0.5,
    distribution="mixgraph",
    pareto_values=True,
)

PAPER_WORKLOADS: dict[str, WorkloadSpec] = {
    "fillrandom": FILLRANDOM,
    "readrandom": READRANDOM,
    "readrandomwriterandom": READRANDOMWRITERANDOM,
    "mixgraph": MIXGRAPH,
}

#: Scan workload: one sequential iterator pass over a preloaded store
#: (db_bench's readseq). Each op is one Next(); the cursor re-seeks to
#: the first key when it exhausts the store.
READSEQ = WorkloadSpec(
    name="readseq",
    num_ops=25_000_000,
    num_keys=25_000_000,
    preload_keys=25_000_000,
    read_fraction=1.0,
    distribution="uniform",
)

#: Scan workload: random seeks, each followed by --seek-nexts Next()
#: calls (db_bench's seekrandom, default seek_nexts=10). Exercises the
#: lazy pruning read path: a bounded scan should touch only the tables
#: covering its short key window.
SEEKRANDOM = WorkloadSpec(
    name="seekrandom",
    num_ops=10_000_000,
    num_keys=25_000_000,
    preload_keys=25_000_000,
    read_fraction=1.0,
    distribution="uniform",
    seek_nexts=10,
)

#: Scan-shaped workloads driven through ``DB.iterator()``.
SCAN_WORKLOADS: dict[str, WorkloadSpec] = {
    "readseq": READSEQ,
    "seekrandom": SEEKRANDOM,
}

#: Multi-client service workload: one dedicated writer client streams
#: puts while every other client reads (db_bench's readwhilewriting).
#: ``read_fraction`` reflects the 7-reader/1-writer client split; the
#: service layer assigns the roles per client.
READWHILEWRITING = WorkloadSpec(
    name="readwhilewriting",
    num_ops=25_000_000,
    num_keys=25_000_000,
    preload_keys=25_000_000,
    read_fraction=0.875,
    distribution="uniform",
    threads=8,
)

#: Multi-client service workload: every client issues batched multi-key
#: point reads (db_bench's multireadrandom with --batch_size).
MULTIREADRANDOM = WorkloadSpec(
    name="multireadrandom",
    num_ops=10_000_000,
    num_keys=25_000_000,
    preload_keys=25_000_000,
    read_fraction=1.0,
    distribution="uniform",
    threads=4,
    batch_size=8,
)

#: Phased service workload for online tuning: write-heavy uniform for
#: the first half, then a drift to read-heavy zipfian. The shift is the
#: signal the drift detector keys on; a static configuration tuned for
#: the first phase is mis-tuned for the second.
PHASEDMIX = WorkloadSpec(
    name="phasedmix",
    num_ops=25_000_000,
    num_keys=25_000_000,
    preload_keys=25_000_000,
    read_fraction=0.2,
    distribution="uniform",
    threads=4,
    phases=(
        WorkloadPhase(at_fraction=0.5, read_fraction=0.9, distribution="zipfian"),
    ),
)

#: Skewed service workload for resharding experiments: a zipfian key
#: distribution concentrates traffic on a slice of the key space, so
#: one shard queues far deeper than its peers — the regime where a
#: live split of the hottest shard (or hot-key read fan-out) pays off.
HOTSPOT = WorkloadSpec(
    name="hotspot",
    num_ops=25_000_000,
    num_keys=25_000_000,
    preload_keys=25_000_000,
    read_fraction=0.5,
    distribution="zipfian",
    threads=8,
)

#: Workloads that only make sense driven by the sharded service layer
#: (multiple concurrent clients with per-client roles).
SERVICE_WORKLOADS: dict[str, WorkloadSpec] = {
    "readwhilewriting": READWHILEWRITING,
    "multireadrandom": MULTIREADRANDOM,
    "phasedmix": PHASEDMIX,
    "hotspot": HOTSPOT,
}

#: Every known workload: paper, scan, and service alike.
ALL_WORKLOADS: dict[str, WorkloadSpec] = {
    **PAPER_WORKLOADS,
    **SCAN_WORKLOADS,
    **SERVICE_WORKLOADS,
}

#: Default scale used by the benchmark suite: the paper's 50M-op runs
#: shrink by 1000x; memory is scaled alongside (see bench harness).
DEFAULT_SCALE = 1.0 / 1000.0

#: Byte-world scale used with DEFAULT_SCALE: buffer/cache/level sizes,
#: plus the hardware memory budget, shrink by ~the same factor as the
#: dataset so cache pressure and flush/compaction cadence match the
#: paper's regime (a power of two keeps scaled sizes round).
DEFAULT_BYTE_SCALE = 1.0 / 1024.0


def paper_workload(name: str, scale: float = DEFAULT_SCALE) -> WorkloadSpec:
    """Fetch one of the paper's workloads at the given scale."""
    try:
        spec = PAPER_WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(PAPER_WORKLOADS))
        raise WorkloadError(f"unknown workload {name!r}; known: {known}") from None
    return spec.scaled(scale)


def workload(name: str, scale: float = DEFAULT_SCALE) -> WorkloadSpec:
    """Fetch any known workload (paper or service) at the given scale."""
    try:
        spec = ALL_WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(ALL_WORKLOADS))
        raise WorkloadError(f"unknown workload {name!r}; known: {known}") from None
    return spec.scaled(scale)
