"""db_bench-style benchmark harness for PyLSM."""

from repro.bench.keygen import (
    MixgraphKeys,
    UniformKeys,
    ValueGenerator,
    ZipfianKeys,
    format_key,
    make_generator,
)
from repro.bench.report import render_report
from repro.bench.runner import BenchResult, DbBench, ProgressEvent
from repro.bench.spec import (
    DEFAULT_SCALE,
    FILLRANDOM,
    MIXGRAPH,
    PAPER_WORKLOADS,
    READRANDOM,
    READRANDOMWRITERANDOM,
    WorkloadSpec,
    paper_workload,
)

__all__ = [
    "BenchResult",
    "DbBench",
    "ProgressEvent",
    "render_report",
    "WorkloadSpec",
    "paper_workload",
    "PAPER_WORKLOADS",
    "FILLRANDOM",
    "READRANDOM",
    "READRANDOMWRITERANDOM",
    "MIXGRAPH",
    "DEFAULT_SCALE",
    "format_key",
    "make_generator",
    "UniformKeys",
    "ZipfianKeys",
    "MixgraphKeys",
    "ValueGenerator",
]
