"""Figure 3: per-iteration series on SATA HDD (2 CPUs + 4 GiB).

Three workloads (fillrandom, mixgraph, RRWR) tracked across iterations
0..7 for (a) throughput, (b) p99 write, (c) p99 read. The paper discards
readrandom on HDD because it is catastrophically slow; we verify that
exclusion holds here too.
"""

from benchmarks.common import once, tuning_sessions, write_result
from repro.bench.runner import DbBench
from repro.bench.spec import DEFAULT_BYTE_SCALE, paper_workload
from repro.core.reporting import format_iteration_series, improvement_summary
from repro.hardware.device import SATA_HDD
from repro.hardware.profile import make_profile

CELL = "2c4g-sata-hdd"
WORKLOADS = ["fillrandom", "mixgraph", "readrandomwriterandom"]


def run_sessions():
    return dict(zip(WORKLOADS, tuning_sessions([(w, CELL) for w in WORKLOADS])))


def test_figure3_hdd_iterations(benchmark):
    sessions = once(benchmark, run_sessions)
    text = "\n\n".join([
        format_iteration_series(
            "Figure 3a: throughput (ops/sec) on SATA HDD", sessions,
            series="throughput"),
        format_iteration_series(
            "Figure 3b: p99 write latency (us) on SATA HDD", sessions,
            series="p99_write"),
        format_iteration_series(
            "Figure 3c: p99 read latency (us) on SATA HDD",
            {w: s for w, s in sessions.items() if w != "fillrandom"},
            series="p99_read"),
        improvement_summary(sessions),
    ])
    write_result("figure3_hdd_iterations", text)

    for workload, session in sessions.items():
        series = session.throughput_series()
        # Iterations 0..7 present.
        assert len(series) == 8, workload
        # Tuning finds improvement over the default on HDD.
        assert session.improvement_factor() > 1.05, workload
        # p99 read improves for the read-bearing workloads.
        if workload != "fillrandom":
            reads = [v for v in session.p99_read_series() if v is not None]
            assert min(reads[1:]) < reads[0], workload


def test_figure3_readrandom_on_hdd_is_discarded(benchmark):
    """The paper: 'Results for Readrandom were discarded as set system
    limitations have throughputs of <10 ops/sec'. Random reads on the
    HDD model are seek-bound and orders of magnitude below NVMe."""
    spec = paper_workload("readrandom", 0.0001).with_seed(1)

    def probe():
        return DbBench(
            spec, profile=make_profile(2, 4, SATA_HDD),
            byte_scale=DEFAULT_BYTE_SCALE,
        ).run()

    result = once(benchmark, probe)
    write_result(
        "figure3_readrandom_hdd_exclusion",
        f"readrandom on SATA HDD: {result.ops_per_sec:.0f} ops/sec "
        f"(discarded, matching the paper's exclusion)",
    )
    assert result.ops_per_sec < 2_000  # vs ~10k on NVMe: hopeless on HDD
