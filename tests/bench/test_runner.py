"""Tests for the db_bench-style runner."""

import pytest

from repro.bench.runner import BenchResult, DbBench
from repro.bench.spec import WorkloadSpec
from repro.hardware import make_profile
from repro.lsm.options import Options
from repro.obs.events import BenchProgress

TINY_WRITE = WorkloadSpec(
    name="fillrandom", num_ops=2000, num_keys=2000, preload_keys=0,
    read_fraction=0.0, distribution="uniform", seed=1,
)
TINY_READ = WorkloadSpec(
    name="readrandom", num_ops=1000, num_keys=1500, preload_keys=1500,
    read_fraction=1.0, distribution="uniform", seed=1,
)
TINY_MIXED = WorkloadSpec(
    name="readrandomwriterandom", num_ops=2000, num_keys=1500,
    preload_keys=1500, read_fraction=0.7, distribution="uniform",
    threads=2, seed=1,
)
TINY_READSEQ = WorkloadSpec(
    name="readseq", num_ops=1000, num_keys=800, preload_keys=800,
    read_fraction=1.0, distribution="uniform", seed=1,
)
TINY_SEEKRANDOM = WorkloadSpec(
    name="seekrandom", num_ops=500, num_keys=800, preload_keys=800,
    read_fraction=1.0, distribution="uniform", seed=1, seek_nexts=10,
)


def run(spec, opts=None, progress=None):
    bench = DbBench(spec, opts, make_profile(4, 4), byte_scale=1 / 1024)
    return bench.run(progress)


class TestRunner:
    def test_write_workload_counts(self):
        result = run(TINY_WRITE)
        assert result.ops_done == 2000
        assert result.writes_done == 2000
        assert result.reads_done == 0
        assert result.write_summary is not None
        assert result.read_summary is None

    def test_read_workload_counts(self):
        result = run(TINY_READ)
        assert result.reads_done == 1000
        assert result.writes_done == 0
        assert result.read_summary is not None

    def test_mixed_ratio_respected(self):
        result = run(TINY_MIXED)
        read_share = result.reads_done / result.ops_done
        assert 0.6 < read_share < 0.8

    def test_throughput_positive_and_consistent(self):
        result = run(TINY_WRITE)
        assert result.ops_per_sec > 0
        assert result.micros_per_op == pytest.approx(
            1e6 / result.ops_per_sec, rel=1e-6
        )
        assert result.mb_per_sec > 0

    def test_deterministic_across_runs(self):
        a, b = run(TINY_WRITE), run(TINY_WRITE)
        assert a.ops_per_sec == b.ops_per_sec
        assert a.write_summary.p99 == b.write_summary.p99

    def test_wall_clock_is_populated_but_not_fingerprinted(self):
        result = run(TINY_WRITE)
        assert result.wall_clock_s > 0
        assert "wall_clock_s" not in result.fingerprint()

    def test_options_affect_results(self):
        base = run(TINY_READ)
        tuned = run(TINY_READ, Options({"bloom_filter_bits_per_key": 10.0,
                                        "block_cache_size": 1 << 30}))
        assert tuned.ops_per_sec != base.ops_per_sec

    def test_preload_not_measured(self):
        result = run(TINY_READ)
        # Only measured ops appear in histograms.
        assert result.read_summary.count == 1000

    def test_progress_callback_invoked(self):
        events = []
        def progress(event: BenchProgress) -> bool:
            events.append(event)
            return True
        run(TINY_WRITE, progress=progress)
        assert events
        assert events[-1].ops_done == 2000
        assert events[0].total_ops == 2000
        assert events[0].elapsed_virtual_s > 0

    def test_progress_abort(self):
        def progress(event: BenchProgress) -> bool:
            return event.ops_done < 2000 * 0.5
        result = run(TINY_WRITE, progress=progress)
        assert result.aborted
        assert result.ops_done < 2000

    def test_snapshot_attached(self):
        result = run(TINY_WRITE)
        assert result.snapshot is not None
        assert "CPU:" in result.snapshot.describe()

    def test_tickers_exported(self):
        result = run(TINY_WRITE)
        assert result.tickers["keys.written"] == 2000


class TestScanWorkloads:
    def test_readseq_runs_and_reports_reads(self):
        result = run(TINY_READSEQ)
        assert result.ops_done == 1000
        assert result.reads_done == 1000
        assert result.writes_done == 0
        # Seek latencies back the read histogram for cursor workloads.
        assert result.read_summary is not None
        assert result.read_summary.count == 1000

    def test_seekrandom_counts_seeks(self):
        result = run(TINY_SEEKRANDOM)
        assert result.ops_done == 500
        assert result.tickers["seeks"] == 500
        assert result.read_summary is not None

    def test_seek_nexts_change_the_cost(self):
        shallow = run(TINY_SEEKRANDOM)
        import dataclasses

        deep = run(dataclasses.replace(TINY_SEEKRANDOM, seek_nexts=50))
        assert deep.micros_per_op > shallow.micros_per_op

    def test_scan_workloads_deterministic(self):
        a, b = run(TINY_SEEKRANDOM), run(TINY_SEEKRANDOM)
        assert a.ops_per_sec == b.ops_per_sec
        assert a.read_summary.p99 == b.read_summary.p99
