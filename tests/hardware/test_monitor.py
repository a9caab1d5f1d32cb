"""Tests for the psutil-like system snapshot: a benchmark run's view of
the simulated system, read from the engine's own counters."""

from types import SimpleNamespace

import pytest

from repro.bench.runner import DbBench
from repro.bench.spec import DEFAULT_BYTE_SCALE, WorkloadSpec, paper_workload
from repro.core.prompt import PromptGenerator
from repro.hardware import SATA_HDD, make_profile
from repro.hardware.profile import GiB
from repro.llm.simulated import parse_prompt
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.options import Options
from repro.lsm.statistics import OpClass, Statistics, Ticker

SMALL_READ = WorkloadSpec(
    name="readrandom", num_ops=1000, num_keys=1500, preload_keys=1500,
    read_fraction=1.0, distribution="uniform", seed=1,
)


@pytest.fixture
def monitor():
    """A bench over a 4-core profile, a fresh store and fresh counters:
    ``snap(us)`` is the snapshot of a run that lasted ``us``."""
    bench = DbBench(SMALL_READ, profile=make_profile(4, 4), byte_scale=1 / 1024)
    stats = Statistics()
    db = DB.open("/m", env=Env(), profile=bench.profile, statistics=stats,
                 byte_scale=bench.byte_scale)
    yield SimpleNamespace(
        stats=stats, db=db, snap=lambda us: bench._snapshot(db, stats, us / 1e6)
    )
    db.close()


class TestSystemMonitor:
    def test_initial_snapshot_is_idle(self, monitor):
        snap = monitor.snap(1000.0)
        assert snap.cpu_percent == 0.0
        assert snap.used_memory_bytes == 0
        assert snap.read_bytes == snap.write_bytes == snap.sync_count == 0

    def test_cpu_percent_window(self, monitor):
        # 2000 us of foreground ops over a 1000 us run on 4 cores = 50%.
        monitor.stats.observe(OpClass.PUT, 1500.0)
        monitor.stats.observe(OpClass.GET, 500.0)
        assert monitor.snap(1000.0).cpu_percent == pytest.approx(50.0)

    def test_cpu_percent_caps_at_100(self, monitor):
        monitor.stats.observe(OpClass.SEEK, 1e9)
        assert monitor.snap(10.0).cpu_percent == 100.0

    def test_window_resets_between_snapshots(self, monitor):
        # The window is the counters since their last reset, which the
        # runner makes between the preload and the measured phase.
        monitor.stats.observe(OpClass.PUT, 2000.0)
        monitor.stats.bump(Ticker.BYTES_WRITTEN, 100)
        monitor.snap(1000.0)
        monitor.stats.reset()
        snap = monitor.snap(1000.0)
        assert snap.cpu_percent == 0.0
        assert snap.write_bytes == 0

    def test_io_counters_accumulate(self, monitor):
        monitor.stats.bump(Ticker.BYTES_READ, 4096)
        monitor.stats.bump(Ticker.BYTES_READ, 4096)
        monitor.stats.bump(Ticker.BYTES_WRITTEN, 100)
        monitor.stats.bump(Ticker.WAL_BYTES, 50)
        monitor.stats.bump(Ticker.WAL_SYNCS)
        snap = monitor.snap(1.0)
        assert snap.read_bytes == 8192
        assert snap.write_bytes == 150
        assert snap.sync_count == 1

    def test_memory_gauge(self, monitor):
        for i in range(100):
            monitor.db.put(b"k%04d" % i, b"v" * 100)
        used = sum(m.approx_bytes for m in monitor.db.memtables)
        used += monitor.db.block_cache.used_bytes
        assert used > 0
        assert monitor.snap(1.0).used_memory_bytes == used * 1024

    def test_describe_is_prompt_ready(self, monitor):
        monitor.stats.observe(OpClass.PUT, 100.0)
        text = monitor.snap(1000.0).describe()
        assert "CPU: 4 cores" in text
        assert "Memory:" in text
        assert "Storage device: nvme-ssd (flash)" in text

    def test_describe_marks_rotational(self):
        result = DbBench(SMALL_READ, profile=make_profile(2, 4, SATA_HDD),
                         byte_scale=1 / 1024).run()
        assert "(rotational)" in result.snapshot.describe()

    def test_iowait_tracked(self, monitor):
        # Stall time is waiting, not work: the PUT histogram includes
        # it, and utilization leaves it out.
        monitor.stats.observe(OpClass.PUT, 3000.0)
        monitor.stats.bump(Ticker.STALL_MICROS, 1500)
        monitor.stats.bump(Ticker.DELAYED_WRITE_MICROS, 500)
        assert monitor.snap(1000.0).cpu_percent == pytest.approx(25.0)


class TestSnapshotOfARun:
    def test_snapshot_cannot_steer_the_expert(self):
        """The expert reads the same facts from a run's snapshot as
        from the static hardware text a service prompt carries."""
        for profile in (make_profile(4, 4), make_profile(2, 4, SATA_HDD)):
            result = DbBench(SMALL_READ, profile=profile, byte_scale=1 / 1024).run()
            static = PromptGenerator(profile, SMALL_READ)._static_hardware_text()
            assert parse_prompt(result.snapshot.describe()) == parse_prompt(static)

    def test_each_number_comes_from_its_counter(self):
        # fsync on, so the sync count has something to count.
        bench = DbBench(paper_workload("fillrandom"), Options({"use_fsync": True}),
                        make_profile(4, 4), byte_scale=DEFAULT_BYTE_SCALE)
        memory = []
        original = bench._snapshot

        def spy(db, stats, duration_s):
            memory.append(
                sum(m.approx_bytes for m in db.memtables)
                + db.block_cache.used_bytes
            )
            return original(db, stats, duration_s)

        bench._snapshot = spy
        result = bench.run()
        snap, tickers = result.snapshot, result.tickers
        assert snap.read_bytes == tickers["bytes.read"]
        assert snap.write_bytes == tickers["bytes.written"] + tickers["wal.bytes"]
        assert snap.sync_count == tickers["wal.syncs"] > 0
        assert snap.used_memory_bytes == memory[0] / DEFAULT_BYTE_SCALE
        # The memtables a 50k-key fill leaves are ~0.05 GiB at the
        # profile's scale: visible beside the 4 GiB total.
        assert 0.02 < snap.used_memory_bytes / GiB < 0.1
        assert "0.00 GiB used" not in snap.describe()
