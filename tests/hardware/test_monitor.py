"""Tests for the psutil-like system monitor."""

import pytest

from repro.hardware import SystemMonitor, make_profile


@pytest.fixture
def monitor():
    return SystemMonitor(make_profile(4, 4))


class TestSystemMonitor:
    def test_initial_snapshot_is_idle(self, monitor):
        snap = monitor.snapshot(1000.0)
        assert snap.cpu_percent == 0.0
        assert snap.memory.used_bytes == 0
        assert snap.io.read_bytes == 0

    def test_cpu_percent_window(self, monitor):
        # 2000 us of CPU over a 1000 us window on 4 cores = 50%.
        monitor.record_cpu(2000.0)
        snap = monitor.snapshot(1000.0)
        assert snap.cpu_percent == pytest.approx(50.0)

    def test_cpu_percent_caps_at_100(self, monitor):
        monitor.record_cpu(1e9)
        assert monitor.snapshot(10.0).cpu_percent == 100.0

    def test_window_resets_between_snapshots(self, monitor):
        monitor.record_cpu(2000.0)
        monitor.snapshot(1000.0)
        snap = monitor.snapshot(2000.0)
        assert snap.cpu_percent == 0.0

    def test_io_counters_accumulate(self, monitor):
        monitor.record_read(4096)
        monitor.record_read(4096)
        monitor.record_write(100)
        monitor.record_sync()
        snap = monitor.snapshot(1.0)
        assert snap.io.read_bytes == 8192
        assert snap.io.read_count == 2
        assert snap.io.write_bytes == 100
        assert snap.io.sync_count == 1

    def test_memory_gauge(self, monitor):
        monitor.set_used_memory(1 << 30)
        snap = monitor.snapshot(1.0)
        assert snap.memory.used_bytes == 1 << 30
        assert snap.memory.percent == pytest.approx(25.0)

    def test_negative_memory_clamped(self, monitor):
        monitor.set_used_memory(-5)
        assert monitor.snapshot(1.0).memory.used_bytes == 0

    def test_describe_is_prompt_ready(self, monitor):
        monitor.record_cpu(100.0)
        text = monitor.snapshot(1000.0).describe()
        assert "CPU: 4 cores" in text
        assert "Memory:" in text
        assert "Storage device: nvme-ssd (flash)" in text

    def test_describe_marks_rotational(self):
        from repro.hardware import SATA_HDD

        mon = SystemMonitor(make_profile(2, 4, SATA_HDD))
        assert "(rotational)" in mon.snapshot(1.0).describe()

    def test_iowait_tracked(self, monitor):
        monitor.record_iowait(500.0)
        snap = monitor.snapshot(1000.0)
        assert snap.cpu_times.iowait_us == 500.0
