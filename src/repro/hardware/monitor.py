"""psutil-like system monitor.

The paper's prompt generator gathers system information "e.g., via
psutil". Real psutil would report the *host*, not the simulated
hardware cell, so this module provides a :class:`SystemMonitor` that
snapshots the virtual machine state: the pinned profile plus live
utilization derived from the engine's virtual-time accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.profile import GiB, HardwareProfile


@dataclass(frozen=True)
class CpuTimes:
    """Cumulative virtual CPU time split, in microseconds."""

    user_us: float = 0.0
    iowait_us: float = 0.0
    idle_us: float = 0.0


@dataclass(frozen=True)
class MemorySnapshot:
    """Virtual memory usage at a point in time."""

    total_bytes: int
    used_bytes: int

    @property
    def available_bytes(self) -> int:
        return max(0, self.total_bytes - self.used_bytes)

    @property
    def percent(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return 100.0 * self.used_bytes / self.total_bytes


@dataclass(frozen=True)
class IoCounters:
    """Cumulative virtual I/O counters."""

    read_bytes: int = 0
    write_bytes: int = 0
    read_count: int = 0
    write_count: int = 0
    sync_count: int = 0


@dataclass(frozen=True)
class SystemSnapshot:
    """One observation of the simulated system, psutil-style."""

    profile: HardwareProfile
    cpu_percent: float
    cpu_times: CpuTimes
    memory: MemorySnapshot
    io: IoCounters

    def describe(self) -> str:
        """Render the snapshot as prompt-ready text."""
        lines = [
            f"CPU: {self.profile.cpu_cores} cores, utilization {self.cpu_percent:.1f}%",
            (
                f"Memory: {self.memory.total_bytes / GiB:.2f} GiB total, "
                f"{self.memory.used_bytes / GiB:.2f} GiB used "
                f"({self.memory.percent:.1f}%)"
            ),
            (
                f"Disk I/O since start: {self.io.read_bytes / 2**20:.1f} MiB read "
                f"({self.io.read_count} ops), {self.io.write_bytes / 2**20:.1f} MiB "
                f"written ({self.io.write_count} ops), {self.io.sync_count} syncs"
            ),
            f"Storage device: {self.profile.device.name}"
            + (" (rotational)" if self.profile.device.rotational else " (flash)"),
        ]
        return "\n".join(lines)


class SystemMonitor:
    """Accumulates virtual resource usage and produces snapshots.

    The LSM engine's :class:`~repro.lsm.perf_model.PerfModel` feeds this
    monitor; the tuner's prompt generator consumes :meth:`snapshot`.
    """

    def __init__(self, profile: HardwareProfile) -> None:
        self.profile = profile
        self._cpu_us = 0.0
        self._iowait_us = 0.0
        self._read_bytes = 0
        self._write_bytes = 0
        self._read_count = 0
        self._write_count = 0
        self._sync_count = 0
        self._used_memory = 0
        self._last_observed_us = 0.0
        self._window_cpu_us = 0.0
        self._window_start_us = 0.0

    # -- feed (called by the engine) -------------------------------------

    def record_cpu(self, us: float) -> None:
        self._cpu_us += us
        self._window_cpu_us += us

    def record_iowait(self, us: float) -> None:
        self._iowait_us += us

    def record_read(self, nbytes: int) -> None:
        self._read_bytes += nbytes
        self._read_count += 1

    def record_write(self, nbytes: int) -> None:
        self._write_bytes += nbytes
        self._write_count += 1

    def record_sync(self) -> None:
        self._sync_count += 1

    def set_used_memory(self, nbytes: int) -> None:
        self._used_memory = max(0, nbytes)

    def record_put(self, cpu_us: float, wal_bytes: int, used_memory: int) -> None:
        """Fused per-write sink: cpu + write + memory gauge in one call.

        Equivalent to record_cpu + record_write + set_used_memory; the
        write path calls this once per operation instead of three times.
        """
        self._cpu_us += cpu_us
        self._window_cpu_us += cpu_us
        self._write_bytes += wal_bytes
        self._write_count += 1
        self._used_memory = used_memory if used_memory > 0 else 0

    # -- observe ----------------------------------------------------------

    def snapshot(self, now_us: float) -> SystemSnapshot:
        """Take a psutil-style snapshot at virtual time ``now_us``.

        ``cpu_percent`` is utilization over the window since the last
        snapshot, normalized by core count (100% = all cores busy).
        """
        window = max(1e-9, now_us - self._window_start_us)
        capacity = window * self.profile.cpu_cores
        cpu_percent = min(100.0, 100.0 * self._window_cpu_us / capacity)
        self._window_start_us = now_us
        self._window_cpu_us = 0.0
        idle = max(0.0, now_us * self.profile.cpu_cores - self._cpu_us - self._iowait_us)
        return SystemSnapshot(
            profile=self.profile,
            cpu_percent=cpu_percent,
            cpu_times=CpuTimes(
                user_us=self._cpu_us, iowait_us=self._iowait_us, idle_us=idle
            ),
            memory=MemorySnapshot(
                total_bytes=self.profile.memory_bytes, used_bytes=self._used_memory
            ),
            io=IoCounters(
                read_bytes=self._read_bytes,
                write_bytes=self._write_bytes,
                read_count=self._read_count,
                write_count=self._write_count,
                sync_count=self._sync_count,
            ),
        )
