"""psutil-like system snapshot.

The paper's prompt generator gathers system information "e.g., via
psutil". Real psutil would report the *host*, not the simulated
hardware cell, so a benchmark run describes the virtual machine
instead: the pinned profile plus what the run did, read from the
engine's own counters when the run ends
(:meth:`repro.bench.runner.DbBench.run`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.profile import GiB, HardwareProfile


@dataclass(frozen=True)
class SystemSnapshot:
    """What the simulated system did over one benchmark run.

    ``cpu_percent`` is foreground busy time over the run's duration
    times the core count (100% = all cores busy); ``used_memory_bytes``
    is at the profile's scale, so it compares with its total; the I/O
    figures count the measured phase only.
    """

    profile: HardwareProfile
    cpu_percent: float
    used_memory_bytes: float
    read_bytes: int
    write_bytes: int
    sync_count: int

    def describe(self) -> str:
        """Render the snapshot as prompt-ready text."""
        total = self.profile.memory_bytes
        percent = 100.0 * self.used_memory_bytes / total if total else 0.0
        lines = [
            f"CPU: {self.profile.cpu_cores} cores, utilization {self.cpu_percent:.1f}%",
            (
                f"Memory: {total / GiB:.2f} GiB total, "
                f"{self.used_memory_bytes / GiB:.2f} GiB used ({percent:.1f}%)"
            ),
            (
                f"Disk I/O during the run: {self.read_bytes / 2**20:.1f} MiB "
                f"read, {self.write_bytes / 2**20:.1f} MiB written, "
                f"{self.sync_count} syncs"
            ),
            f"Storage device: {self.profile.device.name}"
            + (" (rotational)" if self.profile.device.rotational else " (flash)"),
        ]
        return "\n".join(lines)
