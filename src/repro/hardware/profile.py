"""Hardware profiles.

A :class:`HardwareProfile` is the unit the paper varies in its grid:
CPU core count, memory size, and storage device. The paper pins these
with Docker; here they parameterize the virtual cost model directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.hardware.device import NVME_SSD, SATA_HDD, DeviceModel

GiB = 1024**3
MiB = 1024**2
KiB = 1024


@dataclass(frozen=True)
class HardwareProfile:
    """A pinned hardware configuration for one experiment cell."""

    name: str
    cpu_cores: int
    memory_bytes: int
    device: DeviceModel
    #: Relative CPU speed: every profile runs the CPU cost model's
    #: baseline core.
    cpu_speed: float = field(default=1.0, init=False)

    def __post_init__(self) -> None:
        if self.cpu_cores < 1:
            raise ValueError("need at least one CPU core")
        if self.memory_bytes < 64 * MiB:
            raise ValueError("memory below 64 MiB is not a supported profile")

    @property
    def memory_gib(self) -> float:
        return self.memory_bytes / GiB

    def with_device(self, device: DeviceModel) -> "HardwareProfile":
        return replace(self, name=f"{self.cpu_cores}c+{self.memory_bytes // GiB}g+{device.name}", device=device)

    def scaled_memory(self, factor: float) -> "HardwareProfile":
        """Return a copy with memory scaled by ``factor``.

        Used when the dataset is scaled down from the paper's 50M keys:
        shrinking memory by the same ratio preserves the dataset/memory
        pressure that drives cache behaviour.
        """
        if factor <= 0:
            raise ValueError("memory scale factor must be positive")
        new_bytes = max(64 * MiB, int(self.memory_bytes * factor))
        return replace(self, memory_bytes=new_bytes)

    def describe(self) -> str:
        """One-line human description (used in prompts)."""
        return (
            f"{self.cpu_cores} CPU cores, {self.memory_bytes / GiB:.1f} GiB RAM, "
            f"storage: {self.device.name}"
        )


def make_profile(
    cpu_cores: int,
    memory_gib: float,
    device: DeviceModel = NVME_SSD,
) -> HardwareProfile:
    """Convenience constructor used by experiment grids."""
    return HardwareProfile(
        name=f"{cpu_cores}c+{memory_gib:g}g+{device.name}",
        cpu_cores=cpu_cores,
        memory_bytes=int(memory_gib * GiB),
        device=device,
    )


#: The paper's workload/device cells (Tables 3-4, Figures 3-4).
PAPER_HDD_2C4G = make_profile(2, 4, SATA_HDD)
