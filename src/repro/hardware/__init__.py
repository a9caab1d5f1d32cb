"""Simulated hardware: device models, profiles, monitoring probes."""

from repro.hardware.device import NVME_SSD, SATA_HDD, DeviceModel, device_by_name
from repro.hardware.fio import FioProbe, FioReport
from repro.hardware.monitor import SystemSnapshot
from repro.hardware.profile import (
    GiB,
    KiB,
    MiB,
    PAPER_HDD_2C4G,
    HardwareProfile,
    make_profile,
)

__all__ = [
    "DeviceModel",
    "NVME_SSD",
    "SATA_HDD",
    "device_by_name",
    "FioProbe",
    "FioReport",
    "SystemSnapshot",
    "HardwareProfile",
    "make_profile",
    "PAPER_HDD_2C4G",
    "GiB",
    "MiB",
    "KiB",
]
