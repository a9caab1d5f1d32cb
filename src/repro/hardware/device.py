"""Storage device models.

A :class:`DeviceModel` captures the first-order performance behaviour of
a block device: fixed per-I/O latency, sequential bandwidth, a random-
access (seek) penalty, and a queue-depth-1 IOPS ceiling. The paper
evaluates on an NVMe SSD and a SATA HDD; both are provided as presets
whose constants come from the devices' public spec sheets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DeviceModel:
    """First-order cost model of a storage device.

    All latencies are virtual microseconds; bandwidths are bytes per
    microsecond (i.e. MB/s == bytes/us).
    """

    name: str
    #: Fixed software+device latency charged to every read I/O.
    read_latency_us: float
    #: Fixed software+device latency charged to every write I/O.
    write_latency_us: float
    #: Sequential read bandwidth, bytes per microsecond.
    seq_read_bw: float
    #: Sequential write bandwidth, bytes per microsecond.
    seq_write_bw: float
    #: Extra penalty charged to a *random* (non-adjacent) read.
    seek_us: float
    #: Cost of a durability barrier (fsync / FLUSH CACHE).
    sync_us: float
    #: True for rotational media: readahead converts random I/O into
    #: sequential I/O far more profitably than on flash.
    rotational: bool

    def __post_init__(self) -> None:
        for field_name in (
            "read_latency_us",
            "write_latency_us",
            "seq_read_bw",
            "seq_write_bw",
            "seek_us",
            "sync_us",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        if self.seq_read_bw == 0 or self.seq_write_bw == 0:
            raise ValueError("bandwidth must be positive")

    # -- cost queries ----------------------------------------------------

    def read_cost_us(self, nbytes: int, *, sequential: bool) -> float:
        """Virtual cost of reading ``nbytes`` in one I/O."""
        cost = self.read_latency_us + nbytes / self.seq_read_bw
        if not sequential:
            cost += self.seek_us
        return cost

    def write_cost_us(self, nbytes: int, *, sequential: bool = True) -> float:
        """Virtual cost of writing ``nbytes`` in one I/O.

        LSM writes are overwhelmingly sequential (WAL appends, SSTable
        builds); a random write still pays the seek on rotational media.
        """
        cost = self.write_latency_us + nbytes / self.seq_write_bw
        if not sequential and self.rotational:
            cost += self.seek_us
        return cost

    def sync_cost_us(self) -> float:
        """Virtual cost of a durability barrier."""
        return self.sync_us

    def scaled(self, factor: float) -> "DeviceModel":
        """Return a copy slowed down (`factor` > 1) or sped up."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            name=f"{self.name}-x{factor:g}",
            read_latency_us=self.read_latency_us * factor,
            write_latency_us=self.write_latency_us * factor,
            seq_read_bw=self.seq_read_bw / factor,
            seq_write_bw=self.seq_write_bw / factor,
            seek_us=self.seek_us * factor,
            sync_us=self.sync_us * factor,
        )


#: Datacenter NVMe SSD: ~90 us random-read latency, ~2 GB/s sequential
#: read, ~1 GB/s sequential write, cheap "seeks" (flash has none; the
#: residual models FTL and queueing).
NVME_SSD = DeviceModel(
    name="nvme-ssd",
    read_latency_us=85.0,
    write_latency_us=22.0,
    seq_read_bw=2000.0 / 1.0,  # 2000 MB/s
    seq_write_bw=1100.0 / 1.0,  # 1100 MB/s
    seek_us=8.0,
    sync_us=120.0,
    rotational=False,
)

#: 7200 RPM SATA HDD: ~4.16 ms half-rotation + ~4 ms average seek,
#: ~180 MB/s outer-track sequential bandwidth.
SATA_HDD = DeviceModel(
    name="sata-hdd",
    read_latency_us=350.0,
    write_latency_us=300.0,
    seq_read_bw=180.0,
    seq_write_bw=160.0,
    seek_us=8200.0,
    sync_us=9000.0,
    rotational=True,
)

_PRESETS = {d.name: d for d in (NVME_SSD, SATA_HDD)}


def device_by_name(name: str) -> DeviceModel:
    """Look up a preset device model by name."""
    if name not in _PRESETS:
        known = ", ".join(sorted(_PRESETS))
        raise ValueError(f"unknown device {name!r}; known: {known}")
    return _PRESETS[name]
