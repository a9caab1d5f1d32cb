"""Tests for device models."""

import pytest

from repro.hardware import NVME_SSD, SATA_HDD, DeviceModel, device_by_name


class TestPresets:
    def test_lookup_by_name(self):
        assert device_by_name("nvme-ssd") is NVME_SSD
        assert device_by_name("sata-hdd") is SATA_HDD

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown device"):
            device_by_name("floppy")

    def test_hdd_is_rotational_nvme_is_not(self):
        assert SATA_HDD.rotational
        assert not NVME_SSD.rotational

    def test_hdd_much_slower_at_random_reads(self):
        nvme = NVME_SSD.read_cost_us(4096, sequential=False)
        hdd = SATA_HDD.read_cost_us(4096, sequential=False)
        assert hdd > 50 * nvme


class TestCosts:
    def test_read_cost_includes_seek_only_when_random(self):
        seq = SATA_HDD.read_cost_us(4096, sequential=True)
        rand = SATA_HDD.read_cost_us(4096, sequential=False)
        assert rand == pytest.approx(seq + SATA_HDD.seek_us)

    def test_read_cost_scales_with_bytes(self):
        small = NVME_SSD.read_cost_us(4096, sequential=True)
        large = NVME_SSD.read_cost_us(1 << 20, sequential=True)
        assert large > small

    def test_write_cost_sequential_has_no_seek(self):
        cost = SATA_HDD.write_cost_us(4096, sequential=True)
        assert cost == pytest.approx(
            SATA_HDD.write_latency_us + 4096 / SATA_HDD.seq_write_bw
        )

    def test_random_write_seeks_only_on_rotational(self):
        hdd_delta = SATA_HDD.write_cost_us(4096, sequential=False) - \
            SATA_HDD.write_cost_us(4096, sequential=True)
        nvme_delta = NVME_SSD.write_cost_us(4096, sequential=False) - \
            NVME_SSD.write_cost_us(4096, sequential=True)
        assert hdd_delta == pytest.approx(SATA_HDD.seek_us)
        assert nvme_delta == 0.0

    def test_sync_cost(self):
        assert SATA_HDD.sync_cost_us() > NVME_SSD.sync_cost_us()


class TestValidationAndScaling:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            DeviceModel(
                name="bad", read_latency_us=-1, write_latency_us=1,
                seq_read_bw=1, seq_write_bw=1, seek_us=0, sync_us=0,
                rotational=False,
            )

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            DeviceModel(
                name="bad", read_latency_us=1, write_latency_us=1,
                seq_read_bw=0, seq_write_bw=1, seek_us=0, sync_us=0,
                rotational=False,
            )

    def test_scaled_slows_down_everything(self):
        slow = NVME_SSD.scaled(2.0)
        assert slow.read_latency_us == 2 * NVME_SSD.read_latency_us
        assert slow.seq_read_bw == NVME_SSD.seq_read_bw / 2
        assert slow.sync_us == 2 * NVME_SSD.sync_us

    def test_scaled_invalid_factor(self):
        with pytest.raises(ValueError):
            NVME_SSD.scaled(0.0)

    def test_scaled_name(self):
        assert NVME_SSD.scaled(2.0).name == "nvme-ssd-x2"
