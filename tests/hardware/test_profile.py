"""Tests for hardware profiles."""

import pytest

from repro.hardware import (
    GiB,
    NVME_SSD,
    PAPER_HDD_2C4G,
    SATA_HDD,
    make_profile,
)


class TestMakeProfile:
    def test_basic(self):
        p = make_profile(4, 8)
        assert p.cpu_cores == 4
        assert p.memory_bytes == 8 * GiB
        assert p.device is NVME_SSD

    def test_name_encodes_cell(self):
        assert make_profile(2, 4, SATA_HDD).name == "2c+4g+sata-hdd"

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            make_profile(0, 4)

    def test_tiny_memory_rejected(self):
        with pytest.raises(ValueError):
            make_profile(4, 0.01)

    def test_memory_gib_property(self):
        assert make_profile(4, 4).memory_gib == pytest.approx(4.0)

    def test_describe_mentions_everything(self):
        text = make_profile(2, 4, SATA_HDD).describe()
        assert "2 CPU cores" in text
        assert "4.0 GiB" in text
        assert "sata-hdd" in text


class TestPaperCells:
    def test_named_cells(self):
        assert PAPER_HDD_2C4G.cpu_cores == 2
        assert PAPER_HDD_2C4G.device is SATA_HDD
