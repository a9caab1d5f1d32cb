"""Tests for the write-stall controller."""

import pytest

from repro.lsm.options import Options
from repro.lsm.write_controller import WriteController, WriteState


def decide(opts=None, *, l0=0, imm=0, pending=0):
    controller = WriteController(opts if opts is not None else Options())
    return controller.decide(
        l0_files=l0, immutable_memtables=imm, pending_compaction_bytes=pending
    )


class TestDecide:
    def test_normal_by_default(self):
        assert decide().state is WriteState.NORMAL

    def test_l0_slowdown(self):
        d = decide(l0=20)
        assert d.state is WriteState.DELAYED
        assert "level0" in d.reason
        assert d.delayed_rate > 0

    def test_l0_stop(self):
        assert decide(l0=36).state is WriteState.STOPPED

    def test_stop_takes_precedence_over_slowdown(self):
        d = decide(l0=100)
        assert d.state is WriteState.STOPPED

    def test_memtable_limit_stops(self):
        d = decide(imm=2)  # max_write_buffer_number default 2
        assert d.state is WriteState.STOPPED
        assert "memtable" in d.reason

    def test_imm_delay_requires_three_buffers(self):
        # With the default 2 buffers, one immutable memtable is fine.
        assert decide(imm=1).state is WriteState.NORMAL
        opts = Options({"max_write_buffer_number": 4})
        d = decide(opts, imm=3)
        assert d.state is WriteState.DELAYED
        assert "immutable" in d.reason

    def test_pending_bytes_soft_limit(self):
        opts = Options({"soft_pending_compaction_bytes_limit": 1000})
        d = decide(opts, pending=1000)
        assert d.state is WriteState.DELAYED

    def test_pending_bytes_hard_limit(self):
        opts = Options({
            "soft_pending_compaction_bytes_limit": 1000,
            "hard_pending_compaction_bytes_limit": 2000,
        })
        assert decide(opts, pending=2000).state is WriteState.STOPPED

    def test_custom_triggers(self):
        opts = Options({
            "level0_slowdown_writes_trigger": 8,
            "level0_stop_writes_trigger": 12,
        })
        assert decide(opts, l0=7).state is WriteState.NORMAL
        assert decide(opts, l0=8).state is WriteState.DELAYED
        assert decide(opts, l0=12).state is WriteState.STOPPED


class TestDelayPacing:
    def test_delay_proportional_to_bytes(self):
        controller = WriteController(Options())
        decision = decide(l0=20)
        small = controller.delay_us_for(decision, 100)
        large = controller.delay_us_for(decision, 1000)
        assert large == pytest.approx(10 * small)

    def test_no_delay_when_normal(self):
        controller = WriteController(Options())
        assert controller.delay_us_for(decide(), 100) == 0.0

    def test_delay_matches_configured_rate(self):
        opts = Options({"delayed_write_rate": 1_000_000})
        controller = WriteController(opts)
        decision = controller.decide(
            l0_files=20, immutable_memtables=0, pending_compaction_bytes=0
        )
        # 1 MB/s -> 1000 bytes take 1000 us.
        assert controller.delay_us_for(decision, 1000) == pytest.approx(1000.0)

    def test_normal_flag(self):
        assert decide().state is WriteState.NORMAL
        assert decide(l0=20).state is not WriteState.NORMAL
