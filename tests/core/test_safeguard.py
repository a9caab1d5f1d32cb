"""Tests for the Safeguard Enforcer."""

import pytest

from repro.core.parser import ProposedChange
from repro.core.safeguard import SafeguardEnforcer, default_blacklist
from repro.lsm.options import Options


def change(name, value, source="fence"):
    return ProposedChange(name, str(value), source)


@pytest.fixture
def enforcer():
    return SafeguardEnforcer()


class TestVetting:
    def test_valid_change_accepted(self, enforcer):
        result = enforcer.vet([change("max_background_jobs", 4)], Options())
        assert result.accepted == [("max_background_jobs", 4)]
        assert not result.rejected

    def test_value_typed_on_acceptance(self, enforcer):
        result = enforcer.vet([change("dump_malloc_stats", "false")], Options())
        assert result.accepted == [("dump_malloc_stats", False)]

    def test_size_suffix_values(self, enforcer):
        result = enforcer.vet([change("write_buffer_size", "128MB")], Options())
        assert result.accepted == [("write_buffer_size", 128 << 20)]

    def test_hallucinated_option_rejected(self, enforcer):
        result = enforcer.vet(
            [change("memtable_flush_parallelism", 4)], Options())
        assert not result.accepted
        assert result.rejected[0].category == "unknown"

    def test_deprecated_option_rejected(self, enforcer):
        result = enforcer.vet([change("flush_job_count", 2)], Options())
        assert result.rejected[0].category == "deprecated"

    def test_deprecated_allowed_when_configured(self):
        enforcer = SafeguardEnforcer(allow_deprecated=True)
        result = enforcer.vet([change("flush_job_count", 2)], Options())
        assert result.accepted == [("flush_job_count", 2)]

    def test_blacklisted_journaling_rejected(self, enforcer):
        result = enforcer.vet([change("disable_wal", "true")], Options())
        assert result.rejected[0].category == "blacklist"

    def test_blacklist_is_configurable(self):
        enforcer = SafeguardEnforcer(blacklist=frozenset({"compression"}))
        vetoed = enforcer.vet([change("compression", "zstd")], Options())
        assert vetoed.rejected[0].category == "blacklist"
        allowed = enforcer.vet([change("disable_wal", "true")], Options())
        assert allowed.accepted  # not on this custom blacklist

    def test_default_blacklist_contents(self):
        bl = default_blacklist()
        assert "disable_wal" in bl
        assert "paranoid_checks" in bl
        assert "no_block_cache" in bl

    def test_malformed_value_rejected(self, enforcer):
        result = enforcer.vet(
            [change("write_buffer_size", "approximately-double")], Options())
        assert result.rejected[0].category == "value"

    def test_out_of_range_rejected(self, enforcer):
        result = enforcer.vet([change("max_background_jobs", 9999)], Options())
        assert result.rejected[0].category == "value"

    def test_mixed_batch_split(self, enforcer):
        result = enforcer.vet([
            change("max_background_jobs", 4),
            change("made_up", 1),
            change("bloom_filter_bits_per_key", 10),
        ], Options())
        assert len(result.accepted) == 2
        assert len(result.rejected) == 1


class TestSemanticChecks:
    def test_slowdown_above_stop_rejected(self, enforcer):
        result = enforcer.vet([
            change("level0_slowdown_writes_trigger", 50),
        ], Options())  # default stop = 36
        assert any(r.category == "semantic" for r in result.rejected)

    def test_consistent_trigger_pair_accepted(self, enforcer):
        result = enforcer.vet([
            change("level0_slowdown_writes_trigger", 28),
            change("level0_stop_writes_trigger", 46),
        ], Options())
        assert len(result.accepted) == 2

    def test_slowdown_below_compaction_trigger_rejected(self, enforcer):
        result = enforcer.vet([
            change("level0_slowdown_writes_trigger", 3),
        ], Options())  # compaction trigger default = 4
        assert any(r.category == "semantic" for r in result.rejected)

    def test_min_merge_vs_max_buffers(self, enforcer):
        result = enforcer.vet([
            change("min_write_buffer_number_to_merge", 5),
        ], Options())  # max_write_buffer_number default = 2
        assert any(r.category == "semantic" for r in result.rejected)

    def test_min_merge_ok_with_raised_buffers(self, enforcer):
        result = enforcer.vet([
            change("min_write_buffer_number_to_merge", 3),
            change("max_write_buffer_number", 6),
        ], Options())
        assert len(result.accepted) == 2


class TestChangeBudget:
    def test_budget_truncates(self):
        enforcer = SafeguardEnforcer(max_changes_per_iteration=2)
        result = enforcer.vet([
            change("max_background_jobs", 4),
            change("bloom_filter_bits_per_key", 10),
            change("block_cache_size", 1 << 30),
        ], Options())
        assert len(result.accepted) == 2
        assert any("budget" in r.reason for r in result.rejected)

    def test_describe(self, enforcer):
        result = enforcer.vet([change("nope_opt", 1)], Options())
        assert "rejected" in result.describe()
