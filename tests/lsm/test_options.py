"""Tests for the option catalog and Options bag."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    InvalidOptionValueError,
    OptionError,
    UnknownOptionError,
)
from repro.lsm.options import (
    BYTE_SCALED_OPTIONS,
    CATALOG,
    MiB,
    Options,
    format_size,
    known_option,
    parse_size,
    scale_bytes,
    sensitive_option_names,
    spec_for,
)


class TestCatalog:
    def test_is_an_unrestricted_pool(self):
        """The paper's premise: 100+ options exposed to the tuner."""
        assert len(CATALOG) >= 100

    def test_no_duplicate_names(self):
        names = [spec.name for spec in CATALOG]
        assert len(names) == len(set(names))

    def test_paper_table5_options_all_exist(self):
        table5 = [
            "max_background_flushes", "wal_bytes_per_sync", "bytes_per_sync",
            "strict_bytes_per_sync", "max_background_compactions",
            "dump_malloc_stats", "enable_pipelined_write",
            "max_bytes_for_level_multiplier", "max_write_buffer_number",
            "compaction_readahead_size", "max_background_jobs",
            "target_file_size_base", "write_buffer_size",
            "level0_file_num_compaction_trigger",
            "min_write_buffer_number_to_merge",
        ]
        for name in table5:
            assert known_option(name), name

    def test_paper_table5_defaults(self):
        """Defaults match the paper's Table 5 'Default' column."""
        opts = Options()
        assert opts.get("max_background_flushes") == -1
        assert opts.get("wal_bytes_per_sync") == 0
        assert opts.get("bytes_per_sync") == 0
        assert opts.get("strict_bytes_per_sync") is False
        assert opts.get("max_background_compactions") == -1
        assert opts.get("dump_malloc_stats") is True
        assert opts.get("enable_pipelined_write") is True
        assert opts.get("max_bytes_for_level_multiplier") == 10
        assert opts.get("max_write_buffer_number") == 2
        assert opts.get("compaction_readahead_size") == 2097152
        assert opts.get("max_background_jobs") == 2
        assert opts.get("target_file_size_base") == 67108864
        assert opts.get("write_buffer_size") == 67108864
        assert opts.get("level0_file_num_compaction_trigger") == 4
        assert opts.get("min_write_buffer_number_to_merge") == 1

    def test_every_option_has_description(self):
        assert all(spec.description for spec in CATALOG)

    def test_defaults_all_validate(self):
        for spec in CATALOG:
            assert spec.validate(spec.default) == spec.default

    def test_unknown_option_raises(self):
        with pytest.raises(UnknownOptionError):
            spec_for("not_a_real_option")

    def test_sensitive_includes_journaling(self):
        assert "disable_wal" in sensitive_option_names()
        assert "paranoid_checks" in sensitive_option_names()

    def test_deprecated_includes_flush_job_count(self):
        assert spec_for("flush_job_count").deprecated


class TestValidation:
    def test_int_range(self):
        with pytest.raises(InvalidOptionValueError):
            Options({"max_background_jobs": 0})
        with pytest.raises(InvalidOptionValueError):
            Options({"max_background_jobs": 1000})

    def test_int_from_string_with_units(self):
        opts = Options({"write_buffer_size": "64MB"})
        assert opts.get("write_buffer_size") == 64 * MiB

    def test_bool_coercion(self):
        for raw, expected in [("true", True), ("false", False), ("1", True),
                              ("off", False), (1, True)]:
            opts = Options({"dump_malloc_stats": raw})
            assert opts.get("dump_malloc_stats") is expected

    def test_bool_garbage_rejected(self):
        with pytest.raises(InvalidOptionValueError):
            Options({"dump_malloc_stats": "maybe"})

    def test_enum_choice(self):
        opts = Options({"compression": "zstd"})
        assert opts.get("compression") == "zstd"
        with pytest.raises(InvalidOptionValueError):
            Options({"compression": "brotli"})
        # background jobs have one host vehicle and no option to pick
        # another: the name is rejected like any other unknown one, at
        # construction and on a later set()
        for attempt in (
            lambda: Options({"background_executor": "inline"}),
            lambda: Options().set("background_executor", "thread"),
        ):
            with pytest.raises(UnknownOptionError):
                attempt()

    @pytest.mark.parametrize(
        "name", ["overload_policy", "overload_queue_depth", "overload_p99_ms"]
    )
    def test_overload_knobs_are_unknown(self, name):
        # the service has no overload detector, so nothing reads these
        with pytest.raises(UnknownOptionError):
            Options({name: "1"})
        with pytest.raises(UnknownOptionError):
            spec_for(name)

    def test_float_option(self):
        opts = Options({"max_bytes_for_level_multiplier": "8"})
        assert opts.get("max_bytes_for_level_multiplier") == 8.0

    def test_int_rejects_text(self):
        with pytest.raises(InvalidOptionValueError):
            Options({"write_buffer_size": "approximately double"})

    def test_int_rejects_bool(self):
        with pytest.raises(InvalidOptionValueError):
            Options({"write_buffer_size": True})


class TestOptionsBag:
    def test_unset_reports_default(self):
        assert Options().get("num_levels") == 7

    def test_attribute_access(self):
        opts = Options()
        assert opts.write_buffer_size == 64 * MiB
        opts.write_buffer_size = 32 * MiB
        assert opts.get("write_buffer_size") == 32 * MiB

    def test_attribute_error_for_unknown(self):
        with pytest.raises(AttributeError):
            Options().no_such_option

    def test_copy_is_independent(self):
        a = Options({"num_levels": 5})
        b = a.copy()
        b.set("num_levels", 6)
        assert a.get("num_levels") == 5

    def test_equality(self):
        assert Options({"num_levels": 5}) == Options({"num_levels": 5})
        assert Options({"num_levels": 5}) != Options()

    def test_diff(self):
        a = Options()
        b = Options({"num_levels": 5, "compression": "none"})
        diff = a.diff(b)
        assert diff == {
            "num_levels": (7, 5),
            "compression": ("snappy", "none"),
        }

    def test_diff_empty_when_equal(self):
        assert Options().diff(Options()) == {}

    def test_overrides_only_explicit(self):
        opts = Options({"num_levels": 5})
        assert opts.overrides() == {"num_levels": 5}

    def test_as_dict_covers_catalog(self):
        assert len(Options().as_dict()) == len(CATALOG)


class TestDerived:
    def test_background_split_auto(self):
        opts = Options({"max_background_jobs": 8})
        assert opts.effective_max_background_flushes() == 2
        assert opts.effective_max_background_compactions() == 6

    def test_background_split_explicit(self):
        opts = Options({"max_background_flushes": 3,
                        "max_background_compactions": 5})
        assert opts.effective_max_background_flushes() == 3
        assert opts.effective_max_background_compactions() == 5

    def test_background_split_minimums(self):
        opts = Options({"max_background_jobs": 1})
        assert opts.effective_max_background_flushes() >= 1
        assert opts.effective_max_background_compactions() >= 1

    def test_memory_budget(self):
        opts = Options({"write_buffer_size": 8192,
                        "max_write_buffer_number": 3,
                        "block_cache_size": 100})
        assert opts.memtable_budget_bytes() == 3 * 8192
        assert opts.memory_budget_bytes() == 3 * 8192 + 100

    def test_bloom_enabled(self):
        assert not Options().bloom_enabled()
        assert Options({"bloom_filter_bits_per_key": 10}).bloom_enabled()

    def test_level_targets_grow_geometrically(self):
        opts = Options()
        assert opts.level_target_bytes(0) == 0
        assert opts.level_target_bytes(2) == 10 * opts.level_target_bytes(1)

    def test_target_file_size(self):
        opts = Options({"target_file_size_multiplier": 2})
        assert opts.target_file_size(2) == 2 * opts.target_file_size(1)


class TestSizes:
    @pytest.mark.parametrize("text,expected", [
        ("0", 0), ("-1", -1), ("123", 123),
        ("4k", 4096), ("4KB", 4096), ("1MiB", 1 << 20),
        ("2GB", 2 << 30), ("1.5MB", int(1.5 * (1 << 20))),
    ])
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    def test_parse_size_garbage(self):
        with pytest.raises(OptionError):
            parse_size("lots")
        with pytest.raises(OptionError):
            parse_size("")

    def test_format_size(self):
        assert format_size(64 * MiB) == "64MiB"
        assert format_size(1000) == "1000"
        assert format_size(0) == "0"


class TestByteScaling:
    def test_scales_listed_options(self):
        opts = Options()
        scaled = scale_bytes(opts, 1 / 1024)
        assert scaled.get("write_buffer_size") == 64 * 1024
        assert scaled.get("block_cache_size") == 8 * 1024

    def test_preserves_semantic_zeros(self):
        opts = Options({"bytes_per_sync": 0})
        assert scale_bytes(opts, 0.5).get("bytes_per_sync") == 0

    def test_rates_not_scaled(self):
        assert "delayed_write_rate" not in BYTE_SCALED_OPTIONS
        assert "rate_limiter_bytes_per_sec" not in BYTE_SCALED_OPTIONS
        opts = Options()
        assert scale_bytes(opts, 0.001).get("delayed_write_rate") == \
            opts.get("delayed_write_rate")

    def test_clamps_to_minimum(self):
        opts = Options({"write_buffer_size": 8192})
        scaled = scale_bytes(opts, 1e-9)
        assert scaled.get("write_buffer_size") == 4096  # spec minimum

    def test_identity(self):
        opts = Options({"write_buffer_size": 128 * MiB})
        assert scale_bytes(opts, 1.0).get("write_buffer_size") == 128 * MiB

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            scale_bytes(Options(), 0)

    @given(st.sampled_from(BYTE_SCALED_OPTIONS))
    @settings(max_examples=20)
    def test_scaled_values_still_validate(self, name):
        opts = Options()
        scaled = scale_bytes(opts, 1 / 4096)
        spec = spec_for(name)
        assert spec.validate(scaled.get(name)) == scaled.get(name)


class TestOptionsPickle:
    """The parallel executor ships Options across process boundaries."""

    def test_round_trip_preserves_overrides(self):
        import pickle

        opts = Options({"write_buffer_size": 256 * 1024,
                        "bloom_filter_bits_per_key": 10.0})
        clone = pickle.loads(pickle.dumps(opts))
        assert clone == opts
        assert clone.overrides() == opts.overrides()

    def test_round_trip_of_defaults(self):
        import pickle

        clone = pickle.loads(pickle.dumps(Options()))
        assert clone.overrides() == {}
        assert clone.get("write_buffer_size") == \
            Options().get("write_buffer_size")

    def test_unpickled_options_still_validate(self):
        import pickle

        clone = pickle.loads(pickle.dumps(Options()))
        with pytest.raises(Exception):
            clone.set("write_buffer_size", -1)
