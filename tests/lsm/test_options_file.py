"""Tests for the OPTIONS file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptionsFileError
from repro.lsm.options import MiB, Options
from repro.lsm.options_file import (
    apply_changes,
    diff_as_text,
    load_options_file,
    parse_options_text,
    serialize_options,
)


class TestSerialize:
    def test_contains_all_sections(self):
        text = serialize_options(Options())
        assert "[Version]" in text
        assert "[DBOptions]" in text
        assert '[CFOptions "default"]' in text
        assert '[TableOptions/BlockBasedTable "default"]' in text

    def test_bool_rendering(self):
        text = serialize_options(Options())
        assert "paranoid_checks=true" in text
        assert "use_fsync=false" in text

    def test_only_overrides(self):
        opts = Options({"num_levels": 5})
        text = serialize_options(opts, only_overrides=True)
        assert "num_levels=5" in text
        assert "write_buffer_size" not in text


class TestParse:
    def test_round_trip_defaults(self):
        text = serialize_options(Options())
        parsed, warnings = parse_options_text(text)
        assert parsed == Options()
        assert warnings == []

    def test_round_trip_overrides(self):
        opts = Options({
            "write_buffer_size": 32 * MiB,
            "compression": "zstd",
            "dump_malloc_stats": False,
            "max_bytes_for_level_multiplier": 8.0,
        })
        parsed, _ = parse_options_text(serialize_options(opts))
        assert parsed == opts

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n[DBOptions]\n  max_background_jobs=4\n; other\n"
        parsed, _ = parse_options_text(text)
        assert parsed.get("max_background_jobs") == 4

    def test_unknown_option_strict(self):
        text = "[DBOptions]\nmade_up_option=1\n"
        with pytest.raises(OptionsFileError):
            parse_options_text(text, strict=True)

    def test_unknown_option_lenient(self):
        text = "[DBOptions]\nmade_up_option=1\nmax_background_jobs=4\n"
        parsed, warnings = parse_options_text(text, strict=False)
        assert parsed.get("max_background_jobs") == 4
        assert any("made_up_option" in w for w in warnings)

    def test_wrong_section_warns(self):
        text = "[DBOptions]\nwrite_buffer_size=8388608\n"
        parsed, warnings = parse_options_text(text, strict=False)
        assert parsed.get("write_buffer_size") == 8 * MiB
        assert any("belongs to" in w for w in warnings)

    def test_loose_cf_section_accepted(self):
        text = "[CFOptions]\nwrite_buffer_size=8388608\n"
        _, warnings = parse_options_text(text, strict=False)
        assert warnings == []

    def test_malformed_section(self):
        with pytest.raises(OptionsFileError):
            parse_options_text("[DBOptions\nx=1\n")

    def test_kv_outside_section(self):
        with pytest.raises(OptionsFileError):
            parse_options_text("max_background_jobs=4\n")

    def test_line_without_equals(self):
        with pytest.raises(OptionsFileError):
            parse_options_text("[DBOptions]\njust some text\n")

    def test_version_section_skipped(self):
        text = "[Version]\npylsm_version=1.0\n[DBOptions]\nmax_background_jobs=3\n"
        parsed, _ = parse_options_text(text)
        assert parsed.get("max_background_jobs") == 3


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "OPTIONS"
        opts = Options({"num_levels": 5})
        path.write_text(serialize_options(opts), encoding="utf-8")
        loaded, _ = load_options_file(str(path))
        assert loaded == opts


class TestHelpers:
    def test_diff_as_text(self):
        a = Options()
        b = Options({"write_buffer_size": 32 * MiB})
        text = diff_as_text(a, b)
        assert "write_buffer_size: 67108864 -> 33554432" in text

    def test_diff_as_text_empty(self):
        assert diff_as_text(Options(), Options()) == "(no changes)"

    def test_apply_changes(self):
        base = Options()
        out = apply_changes(base, [("num_levels", 5), ("compression", "none")])
        assert out.get("num_levels") == 5
        assert base.get("num_levels") == 7  # base untouched

    @given(st.dictionaries(
        st.sampled_from(["max_background_jobs", "num_levels",
                         "level0_file_num_compaction_trigger"]),
        st.integers(2, 8), max_size=3))
    @settings(max_examples=25)
    def test_serialize_parse_identity(self, overrides):
        opts = Options(overrides)
        parsed, _ = parse_options_text(serialize_options(opts))
        assert parsed == opts
