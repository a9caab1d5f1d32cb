"""Tests for the Option Evaluator (LLM response parsing)."""

import pytest

from repro.core.parser import extract_changes
from repro.errors import LLMResponseError


def names(text):
    return {c.name: c.raw_value for c in extract_changes(text)}


class TestFencedBlocks:
    def test_plain_fence(self):
        text = "Here you go:\n```\nwrite_buffer_size=134217728\nmax_background_jobs=4\n```"
        assert names(text) == {
            "write_buffer_size": "134217728", "max_background_jobs": "4"
        }

    def test_language_tagged_fence(self):
        text = "```ini\nbloom_filter_bits_per_key=10\n```"
        assert names(text) == {"bloom_filter_bits_per_key": "10"}

    def test_section_headers_ignored(self):
        text = "```\n[DBOptions]\nmax_background_jobs=4\n```"
        assert names(text) == {"max_background_jobs": "4"}

    def test_multiple_fences(self):
        text = "First:\n```\na_opt=1\n```\nthen\n```\nb_opt=2\n```"
        assert set(names(text)) == {"a_opt", "b_opt"}


class TestInlineAndBullets:
    def test_bare_kv_lines(self):
        text = "I suggest:\nwrite_buffer_size=67108864\nThat should help."
        assert names(text) == {"write_buffer_size": "67108864"}

    def test_bullet_phrasing(self):
        text = "- Set `max_background_jobs` to `4` — parallelism.\n" \
               "- Set compaction_readahead_size to 4194304."
        got = names(text)
        assert got["max_background_jobs"] == "4"
        assert got["compaction_readahead_size"] == "4194304"

    def test_interleaved_prose_and_fragments(self):
        text = (
            "The buffers are too small:\n\n```\nwrite_buffer_size=134217728\n"
            "max_write_buffer_number=4\n```\n\nAlso, set `dump_malloc_stats` "
            "to `false` to save CPU.\n"
        )
        got = names(text)
        assert len(got) == 3
        assert got["dump_malloc_stats"] == "false"

    def test_later_mention_overrides_earlier(self):
        text = "```\nmax_background_jobs=2\n```\nActually, set " \
               "`max_background_jobs` to `6` instead."
        assert names(text)["max_background_jobs"] == "6"

    def test_prose_sentences_not_parsed_as_options(self):
        text = (
            "```\nmax_background_jobs=4\n```\n"
            "Tuning is about balance. x + y = z is math, not an option.\n"
        )
        got = names(text)
        assert set(got) == {"max_background_jobs"}


class TestFailureModes:
    def test_prose_only_raises(self):
        with pytest.raises(LLMResponseError):
            extract_changes("LSM tuning is a balancing act. Good luck!")

    def test_empty_raises(self):
        with pytest.raises(LLMResponseError):
            extract_changes("")

    def test_values_stay_raw(self):
        # Single-token garbage is kept raw for the safeguard to reject.
        got = names("```\nwrite_buffer_size=N/A\n```")
        assert got["write_buffer_size"] == "N/A"

    def test_multiword_garbage_is_unparseable(self):
        with pytest.raises(LLMResponseError):
            extract_changes(
                "```\nwrite_buffer_size=approximately double\n```"
            )

    def test_source_attribution(self):
        changes = extract_changes("```\na_x=1\n```\nSet `b_y` to `2`.")
        sources = {c.name: c.source for c in changes}
        assert sources["a_x"] == "fence"
        assert sources["b_y"] == "bullet"
