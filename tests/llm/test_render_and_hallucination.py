"""Tests for response rendering and imperfection injection."""

import random

import pytest

from repro.core.parser import extract_changes
from repro.errors import LLMResponseError
from repro.llm.hallucination import (
    FABRICATED_OPTIONS,
    HallucinationInjector,
    HallucinationProfile,
)
from repro.llm.render import render_prose_only, render_response
from repro.lsm.options import known_option


class TestRender:
    PROPOSAL = {"write_buffer_size": 134217728, "max_background_jobs": 4,
                "dump_malloc_stats": False}
    RATIONALES = {"write_buffer_size": "bigger flushes"}

    def test_every_format_is_parseable(self):
        # Across many seeds all four formats occur and all parse.
        seen_shapes = set()
        for seed in range(24):
            rng = random.Random(seed)
            text = render_response(self.PROPOSAL, self.RATIONALES, [], rng)
            changes = {c.name: c.raw_value for c in extract_changes(text)}
            assert changes.get("write_buffer_size") == "134217728", text
            assert changes.get("dump_malloc_stats") == "false"
            seen_shapes.add("```" in text)
        assert seen_shapes == {True, False}

    def test_deterioration_acknowledged(self):
        rng = random.Random(1)
        text = render_response(self.PROPOSAL, {}, [], rng, deteriorated=True)
        assert "regressed" in text

    def test_lore_included(self):
        rng = random.Random(1)
        text = render_response(self.PROPOSAL, {}, ["Bloom filters cut reads."], rng)
        assert "Bloom filters cut reads." in text

    def test_prose_only_has_no_config(self):
        rng = random.Random(2)
        text = render_prose_only(["some lore"], rng)
        with pytest.raises(LLMResponseError):
            extract_changes(text)


class TestHallucinationProfile:
    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            HallucinationProfile(fabricated_rate=1.5)

    def test_none_profile(self):
        p = HallucinationProfile.none()
        assert p.fabricated_rate == 0.0
        assert p.prose_only_rate == 0.0

    def test_severe_profile_rates_higher(self):
        assert HallucinationProfile.severe().unsafe_rate > \
            HallucinationProfile().unsafe_rate


class TestInjector:
    def test_zero_rates_change_nothing(self):
        injector = HallucinationInjector(
            HallucinationProfile.none(), random.Random(1))
        proposal = {"write_buffer_size": 1 << 26}
        assert injector.mutate_proposal(proposal) == proposal
        assert not injector.wants_prose_only()

    def test_full_rates_inject_everything(self):
        injector = HallucinationInjector(
            HallucinationProfile(1.0, 1.0, 1.0, 1.0, 0.0), random.Random(1))
        out = injector.mutate_proposal({"write_buffer_size": 1 << 26})
        kinds = {entry.split(":")[0] for entry in injector.injected}
        assert kinds == {"fabricated", "deprecated", "unsafe", "malformed"}
        assert len(out) > 1

    def test_fabricated_names_are_not_real_options(self):
        for name, _ in FABRICATED_OPTIONS:
            assert not known_option(name), name

    def test_original_not_mutated(self):
        injector = HallucinationInjector(
            HallucinationProfile(1.0, 1.0, 1.0, 1.0, 0.0), random.Random(1))
        proposal = {"write_buffer_size": 1 << 26}
        injector.mutate_proposal(proposal)
        assert proposal == {"write_buffer_size": 1 << 26}

    def test_prose_only_sometimes(self):
        injector = HallucinationInjector(
            HallucinationProfile(0, 0, 0, 0, prose_only_rate=1.0),
            random.Random(1))
        assert injector.wants_prose_only()
