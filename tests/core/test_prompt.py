"""Tests for the Prompt Generator."""

import pytest

from repro.bench.spec import WorkloadSpec
from repro.core.prompt import FeedbackContext, PromptGenerator, PromptSections
from repro.hardware import SATA_HDD, SystemSnapshot, make_profile
from repro.lsm.options import Options

SPEC = WorkloadSpec(
    name="fillrandom", num_ops=1000, num_keys=1000, preload_keys=0,
    read_fraction=0.0, distribution="uniform",
)


def build(sections=None, feedback=None, snapshot=None, profile=None):
    profile = profile if profile is not None else make_profile(2, 4, SATA_HDD)
    generator = PromptGenerator(profile, SPEC, sections=sections)
    fb = feedback if feedback is not None else FeedbackContext(iteration=1)
    return generator.build(Options(), snapshot, fb)


class TestPromptGenerator:
    def test_two_messages(self):
        messages = build()
        assert [m.role for m in messages] == ["system", "user"]

    def test_system_message_sets_the_role(self):
        assert "LSM" in build()[0].content

    def test_hardware_section(self):
        user = build()[1].content
        assert "## System Information" in user
        assert "2 cores" in user or "CPU: 2" in user
        assert "(rotational)" in user

    def test_fio_section(self):
        user = build()[1].content
        assert "Storage characterization" in user
        assert "rand-read" in user

    def test_live_snapshot_preferred(self):
        snap = SystemSnapshot(make_profile(2, 4, SATA_HDD), 50.0, 0.0, 0, 0, 0)
        user = build(snapshot=snap)[1].content
        assert "utilization 50.0%" in user

    def test_workload_section(self):
        user = build()[1].content
        assert "## Workload" in user
        assert "write-intensive" in user

    def test_options_section_is_full_options_file(self):
        user = build()[1].content
        assert "## Current Configuration (OPTIONS)" in user
        assert "[DBOptions]" in user
        assert "write_buffer_size=67108864" in user

    def test_report_section_when_present(self):
        fb = FeedbackContext(iteration=2, previous_report="RPT-TEXT-HERE")
        user = build(feedback=fb)[1].content
        assert "## Last Benchmark Report" in user
        assert "RPT-TEXT-HERE" in user

    def test_no_report_section_without_report(self):
        user = build()[1].content
        assert "## Last Benchmark Report" not in user

    def test_deterioration_feedback(self):
        fb = FeedbackContext(
            iteration=3, deteriorated=True,
            reverted_diff="write_buffer_size: 64 -> 32",
        )
        user = build(feedback=fb)[1].content
        assert "deteriorated" in user
        assert "write_buffer_size: 64 -> 32" in user

    def test_improvement_feedback(self):
        fb = FeedbackContext(iteration=3)
        user = build(feedback=fb)[1].content
        assert "improved" in user

    def test_early_abort_feedback(self):
        fb = FeedbackContext(iteration=2, aborted_early=True)
        user = build(feedback=fb)[1].content
        assert "aborted early" in user

    def test_iteration_number_included(self):
        fb = FeedbackContext(iteration=5)
        assert "Iteration: 5" in build(feedback=fb)[1].content


class TestSectionAblations:
    def test_no_hardware(self):
        user = build(PromptSections(include_hardware=False))[1].content
        assert "## System Information" not in user

    def test_no_options(self):
        user = build(PromptSections(include_options=False))[1].content
        assert "[DBOptions]" not in user

    def test_no_fio(self):
        user = build(PromptSections(include_fio=False))[1].content
        assert "Storage characterization" not in user
