"""Tests for the fine-tuner (the paper's §6 future-work extension)."""

import pytest

from repro.bench.spec import WorkloadSpec
from repro.core.finetuner import (
    FineTuneConfig,
    FineTuner,
    HybridTuner,
)
from repro.core.stopping import StoppingCriteria
from repro.core.tuner import TunerConfig
from repro.errors import InvalidOptionValueError
from repro.hardware import make_profile
from repro.llm import ScriptedLLM
from repro.lsm.options import Options, spec_for

TINY_READ = WorkloadSpec(
    name="readrandom", num_ops=1500, num_keys=1500, preload_keys=1500,
    read_fraction=1.0, distribution="uniform", seed=9,
)


def config(iterations=1):
    return TunerConfig(
        workload=TINY_READ,
        profile=make_profile(4, 4),
        byte_scale=1 / 1024,
        stopping=StoppingCriteria(max_iterations=iterations),
    )


class TestFineTuneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FineTuneConfig(max_probes=0)


class TestStepping:
    def test_int_doubling_and_halving(self):
        spec = spec_for("max_background_jobs")
        assert FineTuner._stepped(spec, 4, 2.0) == 8
        assert FineTuner._stepped(spec, 4, 0.5) == 2

    def test_small_int_moves_by_one(self):
        spec = spec_for("max_background_jobs")
        assert FineTuner._stepped(spec, 1, 2.0) == 2
        assert FineTuner._stepped(spec, 2, 0.5) == 1

    def test_clamped_to_bounds(self):
        spec = spec_for("max_background_jobs")  # max 64
        assert FineTuner._stepped(spec, 64, 2.0) is None  # clamps to same
        assert FineTuner._stepped(spec, 1, 0.5) is None  # min 1

    def test_mode_values_untouched(self):
        spec = spec_for("max_background_flushes")
        assert FineTuner._stepped(spec, -1, 2.0) is None
        spec2 = spec_for("bytes_per_sync")
        assert FineTuner._stepped(spec2, 0, 2.0) is None

    def test_float_steps(self):
        spec = spec_for("bloom_filter_bits_per_key")
        assert FineTuner._stepped(spec, 10.0, 2.0) == 20.0


class TestCandidates:
    def test_includes_overrides_and_defaults(self):
        tuner = FineTuner(config())
        start = Options({"target_file_size_base": 32 << 20})
        names = tuner._candidates(start)
        assert "target_file_size_base" in names
        assert "write_buffer_size" in names  # always-candidate

    def test_excludes_blacklisted_and_non_numeric(self):
        tuner = FineTuner(config())
        start = Options({"compression": "zstd", "paranoid_checks": True})
        names = tuner._candidates(start)
        assert "compression" not in names
        assert "paranoid_checks" not in names


class TestFineTunerSearch:
    def test_respects_probe_budget(self):
        fine = FineTuneConfig(max_probes=4)
        tuner = FineTuner(config(), fine)
        result = tuner.run(Options())
        assert len(result.probes) <= 4

    def test_never_ends_worse(self):
        tuner = FineTuner(config(), FineTuneConfig(max_probes=6))
        result = tuner.run(Options())
        assert result.final_metrics.ops_per_sec >= \
            result.start_metrics.ops_per_sec

    def test_improves_read_workload_via_cache(self):
        # The two overridden options are the first candidates.
        tuner = FineTuner(config(), FineTuneConfig(max_probes=8))
        start = Options({"bloom_filter_bits_per_key": 4.0,
                         "block_cache_size": 64 << 20})
        result = tuner.run(start)
        assert result.improvement_factor > 1.0
        assert result.accepted_probes >= 1

    def test_describe(self):
        tuner = FineTuner(config(), FineTuneConfig(max_probes=2))
        result = tuner.run(Options())
        assert "probes" in result.describe()

    def test_a_rejected_value_skips_the_probe_and_a_bug_surfaces(
        self, monkeypatch
    ):
        tuner = FineTuner(config(), FineTuneConfig(max_probes=2))
        metrics = tuner._bench(Options())
        # no benchmark runs below, so the search is set()'s only caller
        monkeypatch.setattr(tuner, "_bench", lambda options: metrics)

        def reject(self, name, value, **kwargs):
            raise InvalidOptionValueError(name, value, "raced a bound")

        monkeypatch.setattr(Options, "set", reject)
        assert tuner.run(Options()).probes == []

        def bug(self, name, value, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(Options, "set", bug)
        with pytest.raises(RuntimeError, match="boom"):
            tuner.run(Options())


class TestHybridTuner:
    def test_hybrid_never_worse_than_llm_alone(self):
        llm = ScriptedLLM([
            "```\nbloom_filter_bits_per_key=6\nblock_cache_size=268435456\n```"
        ], cycle=True)
        hybrid = HybridTuner(
            config(iterations=1), llm, FineTuneConfig(max_probes=6)
        )
        result = hybrid.run()
        assert result.fine_result.final_metrics.ops_per_sec >= \
            result.llm_session.best.metrics.ops_per_sec
        assert result.total_factor >= result.llm_session.improvement_factor() * 0.99

    def test_describe(self):
        llm = ScriptedLLM(["```\nmax_background_jobs=4\n```"], cycle=True)
        hybrid = HybridTuner(
            config(iterations=1), llm, FineTuneConfig(max_probes=2)
        )
        assert "Hybrid tuning" in hybrid.run().describe()
