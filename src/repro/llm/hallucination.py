"""Calibrated imperfections for the simulated expert.

The paper's safeguards exist because real LLMs hallucinate option names,
dwell on deprecated options, suggest unsafe changes, and occasionally
break the output format. This module injects those behaviours at seeded
rates so every safeguard path is exercised deterministically — and can
be ablated by zeroing the profile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.lsm.options import MiB

#: Plausible-but-nonexistent option names of the kind LLMs invent
#: (pattern-matched from real names).
FABRICATED_OPTIONS: tuple[tuple[str, Any], ...] = (
    ("memtable_flush_parallelism", 4),
    ("level0_compaction_velocity", 2),
    ("write_amplification_target", 8),
    ("dynamic_bloom_resize", True),
    ("compaction_thread_priority", "high"),
    ("max_flush_bytes_per_sec", 64 * MiB),
    ("block_cache_shard_count", 16),
)

#: Values for deprecated options the model "remembers" from old guides.
DEPRECATED_SUGGESTIONS: tuple[tuple[str, Any], ...] = (
    ("flush_job_count", 2),
    ("base_background_compactions", 2),
    ("max_mem_compaction_level", 3),
    ("soft_rate_limit", 2.5),
    ("purge_redundant_kvs_while_flush", False),
)

#: Unsafe suggestions an unguarded model sometimes makes "for speed".
UNSAFE_SUGGESTIONS: tuple[tuple[str, Any], ...] = (
    ("disable_wal", True),
    ("paranoid_checks", False),
    ("allow_data_loss_on_crash", True),
    ("no_block_cache", True),
)


@dataclass(frozen=True)
class HallucinationProfile:
    """Per-response probabilities of each imperfection."""

    fabricated_rate: float = 0.10
    deprecated_rate: float = 0.12
    unsafe_rate: float = 0.08
    malformed_value_rate: float = 0.06
    prose_only_rate: float = 0.03

    def __post_init__(self) -> None:
        for name in (
            "fabricated_rate",
            "deprecated_rate",
            "unsafe_rate",
            "malformed_value_rate",
            "prose_only_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability")

    @classmethod
    def none(cls) -> "HallucinationProfile":
        """A perfectly disciplined model (ablation baseline)."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def severe(cls) -> "HallucinationProfile":
        """A sloppy model (stress-tests the safeguards)."""
        return cls(0.35, 0.30, 0.25, 0.20, 0.10)


class HallucinationInjector:
    """Applies a profile's imperfections to a proposal dict."""

    def __init__(self, profile: HallucinationProfile, rng: random.Random) -> None:
        self.profile = profile
        self._rng = rng
        self.injected: list[str] = []  # audit trail for tests

    def mutate_proposal(self, proposal: dict[str, Any]) -> dict[str, Any]:
        """Return a possibly-corrupted copy of ``proposal``."""
        out = dict(proposal)
        rng = self._rng
        if rng.random() < self.profile.fabricated_rate:
            name, value = rng.choice(FABRICATED_OPTIONS)
            out[name] = value
            self.injected.append(f"fabricated:{name}")
        if rng.random() < self.profile.deprecated_rate:
            name, value = rng.choice(DEPRECATED_SUGGESTIONS)
            out[name] = value
            self.injected.append(f"deprecated:{name}")
        if rng.random() < self.profile.unsafe_rate:
            name, value = rng.choice(UNSAFE_SUGGESTIONS)
            out[name] = value
            self.injected.append(f"unsafe:{name}")
        if out and rng.random() < self.profile.malformed_value_rate:
            victim = rng.choice(sorted(out))
            out[victim] = rng.choice(
                ["approximately double", "N/A", "auto-tune", "∞", "fast"]
            )
            self.injected.append(f"malformed:{victim}")
        return out

    def wants_prose_only(self) -> bool:
        """Occasionally the model answers in prose with no config at all."""
        if self._rng.random() < self.profile.prose_only_rate:
            self.injected.append("prose-only")
            return True
        return False
