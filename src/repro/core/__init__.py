"""ELMo-Tune core: the LLM-driven tuning feedback loop."""

from repro.core.bench_parser import BenchMetrics, parse_report
from repro.core.finetuner import (
    FineTuneConfig,
    FineTuneResult,
    FineTuner,
    HybridResult,
    HybridTuner,
)
from repro.core.flagger import ActiveFlagger, FlagDecision
from repro.core.monitor import BenchmarkMonitor, MonitorConfig
from repro.core.parser import ProposedChange, extract_changes
from repro.core.prompt import FeedbackContext, PromptGenerator, PromptSections
from repro.core.safeguard import Rejection, SafeguardEnforcer, VetResult, default_blacklist
from repro.core.session import IterationRecord, TuningSession
from repro.core.stopping import StoppingCriteria, StopTracker
from repro.core.tuner import ElmoTune, TunerConfig

__all__ = [
    "ElmoTune",
    "TunerConfig",
    "TuningSession",
    "IterationRecord",
    "PromptGenerator",
    "PromptSections",
    "FeedbackContext",
    "ProposedChange",
    "extract_changes",
    "SafeguardEnforcer",
    "VetResult",
    "Rejection",
    "default_blacklist",
    "FineTuner",
    "FineTuneConfig",
    "FineTuneResult",
    "HybridTuner",
    "HybridResult",
    "ActiveFlagger",
    "FlagDecision",
    "BenchmarkMonitor",
    "MonitorConfig",
    "StoppingCriteria",
    "StopTracker",
    "BenchMetrics",
    "parse_report",
]
