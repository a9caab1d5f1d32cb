#!/usr/bin/env python3
"""Plug your own LLM backend into ELMo-Tune.

The framework talks to any :class:`repro.llm.LLMClient`. The paper used
the GPT-4 API; this example shows (a) the exact adapter shape a real
HTTP client needs, and (b) a tiny hand-written "LLM" that follows a
fixed playbook — useful for regression-testing prompt changes.

Run:  python examples/custom_llm_backend.py
"""

from repro.bench.spec import DEFAULT_BYTE_SCALE, paper_workload
from repro.core import ElmoTune, TunerConfig
from repro.core.stopping import StoppingCriteria
from repro.hardware import make_profile
from repro.llm import ChatMessage, LLMClient


class PlaybookLLM(LLMClient):
    """A deterministic 'model' that works through a fixed checklist.

    A real OpenAI/Anthropic adapter has exactly this shape — turn the
    messages into an API call inside :meth:`complete` and return the
    response text. Everything else (prompting, parsing, safeguards,
    benchmarking, reverts) is handled by the framework.
    """

    PLAYBOOK = [
        # Iteration 1: enable the read-path essentials.
        "```\nbloom_filter_bits_per_key=10\nblock_cache_size=1073741824\n"
        "cache_index_and_filter_blocks=true\n```",
        # Iteration 2: give writes more headroom.
        "```\nwrite_buffer_size=134217728\nmax_write_buffer_number=4\n"
        "max_background_jobs=4\n```",
        # Iteration 3: an intentionally bad idea (the flagger will revert).
        "```\nwrite_buffer_size=4194304\nlevel0_slowdown_writes_trigger=6\n"
        "level0_stop_writes_trigger=8\n```",
        # Iteration 4: misc cleanups.
        "```\ndump_malloc_stats=false\nbytes_per_sync=1048576\n```",
    ]

    def __init__(self) -> None:
        self._turn = 0
        self.prompts_seen: list[str] = []

    def complete(self, messages: list[ChatMessage]) -> str:
        self.prompts_seen.append(messages[-1].content)
        response = self.PLAYBOOK[self._turn % len(self.PLAYBOOK)]
        self._turn += 1
        return response


def main() -> None:
    config = TunerConfig(
        workload=paper_workload("readrandomwriterandom", 1 / 10000).with_seed(3),
        profile=make_profile(4, 4),
        byte_scale=DEFAULT_BYTE_SCALE,
        stopping=StoppingCriteria(max_iterations=4),
    )
    llm = PlaybookLLM()
    session = ElmoTune(config, llm).run()

    print(session.describe())
    print()
    bad_iteration = session.iterations[3]
    print(f"Iteration 3 (the bad playbook entry) was "
          f"{'kept' if bad_iteration.kept else 'reverted'} — "
          f"the Active Flagger judged: {bad_iteration.note}")
    print()
    print("The framework told the model about it in the next prompt:")
    deterioration_lines = [
        line for line in llm.prompts_seen[-1].splitlines()
        if "deteriorated" in line or "->" in line
    ]
    for line in deterioration_lines[:5]:
        print(f"  | {line}")


if __name__ == "__main__":
    main()
