"""Fan independent tuning sessions over worker processes.

Every task is a frozen dataclass carrying its own seed, so a session's
outcome depends only on the task — never on which process ran it or in
what order the pool scheduled it. Results come back in input order,
and with one worker the fan-out is a plain serial loop with identical
results.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

from repro.bench.spec import DEFAULT_BYTE_SCALE, DEFAULT_SCALE, workload
from repro.core.session import TuningSession
from repro.core.stopping import StoppingCriteria
from repro.core.tuner import ElmoTune, TunerConfig
from repro.hardware.device import device_by_name
from repro.hardware.profile import HardwareProfile, make_profile
from repro.llm.simulated import SimulatedExpert


def profile_for_cell(cell: str) -> HardwareProfile:
    """Parse an experiment cell label like ``'2c4g-nvme-ssd'``."""
    hw, _, device_name = cell.partition("-")
    cpus, _, mem = hw.partition("c")
    return make_profile(
        int(cpus), float(mem.rstrip("g")), device_by_name(device_name)
    )


@dataclass(frozen=True)
class SessionTask:
    """One independent ELMo-Tune session over an experiment cell."""

    workload: str
    cell: str
    seed: int = 42
    scale: float = DEFAULT_SCALE
    iterations: int = 7
    byte_scale: float = DEFAULT_BYTE_SCALE


def _run_session_task(task: SessionTask) -> TuningSession:
    # Module-level so ProcessPoolExecutor can pickle it into the child.
    # Any named workload is a valid session target (paper, scan, or
    # service); an unknown name raises WorkloadError here.
    config = TunerConfig(
        workload=workload(task.workload, task.scale).with_seed(task.seed),
        profile=profile_for_cell(task.cell),
        byte_scale=task.byte_scale,
        stopping=StoppingCriteria(max_iterations=task.iterations),
    )
    # The tuner's default ring capture lands on session.trace_events,
    # which rides back to the parent inside the pickled session.
    return ElmoTune(config, SimulatedExpert(seed=task.seed)).run()


def run_session_tasks(
    tasks: Iterable[SessionTask], *, max_workers: int | None = None
) -> list[TuningSession]:
    """Run tuning sessions, one process per core by default; input order."""
    tasks = list(tasks)
    workers = min(max_workers or os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [_run_session_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_session_task, tasks))
