"""Shared infrastructure for the paper-reproduction benchmarks.

Tuning sessions are expensive (7 iterations x one benchmark run each),
and several tables/figures draw on the same cell (e.g. Table 5 is the
Figure 3 fillrandom/HDD session), so sessions are memoized per
(workload, hardware cell, seed) for the lifetime of the pytest process.

Sessions are executed through :mod:`repro.parallel`: experiments that
need several cells call :func:`tuning_sessions` once, which fans the
independent sessions over worker processes (one per core; serial on a
single-core host) with identical results either way. Nothing persists
across pytest invocations, so every run reflects the code it runs.

Every benchmark writes its rendered table/series to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference real
output.
"""

from __future__ import annotations

import os

from repro.bench.spec import DEFAULT_SCALE
from repro.core.session import TuningSession
from repro.parallel import SessionTask, profile_for_cell, run_session_tasks

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: One shared seed keeps every experiment reproducible end to end.
SEED = 42

#: The paper runs 7 tuning iterations.
ITERATIONS = 7

#: In-process session memo: (workload, cell, seed, scale) -> session.
_SESSIONS: dict[tuple[str, str, int, float], TuningSession] = {}


def profile_for(cell: str):
    """``cell``: '<cpus>c<mem>g-<device>' e.g. '2c4g-sata-hdd'."""
    return profile_for_cell(cell)


def tuning_sessions(
    pairs, seed: int = SEED, scale: float = DEFAULT_SCALE
) -> list[TuningSession]:
    """Run (or fetch) the sessions for many (workload, cell) pairs.

    Sessions not yet in the in-process memo fan out over worker
    processes; results come back in input order and match a serial
    run exactly.
    """
    pairs = list(pairs)
    missing = []
    for workload, cell in pairs:
        key = (workload, cell, seed, scale)
        if key not in _SESSIONS and key not in missing:
            missing.append(key)
    if missing:
        tasks = [
            SessionTask(workload=w, cell=c, seed=s, scale=sc,
                        iterations=ITERATIONS)
            for w, c, s, sc in missing
        ]
        sessions = run_session_tasks(tasks)
        _SESSIONS.update(zip(missing, sessions))
    return [_SESSIONS[(w, c, seed, scale)] for w, c in pairs]


def tuning_session(workload: str, cell: str, seed: int = SEED,
                   scale: float = DEFAULT_SCALE) -> TuningSession:
    """Run (or fetch the cached) tuning session for one experiment cell."""
    return tuning_sessions([(workload, cell)], seed=seed, scale=scale)[0]


def write_result(name: str, text: str) -> None:
    """Persist one experiment's rendered output (and echo it)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
