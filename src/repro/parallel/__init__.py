"""Process-parallel tuning sessions.

The paper's tables are built from independent, fully seeded tuning
sessions with no shared state. This package fans those sessions out
over a :class:`~concurrent.futures.ProcessPoolExecutor`, with results
identical to a serial run.
"""

from repro.parallel.executor import (
    SessionTask,
    profile_for_cell,
    run_session_tasks,
)

__all__ = ["SessionTask", "profile_for_cell", "run_session_tasks"]
