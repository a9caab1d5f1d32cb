"""Session fan-out: serial/parallel equivalence, order and errors.

The determinism contract is the load-bearing property: fanning sessions
over worker processes must change nothing but wall-clock time, traces
included. These tests force ``max_workers=2`` (fork works regardless of
core count), so the contract is exercised even on a single-core host.
"""

import pathlib
import re

import pytest

import repro.parallel
from repro.errors import WorkloadError
from repro.parallel import SessionTask, profile_for_cell, run_session_tasks

SCALE = 0.0001
ROOT = pathlib.Path(__file__).resolve().parents[2]

# One paper workload, one scan workload, and one service workload (the
# tuner routes it through the sharded service).
WORKLOADS = ["fillrandom", "seekrandom", "readwhilewriting"]
TASKS = [
    SessionTask(workload=w, cell="2c4g-nvme-ssd", seed=42, scale=SCALE,
                iterations=2)
    for w in WORKLOADS
]


@pytest.fixture(scope="module")
def serial_and_parallel():
    return (run_session_tasks(TASKS, max_workers=1),
            run_session_tasks(TASKS, max_workers=2))


def pair_for(serial_and_parallel, workload):
    i = WORKLOADS.index(workload)
    serial, parallel = serial_and_parallel
    return serial[i], parallel[i]


def assert_identical(serial, parallel):
    name = serial.workload_name
    assert serial.describe() == parallel.describe(), name
    assert serial.throughput_series() == parallel.throughput_series(), name
    assert serial.p99_write_series() == parallel.p99_write_series(), name
    assert serial.best.options.overrides() == \
        parallel.best.options.overrides(), name
    assert serial.stop_reason == parallel.stop_reason, name
    assert serial.trace_events, name
    assert serial.trace_events == parallel.trace_events, name


class TestProfileForCell:
    def test_parses_cell_label(self):
        profile = profile_for_cell("2c4g-nvme-ssd")
        assert profile.cpu_cores == 2
        assert profile.memory_gib == pytest.approx(4.0)
        assert profile.device.name == "nvme-ssd"

    def test_hdd_cell(self):
        assert profile_for_cell("4c8g-sata-hdd").device.name == "sata-hdd"


class TestSessionExecutor:
    def test_serial_and_parallel_sessions_identical(self, serial_and_parallel):
        assert_identical(*pair_for(serial_and_parallel, "fillrandom"))

    def test_seekrandom_session_serial_parallel_and_cached(
            self, serial_and_parallel):
        # Scans take a different path through the engine than writes.
        # Nothing is cached any more: a re-run recomputes the session
        # and must reproduce it exactly.
        serial, parallel = pair_for(serial_and_parallel, "seekrandom")
        assert_identical(serial, parallel)
        [rerun] = run_session_tasks([TASKS[WORKLOADS.index("seekrandom")]],
                                    max_workers=1)
        assert_identical(serial, rerun)

    def test_results_come_back_in_input_order(self, serial_and_parallel):
        for sessions in serial_and_parallel:
            assert [s.workload_name for s in sessions] == WORKLOADS

    def test_empty_task_list(self):
        assert run_session_tasks([]) == []
        assert run_session_tasks([], max_workers=2) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_workload_raises_workload_error(self, workers):
        bad = SessionTask(workload="nope", cell="2c4g-nvme-ssd",
                          scale=SCALE, iterations=1)
        with pytest.raises(WorkloadError, match="nope"):
            run_session_tasks([bad, bad], max_workers=workers)


class TestServiceExecutor:
    def test_serial_and_parallel_service_runs_identical(
            self, serial_and_parallel):
        # readwhilewriting is served by the sharded service, so this
        # pair covers the service path across the process boundary.
        serial, parallel = pair_for(serial_and_parallel, "readwhilewriting")
        assert "service.start" in {e.type for e in serial.trace_events}
        assert_identical(serial, parallel)


class TestPackageSurface:
    def test_exports_only_the_session_fan_out(self):
        assert repro.parallel.__all__ == [
            "SessionTask", "profile_for_cell", "run_session_tasks",
        ]

    def test_no_environment_knobs(self):
        pattern = re.compile(rb"os\.environ|getenv")
        readers = [
            str(path.relative_to(ROOT))
            for top in ("src", "scripts", "benchmarks")
            for path in sorted((ROOT / top).rglob("*"))
            if path.is_file() and "__pycache__" not in path.parts
            and pattern.search(path.read_bytes())
        ]
        assert readers == []
