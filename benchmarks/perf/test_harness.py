"""Self-test of the benchmark harness, at a fiftieth of its run length.

    python -m pytest benchmarks/perf -q

Checks the contract in ``BENCHMARK.json`` (every metric is printed
with its unit under a legal name, every workload ends with nothing
failed) and the determinism the harness leans on: virtual-time results
and engine counts repeat exactly for one seed, traced or not, and move
with the seed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

SMOKE_SECONDS = 0.2
CONTRACT = bench.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def runs() -> dict:
    """(workload, trace, seed) -> result, each computed once."""
    cache: dict = {}

    def get(name: str, trace: int, seed: int = 7) -> dict:
        key = (name, trace, seed)
        if key not in cache:
            cache[key] = bench.run_workload(name, seed, SMOKE_SECONDS, bool(trace))["result"]
        return cache[key]

    return get


def test_contract_names_are_legal_and_unique():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in CONTRACT["end_to_end"]
    )


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_and_nothing_fails(runs, name, trace):
    result = runs(name, trace)
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_virtual_results_and_counts_repeat_and_follow_the_seed(name):
    """One round each: ``Round.exact`` holds the virtual-time results
    and the engine counts (a run also checks this across its rounds)."""
    import workloads

    one_round = workloads.WORKLOADS[name]
    scale = SMOKE_SECONDS / bench.SECONDS_AT_FULL_SIZE
    first = one_round(7, scale, False)
    again = one_round(7, scale, True)
    other = one_round(8, scale, False)
    assert first.exact and first.exact == again.exact
    assert (first.kinds, first.unit_ops) == (again.kinds, again.unit_ops)
    assert first.exact != other.exact


def test_traced_run_accounts_for_its_wall_time(runs):
    for name in WORKLOADS:
        coverage = runs(name, 1)["metrics"]["obs.self_time_coverage"]["value"]
        assert 0.95 <= coverage <= 1.05, (name, coverage)


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", "fill",
         "--seed", "3", "--seconds", str(SMOKE_SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_compare_verdicts():
    a = {"median": 100.0, "q1": 99.0, "q3": 101.0}
    assert bench.verdict(a, {"median": 104.0, "q1": 103.0, "q3": 105.0}, "lower", 0.1)[0] == "same"
    assert bench.verdict(a, {"median": 120.0, "q1": 119.0, "q3": 121.0}, "lower", 0.1)[0] == "worse"
    assert bench.verdict(a, {"median": 120.0, "q1": 119.0, "q3": 121.0}, "higher", 0.1)[0] == "better"
    assert bench.verdict(a, {"median": 100.0, "q1": 80.0, "q3": 120.0}, "lower", 0.1)[0] == "unresolved"
