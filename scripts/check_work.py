"""Host work as a pinned number: Python calls per operation, by layer.

Run by ``scripts/check.sh``; ``python scripts/check_work.py`` profiles
one round of every host-time workload, ``... check_work.py fill`` just
that one.

Each round is the one ``benchmarks/perf/workloads.py`` times (seed 42,
scale 0.25), run once under :mod:`cProfile`. Every call is charged to a
layer: ``lsm``, ``service``, ``core``, ... for a function of that
``repro`` package, ``harness`` for the benchmark's own code, and, for a
builtin or a standard-library function, the layer of whoever called it
(split by its callers' call counts). A layer's figure is its calls over
the operations the round measured (``sum(Round.unit_ops)``), to a tenth
of a call. cProfile names a function without its class, so methods of
one name in one module share a label.

Each figure is pinned in :data:`PINS` as a ceiling, with the functions
that make most of it. A rise fails, naming the layer and the functions
whose calls per operation grew past their pin (or are new to the
list). A fall passes and prints the new figure, so the commit that
lowers it lowers the pin too: a ratchet, like ``MAX_METHODS``.

A call count is not time. Trading Python calls for one heavier builtin
lowers the count and can cost more, and a call into ``zlib`` counts
the same as one into ``len``. So this is a companion to the paired
host-time runs of ``benchmarks/perf/bench.py``, never a replacement:
a performance change reports both. What it adds is determinism: the
counts repeat exactly from run to run and under any ``PYTHONHASHSEED``,
so a change in them is a change in the work, not in the host.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "benchmarks" / "perf"
sys.path[:0] = [str(PERF), str(ROOT / "src")]

import workloads  # noqa: E402

SEED = 42
SCALE = 0.25
#: The functions listed under a layer's pin: its ``LISTED`` busiest, of
#: those making at least ``LISTED_FLOOR`` calls per operation.
LISTED = 5
LISTED_FLOOR = 1.0

SRC = str(ROOT / "src" / "repro") + os.sep
HARNESS = (str(ROOT / "benchmarks") + os.sep, str(ROOT / "scripts") + os.sep)

#: Function key as :mod:`pstats` gives it: (file, line, name).
Func = tuple[str, int, str]


def _owner(func: Func) -> str | None:
    """``layer.module.function`` for a function of this repo, else None."""
    path, _line, name = func
    if path.startswith(SRC):
        return f"{path[len(SRC):-3].replace(os.sep, '.')}.{name}"
    if path.startswith(HARNESS):
        return f"harness.{Path(path).stem}.{name}"
    return None


def charge(stats: dict) -> dict[str, dict[str, float]]:
    """Calls per layer and repo function. A function of this repo is
    charged its own calls plus the builtin and library calls it makes;
    a builtin or library function's calls are split over its callers
    by their call counts, down through library callers to the repo
    functions that made them."""
    shares: dict[Func, dict[str, float]] = {}

    def share_of(func: Func, visiting: set[Func]) -> dict[str, float]:
        """How one call of ``func`` divides over repo functions."""
        owner = _owner(func)
        if owner is not None:
            return {owner: 1.0}
        if func in shares:
            return shares[func]
        visiting.add(func)
        total: dict[str, float] = {}
        weight = 0
        callers = stats[func][4] if func in stats else {}
        for caller in sorted(callers):
            if caller == func or caller in visiting:
                continue
            calls = callers[caller][1]
            for label, part in share_of(caller, visiting).items():
                total[label] = total.get(label, 0.0) + calls * part
            weight += calls
        visiting.discard(func)
        if not weight:  # called from outside the profile
            return {"harness.(outside)": 1.0}
        shares[func] = {label: part / weight for label, part in total.items()}
        return shares[func]

    by_layer: dict[str, dict[str, float]] = {}
    for func in sorted(stats):
        calls = stats[func][1]
        for label, part in share_of(func, set()).items():
            row = by_layer.setdefault(label.split(".", 1)[0], {})
            row[label] = row.get(label, 0.0) + calls * part
    return by_layer


def measure(name: str) -> dict[str, tuple[float, dict[str, float]]]:
    """One profiled round: ``layer -> (calls per op, {label: calls per
    op} for the layer's listed functions)``."""
    profile = cProfile.Profile()
    profile.enable()
    out = workloads.WORKLOADS[name](SEED, SCALE, False)
    profile.disable()
    if out.failed:
        raise SystemExit(f"FAIL: {name}: {'; '.join(out.failures)}")
    ops = sum(out.unit_ops)
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    figures = {}
    for layer, row in sorted(charge(stats).items()):
        busiest = sorted(row.items(), key=lambda item: (-item[1], item[0]))
        listed = {
            label: round(calls / ops, 1)
            for label, calls in busiest[:LISTED]
            if calls / ops >= LISTED_FLOOR
        }
        figures[layer] = (round(sum(row.values()) / ops, 1), listed)
    return figures


#: workload -> layer -> (calls per op, {function: calls per op}): the
#: ceilings, and the functions a rise is read against.
PINS: dict[str, dict[str, tuple[float, dict[str, float]]]] = {
    "fill": {
        "bench": (10.9, {
            "bench.keygen.next_value": 8.2,
            "bench.keygen._size": 1.0,
            "bench.keygen.format_key": 1.0,
        }),
        "hardware": (0.0, {}),
        "harness": (13.9, {
            "harness.workloads.<listcomp>": 5.2,
            "harness.workloads.<genexpr>": 5.1,
            "harness.workloads.fill": 2.0,
            "harness.workloads._finish_engine_round": 1.6,
        }),
        "lsm": (109.2, {
            "lsm.sstable.add_many_packed": 32.7,
            "lsm.block.decode_block": 16.5,
            "lsm.db._write": 11.0,
            "lsm.histogram.add": 4.5,
            "lsm.memtable.add": 4.0,
        }),
        "obs": (0.0, {}),
        "sim": (2.7, {
            "sim.clock.advance": 1.5,
            "sim.clock.now_us": 1.0,
        }),
    },
    "readmix": {
        "bench": (10.9, {
            "bench.keygen.next_value": 6.3,
            "bench.keygen.next_index": 2.0,
        }),
        "hardware": (0.1, {}),
        "harness": (13.1, {
            "harness.workloads.readmix": 8.6,
            "harness.workloads._finish_engine_round": 2.2,
            "harness.workloads.<genexpr>": 2.2,
        }),
        "lsm": (168.3, {
            "lsm.sstable.add_many_packed": 17.2,
            "lsm.bloom.add_run": 11.5,
            "lsm.block_cache.get": 8.9,
            "lsm.db._write": 8.4,
            "lsm.ikey.decode": 7.3,
        }),
        "obs": (0.0, {}),
        "sim": (5.6, {
            "sim.clock.now_us": 3.2,
            "sim.clock.advance": 2.3,
        }),
    },
    "serve": {
        "bench": (18.7, {
            "bench.keygen.next_index": 6.1,
            "bench.keygen.next_value": 4.8,
            "bench.runner.draws": 3.0,
            "bench.runner.preload_stream": 1.5,
            "bench.keygen.format_key": 1.5,
        }),
        "hardware": (0.6, {}),
        "harness": (0.0, {}),
        "lsm": (73.0, {
            "lsm.histogram.add": 13.7,
            "lsm.db._write": 6.3,
            "lsm.sstable.add_many_packed": 4.6,
            "lsm.histogram._drain": 4.1,
            "lsm.block_cache.get": 3.1,
        }),
        "obs": (0.0, {}),
        "service": (28.5, {
            "service.clients.requests": 6.0,
            "service.service._schedule": 4.0,
            "service.service._drive": 3.0,
            "service.routing.owner": 2.6,
            "service.service._enqueue": 2.0,
        }),
        "sim": (9.6, {
            "sim.clock.now_us": 5.0,
            "sim.clock.advance_to": 3.0,
            "sim.clock.advance": 1.6,
        }),
    },
    "serve_repl": {
        "bench": (18.5, {
            "bench.keygen.next_index": 6.1,
            "bench.keygen.next_value": 4.8,
            "bench.runner.draws": 3.0,
            "bench.runner.preload_stream": 1.5,
            "bench.keygen.format_key": 1.5,
        }),
        "hardware": (1.6, {
            "hardware.device.sync_cost_us": 1.5,
        }),
        "harness": (0.0, {}),
        "lsm": (128.0, {
            "lsm.db._write": 17.2,
            "lsm.histogram.add": 16.6,
            "lsm.sstable.add_many_packed": 13.9,
            "lsm.memtable.add": 7.2,
            "lsm.env.sync": 6.2,
        }),
        "obs": (0.0, {}),
        "service": (31.2, {
            "service.clients.requests": 6.0,
            "service.service._schedule": 3.8,
            "service.service._drive": 2.9,
            "service.routing.owner": 2.6,
            "service.service._enqueue": 2.0,
        }),
        "sim": (12.2, {
            "sim.clock.now_us": 5.7,
            "sim.clock.advance_to": 3.8,
            "sim.clock.advance": 2.5,
        }),
    },
    "tune": {
        "bench": (18.4, {
            "bench.keygen.next_value": 6.5,
            "bench.keygen.next_index": 3.3,
            "bench.keygen._size": 3.2,
            "bench.runner.draws": 2.1,
            "bench.runner.preload_stream": 1.4,
        }),
        "core": (0.3, {}),
        "hardware": (0.1, {}),
        "harness": (0.5, {}),
        "llm": (0.1, {}),
        "lsm": (105.6, {
            "lsm.sstable.add_many_packed": 20.4,
            "lsm.bloom.add_run": 12.5,
            "lsm.db._write": 8.8,
            "lsm.sstable.<genexpr>": 4.3,
            "lsm.histogram.add": 3.5,
        }),
        "obs": (0.2, {}),
        "service": (0.0, {}),
        "sim": (3.9, {
            "sim.clock.advance": 1.2,
        }),
    },
}


def check(name: str, figures: dict) -> list[str]:
    """Problems with one workload's figures against its pins; prints
    the figures that fell."""
    pins = PINS.get(name, {})
    problems = []
    for layer, (figure, listed) in figures.items():
        pin, pinned = pins.get(layer, (0.0, {}))
        if figure > pin:
            grew = [
                f"{label} {pinned.get(label, 0.0)} -> {value}"
                for label, value in listed.items()
                if value > pinned.get(label, 0.0)
            ]
            problems.append(
                f"{name}: {layer} {pin} -> {figure} calls/op; grew: "
                + (", ".join(grew) or "none of its listed functions")
            )
        elif figure < pin:
            print(f"{name}: {layer} fell {pin} -> {figure} calls/op; "
                  f"pin it as {layer!r}: ({figure}, {listed!r})")
    return problems


def main(argv: list[str]) -> int:
    names = argv[:1] or list(workloads.WORKLOADS)
    if names[0] not in workloads.WORKLOADS:
        print(f"unknown workload {names[0]!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    problems = []
    for name in names:
        figures = measure(name)
        total = round(sum(f for f, _ in figures.values()), 1)
        print(f"{name}: {total} calls/op: " + ", ".join(
            f"{layer} {figure}" for layer, (figure, _) in figures.items()))
        problems += check(name, figures)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
