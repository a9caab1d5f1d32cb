#!/usr/bin/env python3
"""Host-time benchmark of the whole stack: five workloads, end-to-end
and per-layer metrics, with spread and bounds. See README.md here.

    python benchmarks/perf/bench.py                      # every workload, 5 repeats
    python benchmarks/perf/bench.py --traced --out a.json
    python benchmarks/perf/bench.py --compare a.json b.json
    python benchmarks/perf/bench.py --workload fill --seed 1 --seconds 10 --trace 0

The last form is one run in this process; it prints the result as one
JSON object on the last line of standard output. The first three fan
out to it, one fresh subprocess per (workload, repeat).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from timeline import (  # noqa: E402
    fastest,
    layer_self_seconds,
    quantile,
    quartiles,
    tail_mean,
    write_spans,
)

#: Rounds of identical work per untraced run; a traced run does
#: ``TRACED_ROUNDS`` cycles of one untraced round, one traced round and
#: one round of each ladder rung, so the tracing overhead and the ladder
#: steps are measured side by side inside one process. The service's units
#: are coarse (a progress window), so it gets one round more to filter
#: with; the tuner's rounds are a whole session, so it gets fewer.
ROUNDS = {"fill": 5, "readmix": 5, "serve": 6, "serve_repl": 6, "tune": 4}
TRACED_ROUNDS = {"fill": 3, "readmix": 3, "serve": 4, "serve_repl": 4, "tune": 2}
#: Size 1.0 is what ``--seconds 10`` measures.
SECONDS_AT_FULL_SIZE = 10.0
#: Below this share of a CPU the process was descheduled: the run is
#: marked disturbed, and still reported.
DISTURBED_CPU_SHARE = 0.9
#: A put slower than this paid for a flush or a compaction inline.
STALL_SECONDS = 1e-3

SELF_TIME_LAYERS = ("harness", "lsm", "bench", "service", "core", "llm")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ one run

def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def timer_overhead_ns() -> float:
    """Median cost of one ``perf_counter`` call, from back-to-back pairs."""
    pc = perf_counter
    gaps = []
    for _ in range(2001):
        a = pc()
        b = pc()
        gaps.append(b - a)
    return sorted(gaps)[len(gaps) // 2] * 1e9


def run_lanes(lanes: dict, cycles: int) -> tuple[dict[str, list], dict[str, list[float]]]:
    """Run every lane ``(fn, args)`` once per cycle, in turn, so that a
    slow stretch of the host falls on all of them and not on one: what
    is compared (traced with untraced, a ladder rung with the next) is
    measured side by side. Returns the rounds and their walls per lane."""
    rounds: dict[str, list] = {lane: [] for lane in lanes}
    walls: dict[str, list[float]] = {lane: [] for lane in lanes}
    for _ in range(cycles):
        for lane, (fn, args) in lanes.items():
            gc.collect()
            t = perf_counter()
            rounds[lane].append(fn(*args))
            walls[lane].append(perf_counter() - t)
    return rounds, walls


def combine(rounds: list) -> dict:
    """Filter the rounds of one configuration into one measurement."""
    first = rounds[0]
    failed, failures = 0, []
    for r in rounds:
        failed += r.failed
        failures += r.failures
        if (r.kinds, r.unit_ops, r.exact) != (first.kinds, first.unit_ops, first.exact):
            failed += 1
            failures.append("rounds of one run differ in work or virtual-time results")
    seconds = fastest([r.seconds for r in rounds])
    per_op = sorted(s / n for s, n in zip(seconds, first.unit_ops) if n)
    return {
        "first": first,
        "seconds": seconds,
        "measured_s": sum(seconds),
        "ops": sum(first.unit_ops),
        "per_op": per_op,
        "setup_s": min(r.setup_s for r in rounds),
        "host": {name: min(r.host[name] for r in rounds) for name in first.host},
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "failures": failures,
    }


def end_to_end(m: dict) -> dict[str, float]:
    exact = m["first"].exact
    return {
        "setup_s": m["setup_s"],
        "ops_per_s": m["ops"] / m["measured_s"],
        "op_p50_us": quantile(m["per_op"], 0.5) * 1e6,
        "op_tail_us": tail_mean(m["per_op"]) * 1e6,
        "virt_ops_per_s": exact["virt_ops_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _by_kind(m: dict, *kinds: str) -> list[float]:
    return sorted(
        s for s, kind in zip(m["seconds"], m["first"].kinds) if kind in kinds
    )


def per_layer(m: dict, rounds: list) -> dict[str, float]:
    """Everything a single round set can say about the layers."""
    first = m["first"]
    out = {name: value for name, value in first.exact.items() if "." in name}
    out.update(m["host"])
    puts, gets, scans = _by_kind(m, "put"), _by_kind(m, "get", "miss"), _by_kind(m, "scan")
    windows = _by_kind(m, "window")
    out.update({
        "lsm.put_busy_s": sum(puts),
        "lsm.get_busy_s": sum(gets),
        "lsm.scan_busy_s": sum(scans),
        "lsm.put_p50_us": quantile(puts, 0.5) * 1e6,
        "lsm.put_p999_us": quantile(puts, 0.999) * 1e6,
        "lsm.get_p50_us": quantile(gets, 0.5) * 1e6,
        "lsm.get_p90_us": quantile(gets, 0.9) * 1e6,
        "lsm.scan_p50_us": quantile(scans, 0.5) * 1e6,
        "lsm.scan_p90_us": quantile(scans, 0.9) * 1e6,
        "lsm.stall_host_share": sum(s for s in puts if s > STALL_SECONDS) / m["measured_s"],
        "service.window_p50_ms": quantile(windows, 0.5) * 1e3,
        "service.window_max_ms": quantile(windows, 1.0) * 1e3,
        "core.bench_s": sum(_by_kind(m, "bench.run")),
        "core.preload_s": sum(_by_kind(m, "bench.preload")),
        "core.loop_overhead_s": sum(_by_kind(m, "core.loop")),
        "llm.busy_s": sum(_by_kind(m, "llm.complete")),
        "obs.events": first.events,
    })
    selfs = layer_self_seconds([r.rec for r in rounds])
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


def us_per_op(m: dict) -> float:
    return m["measured_s"] / m["ops"] * 1e6


def ladder_lanes(name: str, seed: int, scale: float) -> dict:
    """The untraced rungs measured beside ``name``'s own rounds, all on
    ``serve``'s spec and seed."""
    import workloads as w

    if name == "serve":
        return {
            "engine": (w.ladder_engine, (seed, scale)),
            "runner": (w.ladder_runner, (seed, scale)),
            "one_shard": (w.ladder_one_shard, (seed, scale)),
        }
    if name == "serve_repl":
        return {"serve": (w.serve, (seed, scale, False))}
    return {}


def ladder_steps(name: str, m: dict[str, dict]) -> dict[str, float]:
    """The host cost of each step up the ladder, per operation."""
    if name == "serve":
        engine, runner, one, this = (
            us_per_op(m[lane]) for lane in ("engine", "runner", "one_shard", "plain")
        )
        return {
            "lsm.ladder_us_per_op": engine,
            "bench.overhead_us_per_op": runner - engine,
            "service.overhead_us_per_op": one - runner,
            "service.fanout_us_per_op": this - one,
        }
    if name == "serve_repl":
        this, plain = m["plain"], m["serve"]
        return {
            "replication.overhead_us_per_op": us_per_op(this) - us_per_op(plain),
            "replication.preload_overhead_s": this["setup_s"] - plain["setup_s"],
            "replication.virt_write_p99_delta_us": (
                this["first"].exact["service.virt_p99_write_us"]
                - plain["first"].exact["service.virt_p99_write_us"]
            ),
        }
    return {}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result object the last line of output carries, plus
    ``record`` (environment, disturbance, failures) for the line before."""
    import workloads as w

    contract = load_contract()
    fn = w.WORKLOADS[name]
    scale = seconds / SECONDS_AT_FULL_SIZE
    env = environment()
    cpu0, wall0 = time.process_time(), perf_counter()
    gc_before = sum(s["collections"] for s in gc.get_stats())
    if not trace:
        rounds, walls = run_lanes({"plain": (fn, (seed, scale, False))}, ROUNDS[name])
        measured = {"plain": combine(rounds["plain"])}
        values = end_to_end(measured["plain"])
        wanted = contract["end_to_end"]
    else:
        lanes = {
            "plain": (fn, (seed, scale, False)),
            "traced": (fn, (seed, scale, True)),
            **ladder_lanes(name, seed, scale),
        }
        rounds, walls = run_lanes(lanes, TRACED_ROUNDS[name])
        measured = {lane: combine(got) for lane, got in rounds.items()}
        traced, recorders = measured["traced"], [r.rec for r in rounds["traced"]]
        values = per_layer(traced, rounds["traced"])
        values.update(ladder_steps(name, measured))
        values["obs.trace_overhead_share"] = (
            traced["measured_s"] / measured["plain"]["measured_s"] - 1.0
        )
        values["obs.self_time_coverage"] = (
            sum(recorders[-1].self_times()) / walls["traced"][-1]
        )
        round_sums = sorted(sum(r.seconds) for r in rounds["traced"])
        values["host.noise_share"] = (
            round_sums[len(round_sums) // 2] / traced["measured_s"] - 1.0
        )
        wanted = contract["per_layer"]
        os.makedirs(HERE / "out", exist_ok=True)
        write_spans(str(HERE / "out" / f"{name}.spans.jsonl"), recorders)
    attempted = sum(m["attempted"] for m in measured.values())
    failed = sum(m["failed"] for m in measured.values())
    failures = [f for m in measured.values() for f in m["failures"]]
    cpu_share = (time.process_time() - cpu0) / (perf_counter() - wall0)
    values.update({
        "host.cpu_share": cpu_share,
        "host.timer_overhead_ns": timer_overhead_ns(),
        "host.gc_collections": sum(s["collections"] for s in gc.get_stats()) - gc_before,
        "host.loadavg_1m": os.getloadavg()[0],
    })
    metrics = {
        spec["name"]: {"value": values.get(spec["name"], 0), "unit": spec["unit"]}
        for spec in wanted
    }
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "record": {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "env": env, "cpu_share": cpu_share,
            "disturbed": cpu_share < DISTURBED_CPU_SHARE,
            "round_wall_s": walls, "failures": failures,
        },
    }


def main_single(args) -> int:
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result, record = out["result"], out["record"]
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"ops_attempted {result['attempted']}  ops_failed {result['failed']}"
        + ("  DISTURBED (cpu share %.2f)" % record["cpu_share"] if record["disturbed"] else "")
    )
    for failure in record["failures"]:
        print("FAILED:", failure)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    # A wrong output is a result, not a crash: ``correct`` carries it.
    return 0


# ------------------------------------------- every workload, repeated

def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{name}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"values": values, "q1": q1, "median": median, "q3": q3}


def main_all(args) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    out = {
        "env": environment(), "seed": args.seed, "seconds": args.seconds,
        "repeats": args.repeats, "end_to_end": {}, "per_layer": {}, "runs": [],
    }
    wrong = 0
    for name in names:
        series: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        passes = [0] * args.repeats + ([1] if args.traced else [])
        for trace in passes:
            result, record = run_child(name, args.seed, args.seconds, trace)
            wrong += not result["correct"]
            out["runs"].append({
                "workload": name, "trace": trace, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "disturbed": record["disturbed"], "cpu_share": record["cpu_share"],
                "loadavg_1m": record["env"]["loadavg_1m"], "failures": record["failures"],
            })
            flag = " disturbed" if record["disturbed"] else ""
            print(
                f"# {name} trace={trace}: attempted {result['attempted']} "
                f"failed {result['failed']}{flag}", flush=True,
            )
            if trace:
                out["per_layer"][name] = result["metrics"]
                continue
            for metric, entry in result["metrics"].items():
                series.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
        out["end_to_end"][name] = {
            metric: {"unit": units[metric], **summarise(values)}
            for metric, values in series.items()
        }
    print_summary(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
    return 1 if wrong else 0


def print_summary(out: dict) -> None:
    print(f"\n{'metric':22s} {'workload':11s} {'median':>14s} {'q1':>14s} {'q3':>14s}  {'spread':>7s} unit")
    for name, metrics in out["end_to_end"].items():
        for metric, s in metrics.items():
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print(
                f"{metric:22s} {name:11s} {s['median']:14.6g} {s['q1']:14.6g} "
                f"{s['q3']:14.6g}  {spread:7.2%} {s['unit']}"
            )
    for name, metrics in out["per_layer"].items():
        print(f"\nper layer, {name} (one traced run):")
        for metric, entry in metrics.items():
            print(f"  {metric:36s} {entry['value']:>16.6g} {entry['unit']}")


# ------------------------------------------------------------ compare

def verdict(
    a: dict, b: dict, better: str, bound: float, gate_spread: bool = True
) -> tuple[str, float, float]:
    """(verdict, relative worsening of b against a, wider relative spread)."""
    if not a["median"]:
        return "unresolved", 0.0, 0.0
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread_a = (a["q3"] - a["q1"]) / abs(a["median"])
    spread_b = (b["q3"] - b["q1"]) / abs(b["median"]) if b["median"] else 0.0
    spread = max(spread_a, spread_b)
    if gate_spread and spread > bound:
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    # A gain counts only beyond the first side's own run-to-run spread.
    if worse_by < 0 and -worse_by > spread_a:
        return "better", worse_by, spread
    return "same", worse_by, spread


def main_compare(path_a: str, path_b: str) -> int:
    contract = load_contract()
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    bad = 0
    print(f"{'metric':22s} {'workload':11s} {'a median':>13s} {'b median':>13s} "
          f"{'b vs a':>8s} {'spread':>7s} {'bound':>6s} verdict")
    for spec in contract["end_to_end"]:
        for name in a["end_to_end"]:
            sa = a["end_to_end"][name].get(spec["name"])
            sb = b["end_to_end"].get(name, {}).get(spec["name"])
            if sa is None or sb is None:
                continue
            # Set-up is short, so its spread is wide; like the acceptance
            # check, hold only its median to the bound.
            word, worse_by, spread = verdict(
                sa, sb, spec["better"], spec["bound"], spec["name"] != "setup_s"
            )
            bad += word in ("worse", "unresolved")
            print(
                f"{spec['name']:22s} {name:11s} {sa['median']:13.6g} {sb['median']:13.6g} "
                f"{worse_by:+8.2%} {spread:7.2%} {spec['bound']:6.1%} {word}"
                f"   a[{sa['q1']:.6g}, {sa['q3']:.6g}] b[{sb['q1']:.6g}, {sb['q3']:.6g}]"
            )
    for name in a["per_layer"]:
        print(f"\nper layer, {name}: a, b, b/a - 1 (no bound)")
        for metric, ea in a["per_layer"][name].items():
            eb = b["per_layer"].get(name, {}).get(metric)
            if eb is None:
                continue
            va, vb = ea["value"], eb["value"]
            change = "identical" if va == vb else f"{vb / va - 1:+.2%}" if va else "n/a"
            print(f"  {metric:36s} {va:>14.6g} {vb:>14.6g} {change:>10s} {ea['unit']}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=SECONDS_AT_FULL_SIZE,
                        help="host seconds of measured work one run is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--traced", action="store_true",
                        help="one more, traced run per workload for the per-layer metrics")
    parser.add_argument("--out", help="write the summary as JSON, for --compare")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return main_compare(*args.compare)
    if args.workload:
        return main_single(args)
    return main_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
