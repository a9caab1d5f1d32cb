"""``pylsm-bench``: run one workload from the command line.

Mirrors the ``db_bench`` invocation style the paper uses::

    pylsm-bench --benchmark fillrandom --device nvme-ssd --cpus 4 \
        --memory-gib 4 --options-file OPTIONS --scale 0.001
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.bench.spec import ALL_WORKLOADS, DEFAULT_BYTE_SCALE, DEFAULT_SCALE, workload
from repro.hardware.device import device_by_name
from repro.hardware.profile import make_profile
from repro.lsm.options import Options
from repro.lsm.options_file import load_options_file
from repro.obs import JsonlSink, Tracer, console
from repro.service.service import run_benchmark


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pylsm-bench",
        description="db_bench-style benchmark runner for PyLSM",
    )
    parser.add_argument(
        "--benchmark",
        default="fillrandom",
        choices=sorted(ALL_WORKLOADS),
        help="workload to run",
    )
    parser.add_argument("--device", default="nvme-ssd",
                        help="storage device model (nvme-ssd | sata-hdd)")
    parser.add_argument("--cpus", type=int, default=4, help="CPU cores")
    parser.add_argument("--memory-gib", type=float, default=4.0,
                        help="memory size in GiB")
    parser.add_argument("--options-file", default=None,
                        help="OPTIONS file to run with (default: built-ins)")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="op-count scale vs the paper's workloads")
    parser.add_argument("--byte-scale", type=float, default=DEFAULT_BYTE_SCALE,
                        help="byte-world scale (buffers, caches, memory)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seek-nexts", type=int, default=None, metavar="N",
                        help="iterator Next() calls after each seek "
                             "(seekrandom; default: the workload's own)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="run through the sharded service layer with N "
                             "DB shards (overrides the shard_count option)")
    parser.add_argument("--clients", type=int, default=None, metavar="N",
                        help="simulated open-loop clients (service layer; "
                             "default: the workload's thread count)")
    parser.add_argument("--client-ops-per-sec", type=float, default=None,
                        metavar="RATE",
                        help="per-client open-loop arrival rate "
                             "(service layer)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the run's trace as JSON Lines here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the report on stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    console.set_quiet(args.quiet)
    try:
        device = device_by_name(args.device)
    except ValueError as exc:
        console.warn(f"error: {exc}")
        return 2
    profile = make_profile(args.cpus, args.memory_gib, device)
    if args.options_file:
        options, warnings = load_options_file(args.options_file, strict=False)
        for warning in warnings:
            console.warn(f"warning: {warning}")
    else:
        options = Options()
    spec = workload(args.benchmark, args.scale).with_seed(args.seed)
    if args.seek_nexts is not None:
        spec = replace(spec, seek_nexts=args.seek_nexts)
    if args.shards is not None:
        options.set("shard_count", args.shards)
    tracer = None
    if args.trace_out:
        tracer = Tracer(JsonlSink(args.trace_out))
    try:
        _result, report = run_benchmark(
            spec,
            options,
            profile,
            byte_scale=args.byte_scale,
            num_clients=args.clients,
            client_ops_per_sec=args.client_ops_per_sec,
            tracer=tracer,
        )
        console.out(report)
    finally:
        if tracer is not None:
            tracer.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
