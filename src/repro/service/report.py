"""Service-run reports: db_bench format plus service-layer sections.

The headline of a service report is the *aggregate* rendered through
:func:`repro.bench.report.render_report`, so everything downstream that
parses db_bench text (``repro.core.bench_parser``, the tuning loop's
feedback prompt) works on service runs unchanged. The service-specific
sections — per-shard balance, group-commit economics, per-client
latency — are appended after it; the parser ignores what it does not
recognise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bench.report import render_report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import ServiceResult


def render_service_report(result: ServiceResult) -> str:
    """Render a service run: db_bench headline + service sections."""
    agg = result.aggregate
    lines: list[str] = [render_report(agg).rstrip("\n")]
    lines.append("-" * 60)
    lines.append(
        f"Service:    {len(result.shards)} shard(s), "
        f"{len(result.clients)} client(s), "
        f"{result.requests_done} requests"
    )
    writes = agg.writes_done
    grouped_pct = (
        100.0 * result.grouped_writes / writes if writes else 0.0
    )
    syncs = result.wal_syncs
    lines.append(
        f"Group commit: {result.groups} groups, "
        f"{result.grouped_writes} writes rode a group ({grouped_pct:.1f}%), "
        f"{syncs} WAL syncs ({result.syncs_per_write:.3f} syncs/write)"
    )
    if result.replicas_per_shard > 1:
        parts = [f"{result.replicas_per_shard} replicas/shard"]
        if result.follower_reads_served:
            parts.append(
                f"{result.follower_reads_served} reads served by followers"
            )
        if result.failovers:
            parts.append(
                f"{len(result.failovers)} failover(s): " + ", ".join(
                    f"shard {s} r{c}->r{p}" for s, c, p in result.failovers
                )
            )
        lines.append("Replication: " + ", ".join(parts))
    for shard in result.shards:
        extras = []
        if shard.groups:
            extras.append(f"groups={shard.groups} max_group={shard.max_group}")
        if shard.write_summary is not None:
            extras.append(f"p99_write={shard.write_summary.p99:.1f}us")
        if shard.read_summary is not None:
            extras.append(f"p99_read={shard.read_summary.p99:.1f}us")
        suffix = ("  " + " ".join(extras)) if extras else ""
        lines.append(
            f"  shard {shard.index}: {shard.requests} requests "
            f"({shard.reads} reads, {shard.writes} writes), "
            f"{shard.wal_syncs} WAL syncs, "
            f"{shard.db_size_bytes / 2**20:.2f} MB{suffix}"
        )
    for client in result.clients:
        if client.latency_summary is not None:
            s = client.latency_summary
            lat = (
                f"avg={s.average:.1f}us p50={s.median:.1f}us "
                f"p99={s.p99:.1f}us max={s.maximum:.1f}us"
            )
        else:
            lat = "no completed requests"
        lines.append(
            f"  client {client.client} ({client.role}): "
            f"{client.requests} requests, {lat}"
        )
    if result.wall_clock_s > 0:
        lines.append(f"Wall clock (host): {result.wall_clock_s:.2f} s")
    return "\n".join(lines) + "\n"
