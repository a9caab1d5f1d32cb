"""db_bench-format textual reports.

ELMo-Tune's Benchmark Parser consumes *text*, exactly like the paper's
prototype parses real ``db_bench`` output — so this module renders a
faithful report and :mod:`repro.core.bench_parser` parses it back.
"""

from __future__ import annotations

from repro.bench.runner import BenchResult, DbBench
from repro.lsm.histogram import HistogramSummary


def _hms(seconds: float) -> str:
    h = int(seconds // 3600)
    m = int(seconds % 3600 // 60)
    s = seconds % 60
    return f"{h:02d}:{m:02d}:{s:06.3f}"


def _histogram_block(title: str, summary: HistogramSummary) -> str:
    return (
        f"Microseconds per {title}:\n"
        f"Count: {summary.count} Average: {summary.average:.4f} "
        f"StdDev: {summary.std_dev:.2f}\n"
        f"Min: {summary.minimum:.4f} Median: {summary.median:.4f} "
        f"Max: {summary.maximum:.4f}\n"
        f"Percentiles: P50: {summary.median:.2f} P95: {summary.p95:.2f} "
        f"P99: {summary.p99:.2f} P99.9: {summary.p999:.2f}\n"
    )


def render_report(result: BenchResult) -> str:
    """Render one benchmark result as db_bench-style text."""
    spec = result.spec
    lines: list[str] = []
    lines.append("PyLSM:      version 1.0 (db_bench compatible report)")
    lines.append("Keys:       16 bytes each")
    lines.append(
        f"Values:     {spec.value_size} bytes each "
        f"({spec.value_size // 2} bytes after compression)"
    )
    lines.append(f"Entries:    {spec.num_ops}")
    lines.append(f"Threads:    {spec.threads}")
    lines.append(
        f"Hardware:   {result.profile.describe()}"
    )
    lines.append(f"DB path:    [{DbBench.DB_PATH}]")
    lines.append("-" * 60)
    lines.append(
        f"{spec.name:<13}: {result.micros_per_op:10.3f} micros/op "
        f"{result.ops_per_sec:.0f} ops/sec; {result.mb_per_sec:5.1f} MB/s"
        + (" (ABORTED EARLY)" if result.aborted else "")
    )
    lines.append("")
    if result.write_summary is not None:
        lines.append(_histogram_block("write", result.write_summary))
    if result.read_summary is not None:
        lines.append(_histogram_block("read", result.read_summary))
    stall_s = result.stall_micros / 1e6
    stall_pct = (
        100.0 * stall_s / result.duration_s if result.duration_s > 0 else 0.0
    )
    lines.append(
        f"Cumulative stall: {_hms(stall_s)} H:M:S, {stall_pct:.1f} percent"
    )
    lines.append(
        f"Write stall count: {result.stall_count} "
        f"(slowdowns: {result.slowdown_count})"
    )
    lines.append(f"Block cache hit rate: {result.cache_hit_rate * 100:.1f}%")
    lines.append(
        f"Bloom filter useful: {result.bloom_useful_rate * 100:.1f}%"
    )
    multiget_calls = result.tickers.get("multiget.calls", 0)
    if multiget_calls:
        # RocksDB's NUMBER_MULTIGET_* family, db_bench STATISTICS style.
        lines.append(
            f"MultiGet: {multiget_calls} calls, "
            f"{result.tickers.get('multiget.keys.read', 0)} keys read, "
            f"{result.tickers.get('multiget.bytes.read', 0)} bytes read"
        )
    seeks = result.tickers.get("seeks", 0)
    if seeks:
        lines.append(
            f"Seeks: {seeks}  Table opens: {result.tickers.get('table.opens', 0)}"
        )
    lines.append(
        f"Flushes: {result.flush_count}  Compactions: {result.compaction_count}"
    )
    lines.append(
        f"Compaction IO: {result.bytes_read / 2**20:.1f} MB read, "
        f"{result.bytes_written / 2**20:.1f} MB written"
    )
    lines.append(f"DB size: {result.db_size_bytes / 2**20:.2f} MB")
    lines.append(result.level_shape)
    if result.wall_clock_s > 0:
        # Host-side diagnostic; every metric above is virtual-time.
        lines.append(f"Wall clock (host): {result.wall_clock_s:.2f} s")
    return "\n".join(lines) + "\n"
