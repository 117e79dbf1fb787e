"""Per-layer utilization tables for one feed's run or a whole fleet's."""

from __future__ import annotations

from typing import Dict, Optional


def layer_utilization_table(
    metrics, per_process: bool = False, label: Optional[str] = None
) -> str:
    """Render a :class:`~repro.runtime.RuntimeMetrics` per-layer summary.

    One row per layer with busy/idle/blocked seconds and utilization over
    the run's makespan, plus the holder high-water mark and stall count —
    the quickest way to see which layer bottlenecks a feed.

    A layer row aggregates every process in the layer, so a worker pool's
    busy can exceed the makespan (overlapped work).  ``per_process=True``
    adds an indented row per process under each multi-process layer,
    showing each worker's own share.

    ``label`` names the feed the metrics belong to — pass it when several
    feeds' tables are printed together (e.g. a ``start_feeds`` fleet) so
    each table's rows are unambiguously that tenant's.
    """
    if metrics is None:
        return f"[{label}] (no runtime metrics)" if label else "(no runtime metrics)"
    lines = []
    if label:
        lines.append(f"[{label}]")
    lines.append(
        f"{'layer':<12} {'busy (s)':>10} {'idle (s)':>10} "
        f"{'blocked (s)':>12} {'utilized':>9}"
    )
    for name in sorted(metrics.layers):
        times = metrics.layers[name]
        lines.append(
            f"{name:<12} {times.busy:>10.4f} {times.idle:>10.4f} "
            f"{times.blocked:>12.4f} "
            f"{times.utilization(metrics.makespan_seconds):>8.0%}"
        )
        if per_process:
            members = metrics.layer_process_times(name)
            if len(members) > 1:
                for pname in sorted(members):
                    ptimes = members[pname]
                    short = pname.split(".")[-1]
                    lines.append(
                        f"  {short:<10} {ptimes.busy:>10.4f} "
                        f"{ptimes.idle:>10.4f} {ptimes.blocked:>12.4f} "
                        f"{ptimes.utilization(metrics.makespan_seconds):>8.0%}"
                    )
    if per_process and metrics.peak_workers > 1:
        lines.append(
            f"computing pool: peak {metrics.peak_workers} worker(s), "
            f"{metrics.scale_ups} scale-up(s), "
            f"{metrics.scale_downs} scale-down(s), "
            f"{metrics.reordered_batches} reordered batch(es)"
        )
    if metrics.vectorized_batches or metrics.scalar_fallbacks:
        lines.append(
            f"columnar: {metrics.vectorized_batches} vectorized batch(es), "
            f"{metrics.vectorized_records} record(s), "
            f"{metrics.scalar_fallbacks} scalar fallback(s)"
        )
    state_total = metrics.state_cache_hits + metrics.state_cache_misses
    if state_total:
        lines.append(
            f"state cache: {metrics.state_cache_hits} hit(s), "
            f"{metrics.state_cache_misses} miss(es) "
            f"({metrics.state_cache_hits / state_total:.0%} hit ratio), "
            f"{metrics.state_cache_evictions} eviction(s)"
        )
    memo_total = metrics.memo_hits + metrics.memo_misses
    if memo_total:
        lines.append(
            f"memo: {metrics.memo_hits} hit(s), "
            f"{metrics.memo_misses} miss(es) "
            f"({metrics.memo_hits / memo_total:.0%} hit ratio), "
            f"{metrics.memo_evictions} eviction(s)"
        )
    if metrics.lease_timeline or metrics.governor_grants:
        lines.append(
            f"fabric: +{metrics.borrowed_workers} borrowed worker(s) at "
            f"peak, {len(metrics.lease_timeline)} lease step(s), "
            f"{len(metrics.governor_grants)} governor grant(s)"
        )
    lines.append(
        f"makespan {metrics.makespan_seconds:.4f}s, "
        f"fill/drain {metrics.fill_drain_seconds:.4f}s, "
        f"{metrics.stall_count} stall(s), "
        f"holder high-water {metrics.holder_high_water} frame(s)"
    )
    return "\n".join(lines)


def fleet_utilization_table(reports: Dict[str, object], per_process: bool = False) -> str:
    """Render every feed of a ``start_feeds`` fleet as labeled sections.

    ``reports`` is the ``{feed name: FeedRunReport}`` mapping
    :meth:`AsterixLite.start_feeds` returns.  Each feed gets its own
    labeled :func:`layer_utilization_table` (rows are disjoint per
    tenant), followed by a fleet footer summing stored records and worker
    borrowing across tenants.
    """
    sections = []
    total_stored = 0
    total_borrowed = 0
    for name in sorted(reports):
        report = reports[name]
        sections.append(
            layer_utilization_table(
                report.runtime, per_process=per_process, label=name
            )
        )
        total_stored += report.records_stored
        total_borrowed += report.borrowed_workers
    sections.append(
        f"fleet: {len(reports)} feed(s), {total_stored} record(s) stored, "
        f"{total_borrowed} peak borrowed worker(s) across tenants"
    )
    return "\n\n".join(sections)
