"""Fleet driver: fan shards over workers, merge their summaries.

:func:`run_fleet` is the one-call entry the experiments CLI and the
fuzzer's shard tier share: build the shard configs,
run them through the sweep runner (serial, plain pool, or the supervised
pool for crash isolation / journaled resume), and merge the columnar
summaries into one :class:`~repro.metrics.merge.FleetMetrics`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.fleet.shard import simulate_shard
from repro.fleet.spec import FleetSpec, ShardConfig, shard_configs
from repro.metrics.merge import (
    FleetMetrics,
    ShardSummary,
    merge_shard_summaries,
)
from repro.runner.cache import ResultCache
from repro.runner.pool import run_tasks

__all__ = ["FleetResult", "run_fleet"]


@dataclass
class FleetResult:
    """Merged metrics plus the per-shard accounting behind them."""

    spec: FleetSpec
    shards: int
    metrics: FleetMetrics
    summaries: list[ShardSummary]
    #: Parent-side elapsed seconds for the whole sweep (includes worker
    #: dispatch and the merge).
    wall_seconds: float = 0.0

    @property
    def run_seconds(self) -> float:
        """Summed in-shard simulation seconds (shard-parallelism
        independent: the CPU cost of the fleet, not its wall clock)."""
        return sum(s.run_seconds for s in self.summaries)

    @property
    def setup_seconds(self) -> float:
        """Summed in-shard topology construction seconds."""
        return sum(s.setup_seconds for s in self.summaries)

    @property
    def us_per_packet(self) -> float:
        """Summed shard run time over limiter-arrived packets, in us.

        What one enforced packet costs in CPU time, regardless of how
        many workers the shards were spread over.
        """
        arrived = self.metrics.arrived_packets
        if arrived == 0:
            return 0.0
        return self.run_seconds / arrived * 1e6

    @property
    def peak_rss_bytes(self) -> int:
        """Largest per-shard peak RSS observed (bytes)."""
        return max((s.peak_rss_bytes for s in self.summaries), default=0)

    @property
    def total_flows(self) -> int:
        return sum(s.flows for s in self.summaries)


def run_fleet(
    spec: FleetSpec,
    *,
    shards: int,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    retries: int | None = None,
    task_timeout: float | None = None,
    journal=None,
    fail_fast: bool = False,
    isolate: bool = False,
) -> FleetResult:
    """Run ``spec`` partitioned into ``shards`` shards and merge.

    ``jobs`` fans shards over worker processes (``None``/``1`` = serial
    in-process, byte-identical to parallel).  Setting any of ``retries``
    / ``task_timeout`` / ``journal`` / ``fail_fast`` routes the sweep
    through the supervised pool: a shard that crashes its worker is
    retried in a fresh process, and journaled sweeps resume.
    ``isolate=True`` forces the supervised pool even without retry knobs
    — every shard then runs in a disposable process of its own, which
    also makes the reported per-shard peak RSS exact rather than a
    worker-lifetime high-water mark.
    """
    if isolate and retries is None:
        retries = 0
    start = time.perf_counter()
    configs = shard_configs(spec, shards)
    summaries = run_tasks(
        simulate_shard,
        configs,
        jobs=jobs,
        cache=cache,
        fingerprint=ShardConfig.code_fingerprint,
        retries=retries,
        task_timeout=task_timeout,
        journal=journal,
        fail_fast=fail_fast,
    )
    metrics = merge_shard_summaries(list(summaries))
    return FleetResult(
        spec=spec,
        shards=shards,
        metrics=metrics,
        summaries=list(summaries),
        wall_seconds=time.perf_counter() - start,
    )
