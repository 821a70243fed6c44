"""Measurement utilities: windowed throughput, fairness, bursts, CDFs."""

from repro.metrics.fairness import jain_index
from repro.metrics.merge import (
    FleetMetrics,
    ShardSummary,
    merge_shard_summaries,
)
from repro.metrics.series import TimeSeries
from repro.metrics.stats import cdf_points, mean, percentile
from repro.metrics.throughput import (
    aggregate_throughput_series,
    bin_layout,
    burst_factor,
    flow_bytes,
    per_flow_throughput_series,
    per_slot_throughput_series,
)

__all__ = [
    "FleetMetrics",
    "ShardSummary",
    "TimeSeries",
    "aggregate_throughput_series",
    "bin_layout",
    "burst_factor",
    "cdf_points",
    "flow_bytes",
    "jain_index",
    "mean",
    "merge_shard_summaries",
    "per_flow_throughput_series",
    "per_slot_throughput_series",
    "percentile",
]
