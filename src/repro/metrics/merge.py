"""Shard-merge layer: columnar per-shard summaries -> fleet metrics.

A fleet run fans its aggregate population out over K shard processes
(:mod:`repro.fleet`).  Each shard returns one :class:`ShardSummary` —
flat ``array`` columns indexed by ``aggregate_id - lo``, a few scalars —
and **never** a per-packet trace: a 10^5-aggregate fleet crossing the
process boundary as traces would be gigabytes, as columnar summaries it
is a few megabytes.

:func:`merge_shard_summaries` combines the summaries into one
:class:`FleetMetrics`.  Because shards cover *contiguous* id blocks
(:func:`repro.fleet.shard_bounds`), concatenating their columns in shard
order yields aggregate-id order, and every floating-point reduction here
(goodput totals, Jain indices, per-bin sums, modeled cycles) runs in that
one canonical order.  Together with per-aggregate seeding this makes the
merged metrics **byte-identical for every shard count** — ``shards=1``
and ``shards=50`` produce equal :class:`FleetMetrics` down to the digest
(pinned by ``tests/test_fleet.py`` and the fuzzer's shard tier).

Wall-clock and RSS accounting stays on the :class:`ShardSummary` (it is
run-dependent by nature); :class:`FleetMetrics` holds only deterministic
simulation outcomes, which is what the digest covers.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from dataclasses import dataclass, field

from repro.limiters.costs import Op
from repro.metrics.fairness import jain_index

__all__ = ["FleetMetrics", "ShardSummary", "merge_shard_summaries"]

#: Op-class names in charge order (column layout of ``op_counts``).
OP_NAMES = tuple(op.value for op in Op)


@dataclass
class ShardSummary:
    """Everything one shard reports back, in flat columns.

    Columns are indexed by local row ``aggregate_id - lo``; ragged
    per-slot data uses ``slot_offsets`` (length ``n + 1`` prefix sums).
    ``binned_bytes`` and ``op_counts`` are row-major 2-D columns
    (``n x nbins`` and ``n x len(OP_NAMES)``).
    """

    shard: int
    shards: int
    lo: int
    hi: int
    scheme: str
    window: float
    warmup: float
    horizon: float
    nbins: int
    # -- per-aggregate columns (deterministic simulation outcomes) -----
    rates: array
    goodput_bytes: array
    binned_bytes: array
    slot_offsets: array
    slot_goodput: array
    arrived_packets: array
    forwarded_packets: array
    dropped_packets: array
    forwarded_bytes: array
    dropped_bytes: array
    modeled_cycles: array
    op_counts: array
    # -- shard-level accounting (run-dependent; excluded from merge
    #    determinism and the digest) ----------------------------------
    setup_seconds: float = 0.0
    run_seconds: float = 0.0
    cpu_seconds: float = 0.0
    peak_rss_bytes: int = 0
    events_processed: int = 0
    heap_pushes: int = 0
    #: Event lanes the shard's simulator drained and its deepest heap.
    lanes: int = 0
    peak_heap: int = 0
    flows: int = 0
    #: Live-reconfiguration outcomes across the shard's aggregates
    #: (0 without churn).  Each aggregate's plan derives from the global
    #: seed and its own id, so these sums are shard-count invariant.
    updates_applied: int = 0
    updates_rejected: int = 0

    @property
    def num_aggregates(self) -> int:
        return self.hi - self.lo

    @property
    def total_arrived(self) -> int:
        return sum(self.arrived_packets)


@dataclass
class FleetMetrics:
    """Merged, deterministic outcome of one fleet run.

    Equal for every shard partition of the same :class:`FleetSpec`;
    ``digest`` additionally covers the full per-aggregate columns, so two
    equal digests mean byte-identical per-aggregate outcomes, not just
    equal fleet-level summaries.
    """

    aggregates: int
    scheme: str
    window: float
    warmup: float
    horizon: float
    nbins: int
    arrived_packets: int
    forwarded_packets: int
    dropped_packets: int
    forwarded_bytes: int
    dropped_bytes: int
    goodput_bytes: float
    mean_normalized_goodput: float
    fairness_across_aggregates: float
    mean_intra_aggregate_fairness: float
    fleet_binned_bytes: tuple[float, ...]
    modeled_cycles: float
    cycles_per_packet: float
    op_counts: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    #: Fleet-wide live-reconfiguration outcomes (0 without churn).
    updates_applied: int = 0
    updates_rejected: int = 0

    @property
    def drop_rate(self) -> float:
        if self.arrived_packets == 0:
            return 0.0
        return self.dropped_packets / self.arrived_packets


def _concat(summaries: list[ShardSummary], name: str) -> array:
    """Concatenate one column across shards (shard order == id order)."""
    first = getattr(summaries[0], name)
    out = array(first.typecode)
    for summary in summaries:
        out.extend(getattr(summary, name))
    return out


def _check_partition(summaries: list[ShardSummary]) -> None:
    head = summaries[0]
    expected_lo = 0
    for summary in summaries:
        if (summary.scheme, summary.window, summary.warmup,
                summary.horizon, summary.nbins) != (
                head.scheme, head.window, head.warmup,
                head.horizon, head.nbins):
            raise ValueError(
                "shard summaries disagree on fleet parameters: "
                f"shard {summary.shard} vs shard {head.shard}"
            )
        if summary.lo != expected_lo:
            raise ValueError(
                f"shard summaries do not tile the id space: expected a "
                f"shard starting at {expected_lo}, got [{summary.lo}, "
                f"{summary.hi})"
            )
        if summary.hi <= summary.lo:
            raise ValueError(f"empty shard [{summary.lo}, {summary.hi})")
        expected_lo = summary.hi


def merge_shard_summaries(summaries: list[ShardSummary]) -> FleetMetrics:
    """Merge per-shard columnar summaries into one :class:`FleetMetrics`.

    Summaries may arrive in any order; they are sorted by their id range
    and must tile ``0..N`` contiguously.  All reductions run in
    aggregate-id order — the canonical order that makes the result
    independent of the shard count.
    """
    if not summaries:
        raise ValueError("need at least one shard summary")
    summaries = sorted(summaries, key=lambda s: s.lo)
    _check_partition(summaries)
    head = summaries[0]
    nbins = head.nbins
    span = head.horizon - head.warmup

    rates = _concat(summaries, "rates")
    goodput = _concat(summaries, "goodput_bytes")
    binned = _concat(summaries, "binned_bytes")
    slot_goodput = _concat(summaries, "slot_goodput")
    arrived = _concat(summaries, "arrived_packets")
    forwarded = _concat(summaries, "forwarded_packets")
    dropped = _concat(summaries, "dropped_packets")
    forwarded_bytes = _concat(summaries, "forwarded_bytes")
    dropped_bytes = _concat(summaries, "dropped_bytes")
    cycles = _concat(summaries, "modeled_cycles")
    op_counts = _concat(summaries, "op_counts")

    n = len(rates)
    if n != summaries[-1].hi:
        raise ValueError("column lengths disagree with shard bounds")

    # Slot offsets re-base per shard; rebuild the fleet-wide prefix.
    offsets = array("q", [0])
    for summary in summaries:
        base = offsets[-1]
        local = summary.slot_offsets
        offsets.extend(base + local[i] for i in range(1, len(local)))

    normalized = [g / (r * span) for g, r in zip(goodput, rates)]
    intra = [
        jain_index(slot_goodput[offsets[i]:offsets[i + 1]])
        for i in range(n)
    ]
    fleet_bins = [0.0] * nbins
    for row in range(n):
        base = row * nbins
        for b in range(nbins):
            fleet_bins[b] += binned[base + b]

    n_ops = len(OP_NAMES)
    op_totals = [0.0] * n_ops
    for row in range(n):
        base = row * n_ops
        for k in range(n_ops):
            op_totals[k] += op_counts[base + k]

    total_arrived = sum(arrived)
    total_cycles = sum(cycles)

    digest = hashlib.sha256()
    digest.update(
        struct.pack(
            "<qqdddq", n, nbins, head.window, head.warmup, head.horizon,
            total_arrived,
        )
    )
    digest.update(head.scheme.encode())
    for column in (rates, goodput, binned, slot_goodput, offsets, arrived,
                   forwarded, dropped, forwarded_bytes, dropped_bytes,
                   cycles, op_counts):
        digest.update(column.tobytes())

    return FleetMetrics(
        aggregates=n,
        scheme=head.scheme,
        window=head.window,
        warmup=head.warmup,
        horizon=head.horizon,
        nbins=nbins,
        arrived_packets=total_arrived,
        forwarded_packets=sum(forwarded),
        dropped_packets=sum(dropped),
        forwarded_bytes=sum(forwarded_bytes),
        dropped_bytes=sum(dropped_bytes),
        goodput_bytes=sum(goodput),
        mean_normalized_goodput=sum(normalized) / n,
        fairness_across_aggregates=jain_index(normalized),
        mean_intra_aggregate_fairness=sum(intra) / n,
        fleet_binned_bytes=tuple(fleet_bins),
        modeled_cycles=total_cycles,
        cycles_per_packet=(
            total_cycles / total_arrived if total_arrived else 0.0
        ),
        op_counts=dict(zip(OP_NAMES, op_totals)),
        digest=digest.hexdigest(),
        updates_applied=sum(s.updates_applied for s in summaries),
        updates_rejected=sum(s.updates_rejected for s in summaries),
    )
