"""One fleet shard: build, run and summarize a block of aggregates.

:func:`simulate_shard` is the picklable worker entry the fleet sweep
fans out (directly analogous to
:func:`repro.runner.aggregate.simulate_aggregate`, one level up the
scale ladder): one :class:`~repro.fleet.spec.ShardConfig` in, one
columnar :class:`~repro.metrics.merge.ShardSummary` out.  Inside, the
shard mirrors the paper's deployment shape — a single
:class:`~repro.net.middlebox.Middlebox` hosting an independent limiter
per aggregate, with each aggregate's TCP flows wired through it — but
measurement goes through one
:class:`~repro.metrics.recorder.Recorder` with a row per aggregate, and
identically-shaped policy trees are interned so 10^4 aggregates share a
handful of compiled :class:`~repro.policy.tree.Policy` objects instead
of carrying one tree each.
"""

from __future__ import annotations

import resource
import time
from array import array

from repro.cc.endpoint import FlowDemux
from repro.churn import ChurnDriver
from repro.fleet.spec import AggregatePlan, ShardConfig, churn_plan_for, plan_for
from repro.limiters.costs import Op
from repro.metrics.merge import ShardSummary
from repro.metrics.recorder import Recorder
from repro.net.middlebox import Middlebox
from repro.net.packet import FlowId
from repro.policy.tree import Policy
from repro.schemes import make_limiter
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.wiring import wire_flow

__all__ = ["simulate_shard"]

_OPS = tuple(Op)


def _interned_policy(plan: AggregatePlan, cache: dict) -> Policy:
    """One compiled policy tree per distinct plan shape.

    Safe to share: the tree is immutable, so co-hosted limiters reading
    through one instance stay byte-identical to private copies.
    """
    key = plan.policy_key()
    policy = cache.get(key)
    if policy is None:
        if plan.policy_kind == "weighted":
            policy = Policy.weighted(list(plan.weights))
        else:
            policy = Policy.fair(plan.num_flows)
        cache[key] = policy
    return policy


def simulate_shard(config: ShardConfig) -> ShardSummary:
    """Worker entry point: simulate one shard and summarize it."""
    spec = config.spec
    lo, hi = config.bounds
    n = hi - lo
    setup_start = time.perf_counter()
    cpu_start = time.process_time()

    checker = None
    if spec.validate:
        # Imported lazily so unvalidated fleets never load the checker.
        from repro.validate import InvariantChecker

        checker = InvariantChecker()
    sim = Simulator(validate=checker)
    box = Middlebox(sim, name=f"fleet-shard-{config.index}")
    demux = FlowDemux()

    plans = [plan_for(spec, aggregate) for aggregate in range(lo, hi)]
    recorder = Recorder(
        sim,
        demux,
        lo=lo,
        slot_counts=[plan.num_flows for plan in plans],
        window=spec.window,
        warmup=spec.warmup,
        horizon=spec.horizon,
        name=f"fleet-recorder-{config.index}",
    )

    policies: dict = {}
    limiters = []
    drivers = []
    flows = 0
    # Impairment streams are keyed by (aggregate, slot) off the global
    # seed — like plan_for's derivation, independent of shard layout, so
    # impaired fleets stay shard-count invariant.
    impair = spec.impair if spec.impair and spec.impair.flow_enabled else None
    impair_streams = RngFactory(spec.seed) if impair is not None else None
    for plan in plans:
        # Everything of one aggregate only ever calls itself: one lane.
        sim.new_lane()
        limiter = make_limiter(
            sim,
            spec.scheme,
            rate=plan.rate,
            num_queues=plan.num_flows,
            max_rtt=plan.max_rtt,
            policy=_interned_policy(plan, policies),
            name=f"{spec.scheme}-{plan.aggregate}",
        )
        limiter.connect(recorder)
        box.add_aggregate(plan.aggregate, limiter)
        limiters.append(limiter)
        churn_plan = churn_plan_for(spec, plan)
        if churn_plan is not None and churn_plan.enabled:
            # Churn swaps whole Policy objects at commit (staged updates
            # build fresh trees), so the interned, shared policies above
            # are never mutated under a co-hosted limiter.
            drivers.append(ChurnDriver(sim, limiter, churn_plan))
        for flow_spec in plan.specs:
            wire_flow(
                sim,
                FlowId(plan.aggregate, flow_spec.slot, 0),
                cc=flow_spec.cc,
                rtt=flow_spec.rtt,
                ingress=box,
                demux=demux,
                packets=None,
                start=flow_spec.start,
                impair=impair,
                impair_rng=(
                    impair_streams.stream(
                        "impair", plan.aggregate, flow_spec.slot
                    )
                    if impair_streams is not None
                    else None
                ),
            )
            flows += 1

    run_start = time.perf_counter()
    sim.run(until=spec.horizon)
    run_seconds = time.perf_counter() - run_start
    if checker is not None:
        checker.finalize()

    rates = array("d", (plan.rate for plan in plans))
    arrived = array("q", bytes(8 * n))
    forwarded = array("q", bytes(8 * n))
    dropped = array("q", bytes(8 * n))
    forwarded_bytes = array("q", bytes(8 * n))
    dropped_bytes = array("q", bytes(8 * n))
    cycles = array("d", bytes(8 * n))
    op_counts = array("d", bytes(8 * n * len(_OPS)))
    for row, limiter in enumerate(limiters):
        stats = limiter.stats
        arrived[row] = stats.arrived_packets
        forwarded[row] = stats.forwarded_packets
        dropped[row] = stats.dropped_packets
        forwarded_bytes[row] = stats.forwarded_bytes
        dropped_bytes[row] = stats.dropped_bytes
        meter = limiter.cost
        cycles[row] = meter.cycles()
        base = row * len(_OPS)
        for k, op in enumerate(_OPS):
            op_counts[base + k] = meter.count(op)

    return ShardSummary(
        shard=config.index,
        shards=config.shards,
        lo=lo,
        hi=hi,
        scheme=spec.scheme,
        window=spec.window,
        warmup=spec.warmup,
        horizon=spec.horizon,
        nbins=recorder.nbins,
        rates=rates,
        goodput_bytes=recorder.goodput_bytes(),
        binned_bytes=recorder.binned_bytes(),
        slot_offsets=recorder.slot_offsets,
        slot_goodput=recorder.slot_goodput(),
        arrived_packets=arrived,
        forwarded_packets=forwarded,
        dropped_packets=dropped,
        forwarded_bytes=forwarded_bytes,
        dropped_bytes=dropped_bytes,
        modeled_cycles=cycles,
        op_counts=op_counts,
        setup_seconds=run_start - setup_start,
        run_seconds=run_seconds,
        cpu_seconds=time.process_time() - cpu_start,
        peak_rss_bytes=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024,
        events_processed=sim.events_processed,
        heap_pushes=sim.heap_pushes,
        lanes=len(sim.lanes),
        peak_heap=sim.peak_heap_size,
        flows=flows,
        updates_applied=sum(d.applied for d in drivers),
        updates_rejected=sum(d.rejected for d in drivers),
    )
