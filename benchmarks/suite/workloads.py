"""The five workloads: seeded inputs, the drive loop, outputs and checks.

Each workload turns ``(seed, scale)`` into configs/packets -- the only
thing the program ever sees -- runs them through the layers' public entry
points under a :class:`~segments.SegmentDriver`, and hands back the
simulated-time outcome (fidelity numbers, ``sim_digest``), the check
list, and the handles public counters are read from.

``scale`` multiplies the amount of work (the post-warm-up simulated
span): ``--seconds`` and ``--quick`` map to it, so the same seed and
scale always mean the same inputs.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from array import array
from dataclasses import dataclass, field

from repro.churn import ChurnPlan, draw_plan
from repro.core.bcpqp import BCPQP
from repro.classify.classifier import SlotClassifier
from repro.fleet.shard import simulate_shard
from repro.fleet.spec import FleetSpec, shard_configs
from repro.metrics.fairness import jain_index
from repro.metrics.merge import merge_shard_summaries
from repro.net.impair import ImpairmentSpec
from repro.net.middlebox import Middlebox
from repro.net.packet import FlowId, Packet
from repro.net.sink import NullSink
from repro.policy.tree import Policy
from repro.runner import aggregate as runner
from repro.sim.simulator import Simulator
from repro.units import MSS, gbps, mbps, ms
from repro.workload.spec import FlowSpec

from segments import SegmentDriver

#: The paper's measurement window (Fig. 4b's burst axis).
WINDOW = 0.25


def digest_of(values) -> str:
    """sha256 over a canonical byte encoding of nested numbers.

    Ints are packed as little-endian int64, floats as IEEE doubles,
    strings as UTF-8, sequences bracketed -- so equal digests mean
    bit-equal numbers, in every process and on every platform.
    """
    h = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, bool):
            h.update(b"b1" if value else b"b0")
        elif isinstance(value, int):
            h.update(b"i" + struct.pack("<q", value))
        elif isinstance(value, float):
            h.update(b"d" + struct.pack("<d", value))
        elif isinstance(value, str):
            h.update(b"s" + value.encode() + b"\0")
        elif isinstance(value, (list, tuple, array)):
            h.update(b"[")
            for item in value:
                feed(item)
            h.update(b"]")
        else:
            raise TypeError(f"cannot digest {type(value).__name__}")

    feed(values)
    return h.hexdigest()


@dataclass
class Outcome:
    """What one repeat of a workload produced."""

    digest: str
    rate_error: float
    peak_burst: float
    fairness_jain: float
    drop_rate: float
    #: (name, passed, detail) -- the per-repeat check list.
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Per-layer numbers read from public counters.
    counters: dict[str, float] = field(default_factory=dict)
    build_s: float = 0.0
    measure_s: float = 0.0
    #: Packets that arrived at the limiter(s) over the whole run.
    arrived_packets: int = 0

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


def _sim_snapshot(sim: Simulator) -> dict[str, int]:
    return {
        "events": sim.events_processed,
        "pushes": sim.heap_pushes,
        "inline": sim.inline_advances,
    }


def _sim_counters(sim, warm: dict[str, int], packets: int) -> dict[str, float]:
    now = _sim_snapshot(sim)
    per_pkt = 1.0 / packets if packets else 0.0
    return {
        "sim.events_per_pkt": (now["events"] - warm["events"]) * per_pkt,
        "sim.heap_pushes_per_pkt": (now["pushes"] - warm["pushes"]) * per_pkt,
        "sim.inline_advances_per_pkt":
            (now["inline"] - warm["inline"]) * per_pkt,
        "sim.peak_heap": sim.peak_heap_size,
        "sim.cancelled_backlog_hwm": sim.cancelled_backlog_hwm,
        "sim.batched_deliveries": sim.batched_deliveries,
    }


def _limiter_counters(limiters, span: float) -> dict[str, float]:
    arrived = sum(lim.stats.arrived_packets for lim in limiters)
    dropped = sum(lim.stats.dropped_packets for lim in limiters)
    fills = sum(getattr(lim, "magic_fills", 0) for lim in limiters)
    reclaims = sum(getattr(lim, "magic_reclaims", 0) for lim in limiters)
    recomputes = sum(
        lim.queues.drain_recomputes for lim in limiters
        if hasattr(lim, "queues")
    )
    cycles = sum(lim.cost.cycles() for lim in limiters)
    per_pkt = 1.0 / arrived if arrived else 0.0
    return {
        "core.magic_fills_per_s": fills / span,
        "core.magic_reclaims_per_s": reclaims / span,
        "core.drain_recomputes_per_pkt": recomputes * per_pkt,
        "core.modeled_cycles_per_pkt": cycles * per_pkt,
        "limiters.drop_share": dropped * per_pkt,
    }


def _conservation(out: Outcome, limiters, buffered_bytes: float) -> None:
    """arrived = forwarded + dropped + still buffered, packets and bytes."""
    packets = bytes_ = 0
    for lim in limiters:
        s = lim.stats
        packets += s.arrived_packets - s.forwarded_packets - s.dropped_packets
        bytes_ += s.arrived_bytes - s.forwarded_bytes - s.dropped_bytes
    # A shaper holds its queued packets plus the one being serialized.
    slack = MSS * len(limiters) if buffered_bytes else 0
    out.check(
        "byte conservation",
        buffered_bytes <= bytes_ <= buffered_bytes + slack,
        f"unaccounted={bytes_} buffered={buffered_bytes}",
    )
    out.check(
        "packet conservation",
        packets * MSS == bytes_,
        f"unaccounted packets={packets} bytes={bytes_}",
    )


def _capacity_bytes(limiter) -> float:
    """Burst allowance a limiter may legitimately forward beyond
    rate x time: its phantom/real queue capacities or bucket."""
    queues = getattr(limiter, "queues", None)
    if queues is not None:
        return sum(queues.capacity(q) for q in range(queues.num_queues))
    if hasattr(limiter, "queue_capacity"):
        return limiter.queue_capacity * limiter.num_queues
    return getattr(limiter, "bucket_bytes", 0.0)


# ----------------------------------------------------------------------
# Closed loop: one saturated aggregate (sat_bcpqp, sat_shaper, lossy_churn)
# ----------------------------------------------------------------------

_CCS = ("reno", "cubic", "bbr", "vegas")
_PLAN_SEED = 1
_RTTS = (ms(10), ms(20), ms(30), ms(40))


class SaturatedCell:
    """4 senders (reno/cubic/bbr/vegas, RTT 10/20/30/40 ms) saturating
    one 25 Mbps aggregate: the fig5 cell, driven in 0.5 s segments."""

    rate = mbps(25)
    warmup = 5.0
    step = 0.5

    def __init__(self, name: str, scheme: str, span: float, *,
                 impair: ImpairmentSpec | None = None,
                 churn_per_s: float = 0.0) -> None:
        self.name = name
        self.scheme = scheme
        self.span = span
        self.impair = impair
        self.churn_per_s = churn_per_s

    def horizon(self, scale: float) -> float:
        steps = max(round(self.span * scale / self.step), 2)
        return self.warmup + steps * self.step

    def config(self, seed: int, scale: float) -> runner.AggregateConfig:
        rng = random.Random(seed)
        horizon = self.horizon(scale)
        # Start offsets inside the first RTTs: the seed decides who wins
        # the first slow-start race, nothing else about the cell.
        specs = tuple(
            FlowSpec(slot=i, cc=cc, rtt=rtt, start=rng.uniform(0.0, 0.05))
            for i, (cc, rtt) in enumerate(zip(_CCS, _RTTS))
        )
        churn = None
        if self.churn_per_s:
            # One plan for every seed: its rate actions (0.5-1.5x) set how
            # much traffic the run carries, and a plan per seed made the
            # seeds differ by more than two commits would.
            churn = draw_plan(
                random.Random(_PLAN_SEED), num_queues=len(specs),
                rate=self.rate, horizon=horizon,
                actions=round(self.churn_per_s * horizon),
            )
        return runner.AggregateConfig(
            scheme=self.scheme, specs=specs, rate=self.rate,
            max_rtt=max(_RTTS), horizon=horizon, warmup=self.warmup,
            seed=seed, impair=self.impair, churn=churn,
        )

    def run(self, seed: int, scale: float, driver: SegmentDriver) -> Outcome:
        config = self.config(seed, scale)
        start = time.process_time()
        sim = Simulator(batch_limit=config.batch)
        limiter, scenario = runner.build_scenario(config, sim)
        build_s = time.process_time() - start

        forwarded: list[int] = []       # limiter forwarded bytes per boundary
        capacity = [0.0]                # largest burst allowance seen
        warm: dict[str, int] = {}

        def at_boundary(t: float) -> None:
            forwarded.append(limiter.stats.forwarded_bytes)
            capacity[0] = max(capacity[0], _capacity_bytes(limiter))
            if not warm and t >= self.warmup - 1e-9:
                warm.update(_sim_snapshot(sim), packets=limiter.stats.arrived_packets)

        driver.drive(
            lambda t: scenario.run(until=t),
            horizon=config.horizon, step=self.step, warmup=self.warmup,
            packets=lambda: limiter.stats.arrived_packets,
            at_boundary=at_boundary,
        )
        start = time.process_time()
        # Looked up at call time so the traced run's span is picked up.
        result = runner.measure(config, limiter, scenario)
        measure_s = time.process_time() - start

        rates = _rate_schedule(config)
        warm_index = round(self.warmup / self.step)
        sent = forwarded[-1] - forwarded[warm_index]
        allowed = _integral(rates, self.warmup, config.horizon)
        series = result.aggregate_series
        peak = max(
            (value / _max_rate(rates, t, t + config.window)
             for t, value in series),
            default=0.0,
        )
        out = Outcome(
            digest=outcome_digest(result),
            rate_error=abs(1.0 - sent / allowed),
            peak_burst=peak,
            fairness_jain=result.fairness,
            drop_rate=result.drop_rate,
            build_s=build_s,
            measure_s=measure_s,
            arrived_packets=result.arrived_packets,
        )
        buffered = limiter.backlog_bytes() if self.scheme == "shaper" else 0.0
        _conservation(out, [limiter], buffered)
        out.check(
            "forwarded <= rate x span + burst allowance",
            forwarded[-1] <= _integral(rates, 0.0, config.horizon) + capacity[0],
            f"forwarded={forwarded[-1]}",
        )
        packets = limiter.stats.arrived_packets - warm["packets"]
        out.counters.update(_sim_counters(sim, warm, packets))
        out.counters.update(_limiter_counters([limiter], config.horizon))
        out.counters["churn.applied"] = result.updates_applied
        out.counters["churn.rejected"] = result.updates_rejected
        out.counters["net.link.drops"] = result.bottleneck_drops
        return out


def outcome_digest(result: runner.AggregateOutcome) -> str:
    """``sim_digest`` of an aggregate run: every number a figure reads."""
    return digest_of([
        result.aggregate_series.values,
        [result.slot_series[k].values for k in sorted(result.slot_series)],
        result.drop_rate, result.cycles_per_packet, result.arrived_packets,
        result.bottleneck_drops, result.magic_fills, result.magic_reclaims,
        result.updates_applied, result.updates_rejected,
        [[r.slot, r.incarnation, r.start, r.end, r.packets]
         for r in result.flow_records],
    ])


def _rate_schedule(config) -> list[tuple[float, float]]:
    """Piecewise-constant enforced rate as ``(from_time, rate)`` steps,
    replayed from the churn plan's rate actions (absolute rates)."""
    steps = [(0.0, config.rate)]
    plan: ChurnPlan | None = config.churn
    if plan is not None:
        for action in sorted(plan.actions, key=lambda a: a.time):
            if action.rate is not None:
                steps.append((action.time, action.rate))
    return steps


def _integral(steps, start: float, end: float) -> float:
    total = 0.0
    for i, (t, rate) in enumerate(steps):
        until = steps[i + 1][0] if i + 1 < len(steps) else float("inf")
        lo, hi = max(t, start), min(until, end)
        if hi > lo:
            total += rate * (hi - lo)
    return total


def _max_rate(steps, start: float, end: float) -> float:
    best = 0.0
    for i, (t, rate) in enumerate(steps):
        until = steps[i + 1][0] if i + 1 < len(steps) else float("inf")
        if t < end and until > start:
            best = max(best, rate)
    return best


# ----------------------------------------------------------------------
# Open loop: bursts straight into BCPQP.receive_batch (openloop_bcpqp)
# ----------------------------------------------------------------------


class _BurstGenerator:
    """Plays a pre-generated schedule of same-instant rx bursts into a
    limiter on virtual time: one self-rescheduling event per burst, so
    the generator is never late by construction."""

    SPAN_LAYER = "harness.gen"

    def __init__(self, sim: Simulator, sink, times: array, bursts: list) -> None:
        self._sim = sim
        self._sink = sink
        self._times = times
        self._bursts = bursts
        self._next = 0
        sim.call_at(times[0], self.tick)

    def tick(self) -> None:
        i = self._next
        self._sink.receive_batch(self._bursts[i])
        i += 1
        self._next = i
        if i < len(self._times):
            self._sim.call_at(self._times[i], self.tick)


class OpenLoop:
    """No TCP: 1.2x a 1 Gbps rate in bursts of 32 packets over 256
    queues under a nested two-priority weighted policy."""

    name = "openloop_bcpqp"
    rate = gbps(1)
    overload = 1.2
    burst = 32
    queues = 256
    groups = 16
    active = 64
    redraw = 0.01
    queue_bytes = 64.0 * MSS
    warmup = 1.0
    step = 0.05
    span = 5.0

    def horizon(self, scale: float) -> float:
        steps = max(round(self.span * scale / WINDOW), 2)
        return self.warmup + steps * WINDOW

    def schedule(self, seed: int, scale: float):
        """Seeded inputs: the policy, burst times and burst contents."""
        rng = random.Random(seed)
        per_group = self.queues // self.groups
        members = [
            [float(rng.choice((1, 2, 4))) for _ in range(per_group)]
            for _ in range(self.groups)
        ]
        group_weights = [float(rng.choice((1, 2, 4))) for _ in range(self.groups)]
        group_priorities = [g % 2 for g in range(self.groups)]
        policy = Policy.nested(members, group_weights, group_priorities)
        share = []  # per-queue weight product inside its priority level
        for g in range(self.groups):
            total = sum(members[g])
            share.extend(group_weights[g] * w / total for w in members[g])

        packets = [
            Packet.data(FlowId(0, q, 0), 0, 0.0) for q in range(self.queues)
        ]
        gap = self.burst * MSS / (self.rate * self.overload)
        ticks = int(self.horizon(scale) / gap)
        times = array("d", (k * gap for k in range(ticks)))
        bursts = []
        offered = [0] * self.queues  # post-warm-up packets per queue
        live = rng.sample(range(self.queues), self.active)
        for k in range(ticks):
            if rng.random() < self.redraw:
                live = rng.sample(range(self.queues), self.active)
            picks = rng.choices(live, k=self.burst)
            bursts.append([packets[q] for q in picks])
            if times[k] >= self.warmup:
                for q in picks:
                    offered[q] += 1
        return policy, group_priorities, share, times, bursts, offered

    def run(self, seed: int, scale: float, driver: SegmentDriver) -> Outcome:
        policy, priorities, share, times, bursts, offered = self.schedule(
            seed, scale
        )
        horizon = self.horizon(scale)
        start = time.process_time()
        sim = Simulator()
        limiter = BCPQP(
            sim, rate=self.rate, policy=policy,
            classifier=SlotClassifier(self.queues),
            queue_bytes=self.queue_bytes,
        )
        sink = NullSink()
        limiter.connect(sink)
        _BurstGenerator(sim, limiter, times, bursts)
        build_s = time.process_time() - start

        forwarded: list[int] = []
        warm: dict[str, int] = {}
        warm_drops: dict[int, int] = {}

        def at_boundary(t: float) -> None:
            forwarded.append(limiter.stats.forwarded_bytes)
            if not warm and t >= self.warmup - 1e-9:
                warm.update(_sim_snapshot(sim),
                            packets=limiter.stats.arrived_packets)
                warm_drops.update(limiter.stats.per_queue_drops)

        driver.drive(
            lambda t: sim.run(until=t),
            horizon=horizon, step=self.step, warmup=self.warmup,
            packets=lambda: limiter.stats.arrived_packets,
            at_boundary=at_boundary,
        )
        start = time.process_time()
        stats = limiter.stats
        per_window = round(WINDOW / self.step)
        warm_index = round(self.warmup / self.step)
        marks = forwarded[warm_index::per_window]
        windows = [
            (b - a) / WINDOW / self.rate for a, b in zip(marks, marks[1:])
        ]
        sent = forwarded[-1] - forwarded[warm_index]
        drops = stats.per_queue_drops
        goodput = [
            (offered[q] - (drops.get(q, 0) - warm_drops.get(q, 0))) * MSS
            for q in range(self.queues)
        ]
        per_group = self.queues // self.groups
        lowest = max(priorities)
        fairness = jain_index([
            goodput[q] / share[q] for q in range(self.queues)
            if priorities[q // per_group] == lowest and offered[q]
        ])
        measure_s = time.process_time() - start
        out = Outcome(
            digest=digest_of([
                windows, goodput, stats.arrived_packets,
                stats.forwarded_packets, stats.dropped_packets,
                stats.forwarded_bytes, limiter.magic_fills,
                limiter.magic_reclaims, limiter.queues.drain_recomputes,
                limiter.cost.cycles(),
            ]),
            rate_error=abs(1.0 - sent / (self.rate * (horizon - self.warmup))),
            peak_burst=max(windows),
            fairness_jain=fairness,
            drop_rate=stats.drop_rate,
            build_s=build_s,
            measure_s=measure_s,
            arrived_packets=stats.arrived_packets,
        )
        _conservation(out, [limiter], 0.0)
        out.check(
            "forwarded <= rate x span + burst allowance",
            forwarded[-1] <= self.rate * horizon + _capacity_bytes(limiter),
            f"forwarded={forwarded[-1]}",
        )
        out.check(
            "sink saw every forwarded packet",
            sink.count == stats.forwarded_packets,
            f"sink={sink.count} forwarded={stats.forwarded_packets}",
        )
        packets = stats.arrived_packets - warm["packets"]
        out.counters.update(_sim_counters(sim, warm, packets))
        out.counters.update(_limiter_counters([limiter], horizon))
        # Virtual-time generator: every burst fires at its due instant.
        out.counters["harness.gen_lateness_s"] = 0.0
        return out


# ----------------------------------------------------------------------
# Fleet: 250 limiters behind a Middlebox (fleet_250)
# ----------------------------------------------------------------------


class Fleet:
    """``FleetSpec(aggregates=250, seed=S)`` through the public
    ``shard_configs -> simulate_shard -> merge_shard_summaries``.

    250 aggregates over 6 s, not the ROADMAP's 1000 over 1 s: with 1000
    (~27 kB of live objects each) the run's speed follows the
    neighbours' memory traffic more than the calibration kernel does,
    and same-code runs spread 14-15% on the driver's shared host
    (README, pass 7).  At 250 the same code paths run, the event heap
    is as deep, and beside memory hogs the spread fell from 11-15% to 3%.
    """

    name = "fleet_250"
    aggregates = 250
    warmup = 0.2
    span = 6.0
    step = 0.05

    def spec(self, seed: int, scale: float) -> FleetSpec:
        # Never shorter than the spec's one 250 ms measurement window.
        steps = max(round(self.span * scale / self.step), 6)
        return FleetSpec(
            aggregates=self.aggregates, seed=seed, warmup=self.warmup,
            horizon=self.warmup + steps * self.step,
        )

    def run(self, seed: int, scale: float, driver: SegmentDriver) -> Outcome:
        spec = self.spec(seed, scale)
        config = shard_configs(spec, 1)[0]
        seen: dict[str, object] = {}
        warm: dict[str, int] = {}

        # ``simulate_shard`` fuses build, run and summarise, so its single
        # ``sim.run(until=horizon)`` is the one place the harness can cut
        # in: a stand-in that drives the same run as segments (outcome
        # byte-identical -- pinned by ``test_suite.py``), plus a constructor
        # hook that remembers the Middlebox so limiter counters can be
        # read.  Neither touches the per-packet path.
        original_run = Simulator.run
        original_box = Middlebox.__init__

        def box_init(box, *args, **kwargs):
            original_box(box, *args, **kwargs)
            seen["box"] = box

        def segmented_run(sim, until=None, max_events=None):
            Simulator.run = original_run
            box = seen["box"]
            limiters = [box.limiter_for(a) for a in box.aggregates]
            seen.update(sim=sim, limiters=limiters,
                        build_s=time.process_time() - start)

            def arrived() -> int:
                return sum(lim.stats.arrived_packets for lim in limiters)

            def at_boundary(t: float) -> None:
                if not warm and t >= spec.warmup - 1e-9:
                    warm.update(_sim_snapshot(sim), packets=arrived())

            driver.drive(
                lambda t: sim.run(until=t),
                horizon=until, step=self.step, warmup=spec.warmup,
                packets=arrived, at_boundary=at_boundary,
            )
            seen["run_end"] = time.process_time()

        start = time.process_time()
        Simulator.run = segmented_run
        Middlebox.__init__ = box_init
        try:
            summary = simulate_shard(config)
        finally:
            Simulator.run = original_run
            Middlebox.__init__ = original_box
        summarise_s = time.process_time() - seen["run_end"]
        merge_start = time.process_time()
        metrics = merge_shard_summaries([summary])
        merge_s = time.process_time() - merge_start

        limiters = seen["limiters"]
        sim = seen["sim"]
        capacity = sum(summary.rates) * spec.span
        peak = max(
            b / spec.window / sum(summary.rates)
            for b in metrics.fleet_binned_bytes
        )
        out = Outcome(
            digest=metrics.digest,
            rate_error=abs(1.0 - metrics.goodput_bytes / capacity),
            peak_burst=peak,
            fairness_jain=metrics.mean_intra_aggregate_fairness,
            drop_rate=metrics.drop_rate,
            build_s=seen["build_s"],
            measure_s=summarise_s + merge_s,
            arrived_packets=metrics.arrived_packets,
        )
        _conservation(out, limiters, 0.0)
        out.check(
            "per-aggregate conservation",
            all(a == f + d for a, f, d in zip(
                summary.arrived_packets, summary.forwarded_packets,
                summary.dropped_packets)),
        )
        out.check(
            "forwarded <= rate x span + burst allowance",
            all(
                lim.stats.forwarded_bytes
                <= rate * spec.horizon + _capacity_bytes(lim)
                for lim, rate in zip(limiters, summary.rates)
            ),
        )
        packets = metrics.arrived_packets - warm["packets"]
        out.counters.update(_sim_counters(sim, warm, packets))
        out.counters.update(_limiter_counters(limiters, spec.horizon))
        out.counters.update({
            "fleet.setup_s": seen["build_s"],
            "fleet.merge_s": merge_s,
            "fleet.flows": summary.flows,
            "fleet.aggregates": spec.aggregates,
        })
        return out


_LOSSY = ImpairmentSpec(
    loss=0.01, jitter=0.002, reorder=0.01, reorder_extra=0.003, ack_loss=0.005
)

WORKLOADS = {
    w.name: w
    for w in (
        SaturatedCell("sat_bcpqp", "bcpqp", span=85.0),
        SaturatedCell("sat_shaper", "shaper", span=70.0),
        SaturatedCell("lossy_churn", "bcpqp", span=70.0,
                      impair=_LOSSY, churn_per_s=4.0),
        OpenLoop(),
        Fleet(),
    )
}
