"""Complexity pins: exact step counts, no wall clock.

The paper's Figure 5 claim — cost per packet stays flat as aggregates and
policy classes grow — must hold for our own hot path.  A batch pin
builds a cell, warms it with one batch, and counts the Python ``line``
events the next batch executes under ``src/repro/`` (``tests/_steps.py``);
a whole-run pin counts one complete ``simulate_aggregate`` /
``simulate_shard`` call, set-up included.
A deterministic simulation runs the same lines on every host, so the
counts are integers that repeat exactly and the gates are ratios of two
of them: nothing here reads a clock, and nothing needs deselecting on a
noisy box.  ``pytest tests/test_scaling_smoke.py -s`` prints every raw
count behind a gate as a ``pin`` line.

Beside the line counts sit the deterministic gates that were always
exact: modeled cycles/packet (the cost model charges the paper's
per-packet operations, so it must not grow with N at all) and the event
engine's own counters against the pinned pre-overhaul engine.

EXPERIMENTS.md tabulates each pin: today's value, the limit, and the
value at the parent of the commit whose win the pin protects.
"""

import dataclasses
import functools
import gc
import itertools
import os
import random
import tracemalloc
from unittest import mock

import pytest

import repro
from repro.churn import ChurnPlan, PolicyUpdate
from repro.classify.classifier import SlotClassifier
from repro.core.bcpqp import BCPQP
from repro.experiments import fig5_efficiency
from repro.fleet import FleetSpec, ShardConfig, simulate_shard
from repro.metrics.throughput import bin_layout
from repro.net.impair import ImpairmentSpec
from repro.net.packet import FlowId, Packet
from repro.net.sink import NullSink
from repro.policy.tree import Policy
from repro.runner.aggregate import (
    AggregateConfig,
    build_scenario,
    simulate_aggregate,
)
from repro.schemes import make_limiter
from repro.sim.simulator import Simulator
from repro.sim.timer import Timer
from repro.units import MSS, gbps, mbps, ms
from repro.workload.spec import FlowSpec

from tests._steps import counting

pytestmark = pytest.mark.scaling

_SRC = os.path.dirname(repro.__file__) + os.sep

#: Packets per counted batch (after one warm-up batch of the same size).
BATCH = 1000


def _src_lines():
    """Counts the ``line`` events its body executes under ``src/repro/``."""
    return counting(under=_SRC)


def _sim_lines():
    """Counts the ``line`` events under ``src/repro/sim/`` only: what the
    event engine itself executes, none of the packet path."""
    return counting(under=os.path.join(_SRC, "sim") + os.sep)


def _show(name: str, **counts) -> dict:
    print(f"pin {name}: " + " ".join(f"{k}={v!r}" for k, v in counts.items()))
    return counts


def _cycles(limiter) -> float:
    """Modeled cycles/packet over everything the limiter has seen."""
    return round(
        limiter.cost.cycles_per_packet(limiter.stats.arrived_packets), 2
    )


def _counted_batch(name, limiter, process_batch) -> dict:
    """One warm-up batch (queues activate, windows start), then the
    lines/packet of the next one and the modeled cycles/packet so far."""
    process_batch()
    with _src_lines() as steps:
        process_batch()
    return _show(name, lines=steps.lines / BATCH, cycles=_cycles(limiter))


def _flat_cell(scheme: str, n: int, service: str = "fluid") -> dict:
    """``n`` equal queues at 50 Mbps, arrivals round-robin on a 50k
    packets/s clock.  The shaper serves each batch on its own timers, so
    at n=1000 every packet is also an empty -> occupied -> empty
    transition of its queue: the scheduler's worst case."""
    sim = Simulator()
    limiter = make_limiter(sim, scheme, rate=mbps(50), num_queues=n,
                           max_rtt=ms(50), phantom_service=service)
    limiter.connect(NullSink())
    flows = [FlowId(0, i) for i in range(n)]
    counter = itertools.count()
    is_shaper = scheme == "shaper"

    def process_batch() -> None:
        base = next(counter) * BATCH
        for i in range(base, base + BATCH):
            if not is_shaper:
                sim._now = i * 2e-5
            limiter.receive(Packet.data(flows[i % n], i, sim.now))
        if is_shaper:
            sim.run(until=sim.now + BATCH * MSS / limiter.rate)

    return _counted_batch(f"{scheme}/{service} N={n}", limiter, process_batch)


def _nested_cell() -> dict:
    """The policy-rich cell: bcpqp over a two-level, two-priority tree
    whose occupied set keeps changing (the ``openloop_bcpqp`` suite
    workload's shape).  1.2x a 1 Gbps rate arrives in same-instant ticks
    of ``burst`` packets spread over ``active`` of the ``queues`` queues;
    the active draw is replaced on 1% of the ticks, so queues keep
    filling from empty and draining out and BC-PQP reads ``r*_i``
    against an ever-new active set."""
    queues, groups, active, burst, ticks = 256, 16, 64, 32, 320
    rng = random.Random(1)
    members = [
        [float(rng.choice((1, 2, 4))) for _ in range(queues // groups)]
        for _ in range(groups)
    ]
    policy = Policy.nested(
        members,
        [float(rng.choice((1, 2, 4))) for _ in range(groups)],
        [g % 2 for g in range(groups)],
    )
    rate = gbps(1)
    sim = Simulator()
    limiter = BCPQP(
        sim, rate=rate, policy=policy, classifier=SlotClassifier(queues),
        queue_bytes=float(64 * MSS),
    )
    limiter.connect(NullSink())
    packets = [Packet.data(FlowId(0, q), 0, 0.0) for q in range(queues)]
    gap = burst * MSS / (rate * 1.2)
    live = rng.sample(range(queues), active)
    tick = itertools.count()

    def draw_round() -> list[tuple[float, list[Packet]]]:
        nonlocal live
        schedule = []
        for _ in range(ticks):
            if rng.random() < 0.01:
                live = rng.sample(range(queues), active)
            picks = rng.choices(live, k=burst)
            schedule.append((next(tick) * gap, [packets[q] for q in picks]))
        return schedule

    def process(schedule) -> None:
        for now, arrivals in schedule:
            sim._now = now
            for packet in arrivals:
                limiter.receive(packet)

    process(draw_round())  # warm up: queues fill, windows start
    schedule = draw_round()
    with _src_lines() as steps:
        process(schedule)
    return _show("bcpqp nested 256q/16g",
                 lines=steps.lines / (ticks * burst), cycles=_cycles(limiter))


#: The idle-class rows: bcpqp over ``classes`` equal classes of four
#: queues each, 1.2x a 1 Gbps rate arriving one packet per instant
#: round-robin over the queues of the first two classes.  Every other
#: class stays empty, so the rows differ only in how many idle classes
#: the tree carries.
IDLE_CLASS_COUNTS = (4, 64, 1024)


def _idle_class_cell(classes: int) -> dict:
    leaves, live = 4, 2
    rate = gbps(1)
    sim = Simulator()
    limiter = BCPQP(
        sim, rate=rate,
        policy=Policy.nested([[1.0] * leaves for _ in range(classes)]),
        classifier=SlotClassifier(classes * leaves),
        queue_bytes=float(64 * MSS),
    )
    limiter.connect(NullSink())
    packets = [Packet.data(FlowId(0, q), 0, 0.0) for q in range(live * leaves)]
    gap = MSS / (rate * 1.2)
    counter = itertools.count()

    def process_batch() -> None:
        base = next(counter) * BATCH
        for i in range(base, base + BATCH):
            sim._now = i * gap
            limiter.receive(packets[i % len(packets)])

    return _counted_batch(f"bcpqp {classes} classes, {live} live", limiter,
                          process_batch)


@pytest.fixture(scope="module")
def scaling():
    return {
        "pqp": {n: _flat_cell("pqp", n) for n in (10, 100, 1000, 10000)},
        "bcpqp": {n: _flat_cell("bcpqp", n) for n in (10, 100, 1000, 10000)},
        "shaper": {n: _flat_cell("shaper", n) for n in (10, 1000)},
        "nested": _nested_cell(),
        "idle": {c: _idle_class_cell(c) for c in IDLE_CLASS_COUNTS},
    }


class TestScalingSmoke:
    def test_check_passes_at_loose_multiple(self, scaling):
        # Two 100x jumps in N.  The virtual-time drain reads 1.0-1.5x;
        # 2x is loose against that and far below the 60-70x an
        # O(N)-per-arrival drain reads (next test).
        for scheme in ("pqp", "bcpqp"):
            rows = scaling[scheme]
            assert rows[1000]["lines"] <= 2 * rows[10]["lines"], scheme
            assert rows[10000]["lines"] <= 2 * rows[100]["lines"], scheme

    def test_check_flags_regressions(self):
        # The pin itself must trip when handed a linear blowup: the same
        # cell on the O(N)-per-arrival reference drain the fuzzer diffs
        # against (``repro.validate.reference``).  One 10x jump in N is
        # enough to clear 2x several times over.
        for scheme in ("pqp", "bcpqp"):
            small = _flat_cell(scheme, 10, "fluid-ref")
            big = _flat_cell(scheme, 100, "fluid-ref")
            assert big["lines"] > 2 * small["lines"], scheme

    @pytest.mark.parametrize("scheme", ["pqp", "bcpqp"])
    def test_modeled_cycles_stay_flat(self, scaling, scheme):
        # N=1000 must stay within jitter (window-roll and activation
        # transients) of N=10 — never a linear blowup.
        rows = scaling[scheme]
        assert rows[1000]["cycles"] <= 1.5 * rows[10]["cycles"]

    def test_shaper_rows_are_gated_in_the_same_run(self, scaling):
        # Occupancy-tracked DRR reads ~1.3x; the stateless head-list scan
        # it replaced reads ~40x (its idle reset was O(N^2)).
        rows = scaling["shaper"]
        assert rows[1000]["lines"] <= 2 * rows[10]["lines"]
        # Enqueue + dequeue charge the same ops per packet at every
        # queue count.
        assert rows[1000]["cycles"] == pytest.approx(
            rows[10]["cycles"], rel=0.01
        )

    def test_nested_cell_is_gated_against_the_flat_cell(self, scaling):
        # Reading shares off the GPS engine reads ~1.4x the flat cell (up
        # to 9 served classes to sync instead of 1, and a queue fills
        # from empty or drains out on four packets in five); a
        # per-active-set share memo plus a global slope recompute read
        # ~3.3x.
        nested, flat = scaling["nested"], scaling["bcpqp"][100]
        assert nested["lines"] <= 2 * flat["lines"]
        assert nested["cycles"] <= 1.5 * flat["cycles"]

    def test_idle_class_rows_are_gated_in_the_same_run(self, scaling):
        # The same traffic runs the same lines and charges the same ops
        # however many idle classes surround it; a drain that walks every
        # internal node per advance read ~33x at 1024 classes.
        rows = scaling["idle"]
        for classes in IDLE_CLASS_COUNTS[1:]:
            assert rows[classes]["lines"] <= 1.1 * rows[4]["lines"]
        assert rows[1024]["cycles"] == rows[4]["cycles"]


# ----------------------------------------------------------------------
# Inert machinery: a disabled spec / an empty plan costs wiring, not packets
# ----------------------------------------------------------------------


@functools.cache  # both machineries compare with the same clean runs
def _run_lines(horizon: float, **machinery):
    """Lines a whole ``simulate_aggregate`` run executes, and its outcome:
    one bcpqp aggregate, two flows, 8 Mbps."""
    config = AggregateConfig(
        scheme="bcpqp",
        specs=(
            FlowSpec(slot=0, cc="reno", rtt=0.02),
            FlowSpec(slot=1, cc="cubic", rtt=0.05),
        ),
        rate=mbps(8.0),
        max_rtt=ms(100),
        horizon=horizon,
        warmup=1.0,
        seed=7,
        **machinery,
    )
    with _src_lines() as steps:
        outcome = simulate_aggregate(config)
    _show(f"aggregate {'+'.join(machinery) or 'clean'} horizon={horizon}",
          lines=steps.lines)
    return steps.lines, outcome


class TestInertMachinery:
    """The byte-identity of these runs is pinned where the machinery is
    tested (``test_disabled_spec_byte_identical_to_none``,
    ``test_empty_plan_is_byte_identical``); this pins what it costs: a
    few lines at wiring time, the same few at every horizon."""

    @pytest.mark.parametrize("machinery", [
        {"impair": ImpairmentSpec()}, {"churn": ChurnPlan()},
    ], ids=["impair", "churn"])
    def test_disabled_machinery_adds_wiring_lines_only(self, machinery):
        surplus = []
        for horizon in (2.0, 4.0):
            clean, expected = _run_lines(horizon)
            inert, outcome = _run_lines(horizon, **machinery)
            assert outcome == expected
            surplus.append(inert - clean)
        assert surplus[0] == surplus[1] and 0 <= surplus[0] <= 200


def _lines_per_update(queues: int) -> float:
    """Lines one committed weight update executes against a loaded bcpqp
    limiter: every commit settles the drain, rebuilds the GPS engine and
    re-seeds the virtual clocks, so it migrates real state."""
    sim = Simulator()
    limiter = make_limiter(sim, "bcpqp", rate=mbps(50), num_queues=queues,
                           max_rtt=ms(50))
    limiter.connect(NullSink())
    for i in range(2000):
        sim._now = i * 2e-5
        limiter.receive(Packet.data(FlowId(0, i % queues), i, sim.now))
    rng = random.Random(7)
    updates = [
        PolicyUpdate(
            weights=tuple(float(rng.randint(1, 4)) for _ in range(queues)))
        for _ in range(16)
    ]

    with _src_lines() as steps:
        for update in updates:
            sim._now += 1e-5
            limiter.apply_update(update)
    lines = steps.lines / len(updates)
    _show(f"apply_update queues={queues}", lines=lines)
    return lines


def test_apply_update_cost_is_linear_in_the_queues():
    # 8x the queues: a linear transaction reads ~7.7x, a quadratic 64x.
    assert _lines_per_update(256) <= 10 * _lines_per_update(32)


@functools.cache  # two gates read the same two runs
def _shard_cell(aggregates: int) -> dict:
    """One unsharded fleet run end to end (TCP endpoints, a middlebox
    hosting one limiter per aggregate, the columnar recorder)."""
    config = ShardConfig(FleetSpec(aggregates=aggregates, seed=1), 1, 0)
    sims = []

    def kept(*args, **kwargs):
        # The shard's own simulator, read after the run; asking the
        # engine rather than the summary keeps the pin runnable on trees
        # whose summaries do not carry the number.
        sims.append(Simulator(*args, **kwargs))
        return sims[-1]

    with mock.patch("repro.fleet.shard.Simulator", kept), \
            _src_lines() as steps:
        summary = simulate_shard(config)
    packets = sum(summary.arrived_packets)
    return _show(f"simulate_shard aggregates={aggregates}",
                 lines=steps.lines / packets,
                 events=summary.events_processed / packets,
                 peak_heap=sims[0].peak_heap_size)


def test_shard_cost_per_packet_is_flat_in_the_aggregates():
    # Sharding exists to keep per-packet cost flat as the population
    # grows; setup, per-aggregate bookkeeping and the summary are inside
    # the count.  Shard-count invariance of the merged digest is pinned
    # in test_fleet.py.
    small, big = _shard_cell(25), _shard_cell(100)
    assert big["lines"] <= 1.1 * small["lines"]
    assert big["events"] <= 1.05 * small["events"]


def test_shard_heap_depth_is_flat_in_the_aggregates():
    # The line counts above cannot see what an event costs the host: on
    # one shared heap every event sifts through, and lands on the cold
    # state of, a different aggregate (439 deep at 25 aggregates, 1 544
    # at 100).  With a lane per aggregate the deepest heap is the busiest
    # aggregate's own packets in flight and timers: 66 and 66.
    small, big = _shard_cell(25), _shard_cell(100)
    assert big["peak_heap"] <= 1.1 * small["peak_heap"]


def test_lane_switch_costs_a_few_lines():
    # What lanes add to the engine: a run() call visits every lane, so
    # a sliced fleet run pays lanes x slices visits that fire nothing.
    def idle_visits(lanes: int, calls: int) -> int:
        sim = Simulator()
        for _ in range(lanes):
            sim.new_lane()
            sim.schedule(1.0, lambda: None)
        with _sim_lines() as steps:
            for k in range(calls):
                sim.run(until=1e-3 * k)
        assert sim.events_processed == 0 and len(sim.lanes) == lanes
        return steps.lines

    per_visit = _show(
        "eventloop lane visit lanes=100 calls=50",
        lines=(idle_visits(100, 50) - idle_visits(1, 50)) / (99 * 50),
    )["lines"]
    assert per_visit <= 6.1  # 6.0; 10.0 with a per-event budget test


# ----------------------------------------------------------------------
# Memory: a run holds bins, not packets
# ----------------------------------------------------------------------


def _held_bytes(horizon: float) -> dict:
    """Bytes allocated under ``src/repro/`` and still held when the fig5
    bcpqp cell reaches ``horizon`` (limiter, scenario and simulator
    alive, garbage collected): counted by ``tracemalloc``, so neither the
    allocator's arenas nor the host's page size is in the number."""
    config = fig5_efficiency.Config()
    cell = dataclasses.replace(
        fig5_efficiency.grid(config)[config.schemes.index("bcpqp")],
        horizon=horizon,
    )
    tracemalloc.start()
    try:
        sim = Simulator()
        limiter, scenario = build_scenario(cell, sim)
        scenario.run()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(
        stat.size
        for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, _SRC + "*")]
        ).statistics("filename")
    )
    nbins, _ = bin_layout(cell.window, cell.warmup, horizon)
    return _show(f"held horizon={horizon}", bytes=held,
                 arrived_packets=limiter.stats.arrived_packets,
                 cells=nbins * len(cell.specs))


def test_memory_held_is_flat_in_the_horizon():
    # Twice the horizon delivers twice the packets; what a run keeps may
    # grow by the bins that cover the extra seconds (8 bytes a cell),
    # nothing else.  The slack is for what happens to be in flight at the
    # last instant and sitting in CPython's free lists, which moves the
    # count by up to ~30 KB either way; five list slots and two boxed
    # numbers per delivered packet grew it 971 184 bytes over these same
    # 5 s (EXPERIMENTS.md).
    short, long = _held_bytes(5.0), _held_bytes(10.0)
    assert long["arrived_packets"] > 1.9 * short["arrived_packets"]
    bins_added = 8 * (long["cells"] - short["cells"])
    assert long["bytes"] - short["bytes"] <= bins_added + 64 * 1024


# ----------------------------------------------------------------------
# Event engine: the simulator's own counters against the old engine
# ----------------------------------------------------------------------

#: Pre-overhaul engine metrics on the fig5 saturated workload (default
#: 12 s horizon), measured at the commit preceding the event-engine
#: overhaul.  Only counters are kept: a deterministic simulation makes
#: them machine-independent.
PRE_PR_EVENTLOOP = {
    "bcpqp": {
        "arrived_packets": 35550,
        "events_per_packet": 2.2632,
        "heap_pushes_per_packet": 3.6866,
    },
    "pqp": {
        "arrived_packets": 40324,
        "events_per_packet": 2.1983,
        "heap_pushes_per_packet": 3.5110,
    },
    "shaper": {
        "arrived_packets": 28250,
        "events_per_packet": 2.9604,
        "heap_pushes_per_packet": 4.7295,
    },
    "policer": {
        "arrived_packets": 37827,
        "events_per_packet": 2.3015,
        "heap_pushes_per_packet": 3.5965,
    },
}

#: What the counters above are proxies for: ``line`` events under
#: ``src/repro/`` per arrived packet over the cell's whole
#: ``scenario.run()``.  A ``_try_send`` that takes one pass per packet
#: sent and an ``offer`` that is the whole admit decision in one frame
#: read 355.2 / 331.8 / 357.1 / 298.1 (limits ~1% above); a second pass
#: after every paced send and an ``offer`` that calls ``length``,
#: ``_repost`` and ``rate_of`` 380.0 / 355.4 / 368.1 / 316.6; a
#: ``Packet`` that still carried the ACK variant and a uid 390.7 / 366.1
#: / 379.0 / 327.3; an ACK built as
#: a ``Packet`` and the pacing rate priced on every ``_try_send`` entry
#: 405.9 / 380.0 / 400.0 / 342.2, entering the limiter as a one-element batch, counting every
#: event and pacing on a ``Timer`` 445.5 / 414.7 / 430.8 / 381.4,
#: collecting the admitted packets and forwarding them in one batch call
#: 465.4 / 433.2 / 431.6 / 400.2, appending every delivered packet to a
#: ``Trace`` 471.6 / 439.2 / 434.3 / 405.9, and a private FIFO and a
#: batching drain per pipe 524.0 / 487.9 / 497.9 / 449.5 (EXPERIMENTS.md).
LINES_PER_PACKET_LIMIT = {"bcpqp": 359, "pqp": 335, "shaper": 361, "policer": 302}

#: Lines under ``src/repro/sim/`` per fired event of a self-rearming
#: chain (``_chain_lines``): 10.0 and 28.0 today, limits ~1% above.
LINES_PER_EVENT_LIMIT = {"schedule": 10.1, "timer": 28.3}


def _eventloop_cell(scheme: str) -> dict:
    """One saturated fig5 cell end to end, read off the engine."""
    config = fig5_efficiency.Config()
    cell = fig5_efficiency.grid(config)[config.schemes.index(scheme)]
    sim = Simulator()
    limiter, scenario = build_scenario(cell, sim)
    with _src_lines() as steps:
        scenario.run()
    packets = limiter.stats.arrived_packets
    return _show(
        f"eventloop {scheme}",
        arrived_packets=packets,
        events_per_packet=round(sim.events_processed / packets, 4),
        heap_pushes_per_packet=round(sim.heap_pushes / packets, 4),
        peak_heap_size=sim.peak_heap_size,
        lines_per_packet=round(steps.lines / packets, 4),
    )


def _eventloop_failures(scheme: str, cell: dict) -> list[str]:
    """What ``cell`` gives back of the overhaul: heap pushes/packet must
    stay >= 1.5x below the old engine on bcpqp (>= 1.3x elsewhere),
    events/packet within 5% of it (soft-timer stale wakes may add a
    little), and the cost itself — lines/packet — under its pin.  Peak
    heap is printed, not gated: it counts packets in flight, and nothing
    cancelled can sit in the heap."""
    pre = PRE_PR_EVENTLOOP[scheme]
    failures = []
    floor = 1.5 if scheme == "bcpqp" else 1.3
    if pre["heap_pushes_per_packet"] < floor * cell["heap_pushes_per_packet"]:
        failures.append("heap pushes")
    if cell["events_per_packet"] > 1.05 * pre["events_per_packet"]:
        failures.append("events")
    if cell["lines_per_packet"] > LINES_PER_PACKET_LIMIT[scheme]:
        failures.append("lines")
    return failures


def _chain_lines(kind: str, events: int) -> int:
    """Lines under ``src/repro/sim/`` for a chain of ``events`` events,
    each armed from the callback of the one before it (heap depth 1):
    push, pop and dispatch, with nothing of the packet path in between."""
    sim = Simulator()
    left = events

    def tick() -> None:
        nonlocal left
        left -= 1
        if left:
            rearm()

    if kind == "schedule":
        rearm = functools.partial(sim.schedule, 1e-3, tick)
    else:
        rearm = functools.partial(Timer(sim, tick).schedule_after, 1e-3)
    with _sim_lines() as steps:
        rearm()
        sim.run()
    assert sim.events_processed == events
    return steps.lines


@pytest.fixture(scope="module")
def eventloop():
    return {scheme: _eventloop_cell(scheme) for scheme in PRE_PR_EVENTLOOP}


class TestEventloopSmoke:
    def test_deterministic_gates_pass(self, eventloop):
        for scheme, cell in eventloop.items():
            assert _eventloop_failures(scheme, cell) == [], scheme

    @pytest.mark.parametrize("scheme", PRE_PR_EVENTLOOP)
    def test_workload_unchanged_vs_pre_overhaul(self, eventloop, scheme):
        # Same packets arrived => today's engine runs the *same*
        # simulation, so the per-packet counter ratios are meaningful.
        assert (
            eventloop[scheme]["arrived_packets"]
            == PRE_PR_EVENTLOOP[scheme]["arrived_packets"]
        )

    @pytest.mark.parametrize("kind", LINES_PER_EVENT_LIMIT)
    def test_lines_per_event(self, kind):
        # The counters above gate how many events a packet costs; this
        # gates what one event costs.  An event is a heap tuple and the
        # run loop counts nothing per event, so a fired `schedule` is 10
        # lines and a `Timer` tick 28; with a per-event counter and
        # budget test in the loop they read 17 and 35, and with a handle
        # object per event, a free list and a cancelled-entry scan at the
        # top of the run loop 33 and 52 (EXPERIMENTS.md).
        small, big = _chain_lines(kind, 1_000), _chain_lines(kind, 10_000)
        per_event = _show(f"eventloop {kind} chain events=10000",
                          lines=round(big / 10_000, 4))["lines"]
        assert per_event <= LINES_PER_EVENT_LIMIT[kind]
        # Every event costs the same: the count is k * events + c.
        assert (big - small) / 9_000 == round(per_event)

    def test_check_flags_regressions(self):
        # A cell that regressed back to pre-overhaul heap traffic, at the
        # lines/packet of the per-pipe FIFO drains.
        regressed = dict(PRE_PR_EVENTLOOP["bcpqp"], lines_per_packet=524.0257)
        assert _eventloop_failures("bcpqp", regressed) == [
            "heap pushes", "lines",
        ]
