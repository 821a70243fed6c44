"""Simulator event-loop microbenchmarks (events/sec).

These time the discrete-event core itself, independent of any TCP or
limiter logic: a self-rescheduling timer chain (the pure pop/push cycle),
a fan of interleaved timers (deep heap, realistic sift costs), and a
cancellation-heavy mix (lazy-deletion sweep cost).  ``benchmarks/report.py``
converts the same workloads into an events/sec figure for
``BENCH_fig5.json``.

``run_eventloop_cell`` is the event-engine section's workload: one
saturated fig5 cell run end-to-end, reporting the engine's own counters
(events/packet, heap pushes/packet, peak heap size) plus wall us/packet.
``report.py`` turns it into ``BENCH_eventloop.json`` and its ``--check``
regression gate.
"""

import dataclasses
import time

from repro.sim.simulator import Simulator
from repro.sim.timer import Timer

CHAIN_EVENTS = 20_000
FAN_TIMERS = 64
FAN_EVENTS = 20_000
CANCEL_EVENTS = 20_000
RESCHEDULE_EVENTS = 20_000

#: The schemes measured by the event-engine section (fig5 grid order).
EVENTLOOP_SCHEMES = ("bcpqp", "pqp", "shaper", "policer")


def run_timer_chain(n: int = CHAIN_EVENTS) -> int:
    """One self-rescheduling timer: the minimal pop/push/fire cycle."""
    sim = Simulator()
    remaining = n

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining:
            sim.schedule(1e-4, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return sim.events_processed


def run_timer_fan(n: int = FAN_EVENTS, timers: int = FAN_TIMERS) -> int:
    """Many interleaved periodic timers: a deep heap with real sift work."""
    sim = Simulator()
    remaining = n

    def tick(period: float) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sim.schedule(period, tick, period)

    for i in range(timers):
        # Distinct, non-harmonic periods keep the heap order non-trivial.
        sim.schedule(0.0, tick, 1e-4 * (1 + i / timers))
    sim.run()
    return sim.events_processed


def run_cancel_mix(n: int = CANCEL_EVENTS) -> int:
    """Schedule-then-cancel half the events: the lazy-deletion sweep."""
    sim = Simulator()
    remaining = n

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        doomed = sim.schedule(2e-4, tick)
        sim.cancel(doomed)
        if remaining:
            sim.schedule(1e-4, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return sim.events_processed


def run_soft_reschedule(n: int = RESCHEDULE_EVENTS) -> int:
    """The per-ACK pattern soft timers optimize: a timer pushed out on
    every event, firing only occasionally.  Under cancel+push engines
    this is 2 heap ops per tick; a soft timer makes it ~0."""
    sim = Simulator()
    remaining = n
    rto = Timer(sim, lambda: None)

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        rto.schedule_after(1.0)  # pushed out again before it ever fires
        if remaining:
            sim.schedule(1e-4, tick)

    sim.schedule(0.0, tick)
    sim.run(until=n * 1e-4 + 1e-3)
    return n - remaining


def run_eventloop_cell(scheme: str, horizon: float | None = None) -> dict:
    """One saturated fig5 cell end-to-end, instrumented by the engine's
    own counters.  Deterministic except for ``wall_seconds``."""
    from repro.experiments import fig5_efficiency
    from repro.runner.aggregate import build_scenario

    config = fig5_efficiency.Config()
    if horizon is not None:
        config = dataclasses.replace(config, horizon=horizon)
    cell = fig5_efficiency.grid(config)[
        list(fig5_efficiency.SCHEMES).index(scheme)
    ]
    sim = Simulator()
    limiter, scenario = build_scenario(cell, sim)
    start = time.perf_counter()
    scenario.run()
    wall = time.perf_counter() - start
    packets = limiter.stats.arrived_packets
    return {
        "arrived_packets": packets,
        "events_per_packet": round(sim.events_processed / packets, 4),
        "heap_pushes_per_packet": round(sim.heap_pushes / packets, 4),
        "peak_heap_size": sim.peak_heap_size,
        "cancelled_backlog_hwm": sim.cancelled_backlog_hwm,
        "inline_advances": sim.inline_advances,
        "batched_deliveries": sim.batched_deliveries,
        "wall_seconds": wall,
        "us_per_packet": round(wall / packets * 1e6, 2),
    }


def test_sim_timer_chain(benchmark):
    assert benchmark(run_timer_chain) == CHAIN_EVENTS


def test_sim_timer_fan(benchmark):
    # Timers already in the heap when the budget hits zero still fire.
    assert benchmark(run_timer_fan) == FAN_EVENTS + FAN_TIMERS - 1


def test_sim_cancel_mix(benchmark):
    assert benchmark(run_cancel_mix) == CANCEL_EVENTS


def test_sim_soft_reschedule(benchmark):
    assert benchmark(run_soft_reschedule) == RESCHEDULE_EVENTS
