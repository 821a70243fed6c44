"""Machine-readable performance report: ``python benchmarks/report.py``.

Writes ``BENCH_fig5.json`` next to this file (or to ``--output``) with
three sections:

* ``modeled_cycles_per_packet`` — the Figure 5 metric: the operation-level
  cost model accumulated over a scaled-down §6.1 run, per scheme;
* ``hot_path`` — real wall-clock seconds per packet through each
  limiter's ``receive()`` hot path (median of ``--rounds`` batches);
* ``simulator`` — event-loop throughput (events/sec) on the three
  ``bench_sim_core`` workloads.

A second file, ``BENCH_scaling.json``, records the ``scaling`` section:
wall seconds/packet and modeled cycles/packet for PQP and BC-PQP at
N ∈ {1, 10, 100, 1000, 10000} aggregates — the Figure 5 flatness claim
applied to our own hot path — plus a policy-rich cell (BC-PQP over a
256-queue, 16-group, two-priority tree with a churning active set), the
same scheme over 4 / 64 / 1024 four-leaf classes of which two carry
traffic (what idle classes cost), and the shaper at 10 / 100 / 1000
queues (enqueue + DRR dequeue per packet).

A third file, ``BENCH_eventloop.json``, records the event-engine
section: each fig5 saturated cell run end-to-end with the simulator's
own counters (events/packet, heap pushes/packet, peak heap size,
cancelled-backlog high-water mark) plus wall us/packet (informational),
and the counter ratios against the pinned pre-overhaul engine
(``PRE_PR_EVENTLOOP``).

A fourth file, ``BENCH_impair.json``, records the impairment-machinery
section (:mod:`repro.net.impair`): one bcpqp aggregate run three ways —
clean (``impair=None``), with an all-disabled ``ImpairmentSpec()`` (which
must produce a byte-identical outcome: the disabled machinery constructs
nothing and draws no randomness), and with loss+jitter actually enabled
(informational cost of the gates).  Clean and disabled cells are timed
interleaved with per-side minimums; ``--check`` gates the
disabled/clean wall ratio at ``IMPAIR_MAX_OVERHEAD`` (1.05) and fails
hard if the outcomes differ at all.

A fifth file, ``BENCH_churn.json``, records the live-reconfiguration
section (:mod:`repro.churn`): one bcpqp aggregate run clean
(``churn=None``) and with an empty ``ChurnPlan()`` (which must produce a
byte-identical outcome: the empty plan constructs no driver and
schedules nothing), timed interleaved with per-side minimums and gated
at ``CHURN_MAX_OVERHEAD`` (1.05); an informational churned cell (a
drawn plan actually mutating the limiter mid-run); and an
``apply_update`` throughput microbench — transactional weight updates
committed against a loaded limiter, gated at
``CHURN_MIN_UPDATES_PER_S`` applied/sec.

A sixth file, ``BENCH_fleet.json``, records the sharded-fleet section
(:mod:`repro.fleet`): full end-to-end fleet runs (TCP endpoints, a
middlebox hosting one limiter per aggregate, merged columnar metrics)
at N=1000 unsharded (the baseline), N=1000 over 4 shards (whose merged
digest must be byte-identical to the baseline's — the shard-count
invariance gate), and N=4000 over 4 shards (whose summed-CPU us/packet
is gated against the baseline, both measured in this run).  The big run
(10^5 aggregates over 100 shards, EXPERIMENTS.md records its digest) is
not part of ``--check``: ``--fleet-headline 100000`` runs it and adds it
to the section as a ``headline`` cell.

``--check`` runs only those sections and exits non-zero if (a)
seconds/packet at N=1000 exceeds ``--check-multiple`` (default 3.0)
times the N=10 value, or N=10000 exceeds the same multiple of N=100 —
the guard for the virtual-time drain staying O(log N) — or the
nested-tree cell exceeds ``NESTED_MAX_MULTIPLE`` (2.5) times the same
run's flat bcpqp N=100 cell, or the 1024-class idle-class row exceeds
``IDLE_MAX_MULTIPLE`` (2) times the 4-class row, or the shaper's N=1000
row exceeds ``SHAPER_MAX_MULTIPLE`` (2.5) times its N=10 row — or the churn
gates fail: the empty-plan outcome must equal the clean outcome
byte-for-byte at <= 1.05x its wall clock, and update throughput must
hold the floor — or (b) the
event-engine gates fail: heap pushes/packet must stay >= 1.5x below the
pre-overhaul engine on bcpqp (>= 1.3x elsewhere), and events/packet and
peak heap must not creep back up (machine-independent counters only: no
gate compares a wall clock with one committed from another box) — or (c) the
impairment gates fail: the
disabled-spec outcome must equal the clean outcome byte-for-byte and
cost at most 5% extra wall clock — or (d) the fleet gates fail: the sharded
N=1000 digest must equal the unsharded baseline's, shard-scaling
efficiency (baseline us/packet over sharded-4x-fleet us/packet, both in
summed-CPU terms) must stay >= --check-min-efficiency (default 0.7).

The JSON is the stable interface for tracking this repository's
performance over time; the pytest-benchmark suite asserts the qualitative
shapes, this report records the raw numbers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))
sys.path.insert(0, str(_REPO_ROOT / "benchmarks"))

import bench_sim_core  # noqa: E402

from repro.churn import ChurnPlan, PolicyUpdate, draw_plan  # noqa: E402
from repro.experiments import fig5_efficiency  # noqa: E402
from repro.experiments.fleet_scale import as_json as fleet_cell_json  # noqa: E402
from repro.classify.classifier import SlotClassifier  # noqa: E402
from repro.core.bcpqp import BCPQP  # noqa: E402
from repro.fleet import FleetSpec, run_fleet  # noqa: E402
from repro.net.impair import ImpairmentSpec  # noqa: E402
from repro.net.packet import FlowId, Packet  # noqa: E402
from repro.net.sink import NullSink  # noqa: E402
from repro.policy.tree import Policy  # noqa: E402
from repro.runner.aggregate import AggregateConfig, simulate_aggregate  # noqa: E402
from repro.runner.supervisor import session_stats  # noqa: E402
from repro.workload.spec import FlowSpec  # noqa: E402
from repro.schemes import make_limiter  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.units import MSS, gbps, mbps, ms  # noqa: E402

HOT_PATH_SCHEMES = ("policer", "fairpolicer", "pqp", "bcpqp", "shaper")
BATCH = 1000

#: The scaling sweep: phantom schemes across aggregate counts.
SCALING_SCHEMES = ("pqp", "bcpqp")
SCALING_NS = (1, 10, 100, 1000, 10000)

#: The shaper's rows of the sweep: queue counts, and the most N=1000 may
#: cost as a multiple of N=10 in the same run.  Each batch spreads
#: ``BATCH`` arrivals round-robin over the queues and then runs the
#: simulator until they are served, so at N=1000 every packet is also an
#: empty -> occupied -> empty transition of its queue — the scheduler's
#: worst case.  Occupancy-tracked DRR measures ~1.4x (4.2 -> 5.9
#: us/packet); the stateless head-list scan it replaced measured ~300x
#: on the same box (17 -> 5200 us/packet: its idle reset was O(N^2)).
SHAPER_NS = (10, 100, 1000)
SHAPER_MAX_MULTIPLE = 2.5

#: The policy-rich scaling cell: bcpqp over a two-level tree whose
#: occupied set keeps changing (the ``openloop_bcpqp`` suite workload's
#: shape).  1.2x a 1 Gbps rate arrives in same-instant ticks of ``burst``
#: packets spread over ``active`` of the ``queues`` queues; the active
#: draw is replaced on ``redraw`` of the ticks, so queues keep filling
#: from empty and draining out and BC-PQP reads ``r*_i`` against an
#: ever-new active set.
NESTED_CELL = {
    "queues": 256, "groups": 16, "active": 64, "redraw": 0.01,
    "burst": 32, "ticks": 320, "queue_mss": 64,
}

#: The nested cell's seconds/packet may be at most this multiple of the
#: flat bcpqp N=100 cell's, both measured in this run.  Reading shares
#: off the GPS engine measures ~1.5x (up to 9 served classes to sync
#: instead of 1, and a queue fills from empty or drains out on four
#: packets in five); a per-active-set share memo (O(N) walk and N-tuple
#: per miss) plus a global slope recompute measured 4.5-5.6x.
NESTED_MAX_MULTIPLE = 2.5

#: The idle-class rows: bcpqp over ``classes`` equal classes of
#: ``leaves`` queues each, 1.2x a 1 Gbps rate arriving one packet per
#: instant round-robin over the queues of the first ``live`` classes.
#: Every other class stays empty, so the rows differ only in how many
#: idle classes the tree carries.
IDLE_CLASS_CELL = {"leaves": 4, "live": 2, "queue_mss": 64}
IDLE_CLASS_COUNTS = (4, 64, 1024)

#: The 1024-class row may cost at most this multiple of the 4-class row
#: of the same run.  A drain that walks the served classes measures
#: ~1.0x (4.1 -> 4.0 us/packet); one that walks every internal node per
#: advance measured ~7x on the same box (4.5 -> 31.6 us/packet).
IDLE_MAX_MULTIPLE = 2.0

#: Pre-overhaul engine metrics on the fig5 saturated workload (default
#: 12 s horizon), measured at the commit preceding the event-engine
#: overhaul.  Only the per-packet counters are kept: they are
#: machine-independent (deterministic simulation), which a wall clock
#: measured on that box is not.
PRE_PR_EVENTLOOP = {
    "bcpqp": {
        "arrived_packets": 35550,
        "events_per_packet": 2.2632,
        "heap_pushes_per_packet": 3.6866,
        "peak_heap_size": 856,
    },
    "pqp": {
        "arrived_packets": 40324,
        "events_per_packet": 2.1983,
        "heap_pushes_per_packet": 3.5110,
        "peak_heap_size": 2350,
    },
    "shaper": {
        "arrived_packets": 28250,
        "events_per_packet": 2.9604,
        "heap_pushes_per_packet": 4.7295,
        "peak_heap_size": 867,
    },
    "policer": {
        "arrived_packets": 37827,
        "events_per_packet": 2.3015,
        "heap_pushes_per_packet": 3.5965,
        "peak_heap_size": 654,
    },
}


#: Allowed wall-clock ratio of the disabled-``ImpairmentSpec()`` run
#: over the clean ``impair=None`` run.  The disabled path constructs no
#: gates and draws no randomness — its only cost is a couple of ``None``
#: checks at wiring time — so anything past 5% is machinery leaking into
#: the per-packet path.
IMPAIR_MAX_OVERHEAD = 1.05

#: The impairment section's enabled cell: moderate i.i.d. loss plus
#: delay jitter — both per-packet gates on the data path, so the cell
#: prices the *active* machinery, not just its absence.
IMPAIR_ENABLED_SPEC = ImpairmentSpec(loss=0.01, jitter=0.002)

#: Allowed wall-clock ratio of the empty-``ChurnPlan()`` run over the
#: clean ``churn=None`` run.  An empty plan constructs no driver and
#: schedules no timer — anything past 5% is churn machinery leaking
#: into the churn-free path.
CHURN_MAX_OVERHEAD = 1.05

#: Floor on transactional ``apply_update`` throughput (weight updates
#: committed per wall second against a loaded bcpqp limiter).  Each
#: commit settles the drain, rebuilds the GPS engine and re-seeds the
#: virtual clocks; the microbench runs well above 10k/s on the
#: reference box, so 1000/s catches an order-of-magnitude regression
#: without flaking on slow CI.
CHURN_MIN_UPDATES_PER_S = 1000.0

#: The churned cell's plan size (informational cell: a drawn plan
#: actually mutating weights/priorities/capacities mid-run).
CHURN_PLAN_ACTIONS = 40

#: Fleet-section cells (full end-to-end sims: TCP endpoints, middlebox,
#: one limiter per aggregate, merged columnar metrics).  The baseline is
#: unsharded; the invariance cell re-runs the same fleet over 4 shards
#: and must merge to a byte-identical digest; the scaled cell quadruples
#: the population across 4 shards and gates the summed-CPU us/packet.
FLEET_SEED = 1
FLEET_BASELINE = {"aggregates": 1000, "shards": 1}
FLEET_INVARIANCE = {"aggregates": 1000, "shards": 4}
FLEET_SCALED = {"aggregates": 4000, "shards": 4}

#: Shard-scaling efficiency floor: baseline us/packet over the scaled
#: cell's us/packet (both summed-CPU, so the gate is meaningful on a
#: single-core box).  Sharding exists to keep per-packet cost flat as
#: the population grows; 0.7 allows for per-shard bookkeeping overhead
#: without letting a superlinear regression back in.
FLEET_MIN_EFFICIENCY = 0.7


def modeled_cycles() -> dict[str, float]:
    """Figure 5's cost-model numbers from a scaled-down run."""
    result = fig5_efficiency.run(fig5_efficiency.Config(horizon=8.0, warmup=2.0))
    return {s: round(c, 2) for s, c in result.cycles_per_packet.items()}


def _hot_path_batch(scheme: str):
    """A closure pushing one batch of packets through ``scheme``."""
    sim = Simulator()
    limiter = make_limiter(sim, scheme, rate=mbps(50), num_queues=4,
                           max_rtt=ms(50))
    limiter.connect(NullSink())
    flows = [FlowId(0, i) for i in range(4)]
    counter = itertools.count()
    is_shaper = scheme == "shaper"

    def process_batch() -> None:
        base = next(counter) * BATCH
        for i in range(BATCH):
            if not is_shaper:
                sim._now = (base + i) * 2e-5  # 50k pkt/s arrival clock
            limiter.receive(Packet.data(flows[i % 4], base + i, sim.now))
        if is_shaper:
            sim.run(until=sim.now + 0.02)

    return process_batch


def hot_path_seconds_per_packet(rounds: int) -> dict[str, float]:
    """Median wall seconds per packet through each limiter."""
    out = {}
    for scheme in HOT_PATH_SCHEMES:
        batch = _hot_path_batch(scheme)
        batch()  # warm up caches and lazy construction
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            batch()
            samples.append((time.perf_counter() - start) / BATCH)
        out[scheme] = statistics.median(samples)
    return out


def _scaling_cell(scheme: str, n: int, rounds: int) -> dict[str, float]:
    """Seconds/packet and modeled cycles/packet at ``n`` aggregates."""
    sim = Simulator()
    limiter = make_limiter(sim, scheme, rate=mbps(50), num_queues=n,
                           max_rtt=ms(50))
    limiter.connect(NullSink())
    flows = [FlowId(0, i) for i in range(n)]
    counter = itertools.count()
    is_shaper = scheme == "shaper"

    def process_batch() -> None:
        base = next(counter) * BATCH
        for i in range(BATCH):
            if not is_shaper:
                sim._now = (base + i) * 2e-5  # 50k pkt/s arrival clock
            limiter.receive(Packet.data(flows[(base + i) % n], base + i,
                                        sim.now))
        if is_shaper:
            # Dequeues fire on the shaper's own timers: serve the batch.
            sim.run(until=sim.now + BATCH * MSS / limiter.rate)

    return _time_batches(limiter, process_batch, rounds)


def _time_batches(limiter, process_batch, rounds: int) -> dict[str, float]:
    """One warm-up batch (queues activate, windows start), then the
    median seconds/packet of ``rounds`` timed ``BATCH``-packet batches."""
    process_batch()
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        process_batch()
        samples.append((time.perf_counter() - start) / BATCH)
    return {
        "seconds_per_packet": statistics.median(samples),
        "modeled_cycles_per_packet": round(
            limiter.cost.cycles_per_packet(limiter.stats.arrived_packets), 2
        ),
    }


def _nested_cell(rounds: int) -> dict[str, float]:
    """Seconds/packet and modeled cycles/packet on :data:`NESTED_CELL`."""
    cell = NESTED_CELL
    queues, groups, burst = cell["queues"], cell["groups"], cell["burst"]
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
        queue_bytes=float(cell["queue_mss"] * MSS),
    )
    limiter.connect(NullSink())
    packets = [Packet.data(FlowId(0, q), 0, 0.0) for q in range(queues)]
    gap = burst * MSS / (rate * 1.2)
    live = rng.sample(range(queues), cell["active"])
    tick = 0

    def draw_round() -> list[tuple[float, list[Packet]]]:
        nonlocal live, tick
        schedule = []
        for _ in range(cell["ticks"]):
            if rng.random() < cell["redraw"]:
                live = rng.sample(range(queues), cell["active"])
            picks = rng.choices(live, k=burst)
            schedule.append((tick * gap, [packets[q] for q in picks]))
            tick += 1
        return schedule

    def process(schedule: list[tuple[float, list[Packet]]]) -> None:
        for now, arrivals in schedule:
            sim._now = now
            for packet in arrivals:
                limiter.receive(packet)

    process(draw_round())  # warm up: queues fill, windows start
    samples = []
    for _ in range(rounds):
        schedule = draw_round()
        start = time.perf_counter()
        process(schedule)
        samples.append((time.perf_counter() - start) / (cell["ticks"] * burst))
    return {
        "seconds_per_packet": statistics.median(samples),
        "modeled_cycles_per_packet": round(
            limiter.cost.cycles_per_packet(limiter.stats.arrived_packets), 2
        ),
    }


def _idle_class_cell(classes: int, rounds: int) -> dict[str, float]:
    """Seconds/packet and modeled cycles/packet with ``classes`` classes
    in the tree and :data:`IDLE_CLASS_CELL` ``live`` of them loaded."""
    cell = IDLE_CLASS_CELL
    leaves = cell["leaves"]
    policy = Policy.nested([[1.0] * leaves for _ in range(classes)])
    rate = gbps(1)
    sim = Simulator()
    limiter = BCPQP(
        sim, rate=rate, policy=policy,
        classifier=SlotClassifier(classes * leaves),
        queue_bytes=float(cell["queue_mss"] * MSS),
    )
    limiter.connect(NullSink())
    packets = [
        Packet.data(FlowId(0, q), 0, 0.0) for q in range(cell["live"] * leaves)
    ]
    gap = MSS / (rate * 1.2)
    counter = itertools.count()

    def process_batch() -> None:
        base = next(counter) * BATCH
        for i in range(base, base + BATCH):
            sim._now = i * gap
            limiter.receive(packets[i % len(packets)])

    return _time_batches(limiter, process_batch, rounds)


def scaling_section(rounds: int, ns: tuple[int, ...] = SCALING_NS) -> dict:
    """The drain-scalability sweep: PQP/BC-PQP across aggregate counts,
    plus the policy-rich nested-tree cell and the idle-class rows."""
    schemes = {
        scheme: {str(n): _scaling_cell(scheme, n, rounds) for n in ns}
        for scheme in SCALING_SCHEMES
    }
    schemes["shaper"] = {
        str(n): _scaling_cell("shaper", n, rounds)
        for n in SHAPER_NS if n in ns
    }
    nested = {**NESTED_CELL, **_nested_cell(rounds)}
    flat = schemes["bcpqp"].get("100")
    if flat is not None:
        nested["multiple_of_flat_100"] = round(
            nested["seconds_per_packet"] / flat["seconds_per_packet"], 3
        )
    idle_rows = {
        str(classes): _idle_class_cell(classes, rounds)
        for classes in IDLE_CLASS_COUNTS
    }
    small, big = (idle_rows[str(c)] for c in (IDLE_CLASS_COUNTS[0],
                                              IDLE_CLASS_COUNTS[-1]))
    return {
        "unit": "seconds/packet, modeled cycles/packet",
        "batch_packets": BATCH,
        "aggregates": list(ns),
        "schemes": schemes,
        "nested": nested,
        "idle_classes": {
            **IDLE_CLASS_CELL,
            "classes": idle_rows,
            "multiple_of_fewest": round(
                big["seconds_per_packet"] / small["seconds_per_packet"], 3
            ),
        },
    }


def check_scaling(scaling: dict, multiple: float) -> list[str]:
    """Regression check: seconds/packet across two decades of N.

    Two gates per scheme, each spanning a 100x aggregate-count jump:
    N=1000 vs ``multiple`` x N=10, and N=10000 vs ``multiple`` x N=100.
    The nested-tree cell is gated against the same run's flat bcpqp
    N=100 cell at :data:`NESTED_MAX_MULTIPLE`, the 1024-class idle-class
    row against the 4-class row at :data:`IDLE_MAX_MULTIPLE`, and the
    shaper's N=1000 row against its N=10 row at
    :data:`SHAPER_MAX_MULTIPLE`.
    """
    failures = []
    ratio = scaling.get("idle_classes", {}).get("multiple_of_fewest")
    if ratio is not None and ratio > IDLE_MAX_MULTIPLE:
        failures.append(
            f"bcpqp with {IDLE_CLASS_COUNTS[-1]} classes in the tree costs "
            f"{ratio}x the {IDLE_CLASS_COUNTS[0]}-class row for the same "
            f"traffic (limit {IDLE_MAX_MULTIPLE}x)"
        )
    ratio = scaling.get("nested", {}).get("multiple_of_flat_100")
    if ratio is not None and ratio > NESTED_MAX_MULTIPLE:
        failures.append(
            f"bcpqp nested-tree cell costs {ratio}x the flat N=100 cell "
            f"(limit {NESTED_MAX_MULTIPLE}x)"
        )
    for scheme, per_n in scaling["schemes"].items():
        for small, big in (("10", "1000"), ("100", "10000")):
            base = per_n.get(small)
            top = per_n.get(big)
            if base is None or top is None:
                continue
            base_s = base["seconds_per_packet"]
            top_s = top["seconds_per_packet"]
            limit = SHAPER_MAX_MULTIPLE if scheme == "shaper" else multiple
            if top_s > limit * base_s:
                failures.append(
                    f"{scheme}: {top_s:.3e} s/pkt at N={big} exceeds "
                    f"{limit}x the N={small} value ({base_s:.3e})"
                )
    return failures


def eventloop_section(horizon: float | None = None) -> dict:
    """The event-engine section: fig5 cells measured by engine counters.

    One run per scheme suffices — every number except ``wall_seconds``
    comes from the deterministic simulation itself, and reading the
    counters afterwards costs the timed run nothing.
    """
    schemes = {}
    for scheme in bench_sim_core.EVENTLOOP_SCHEMES:
        cell = bench_sim_core.run_eventloop_cell(scheme, horizon=horizon)
        pre = PRE_PR_EVENTLOOP.get(scheme)
        if pre is not None and horizon is None:
            cell["heap_push_reduction_vs_pre_pr"] = round(
                pre["heap_pushes_per_packet"] / cell["heap_pushes_per_packet"],
                3,
            )
        schemes[scheme] = cell
    return {
        "unit": "per-packet engine counters + wall us/packet",
        "workload": "fig5 saturated cells"
        + ("" if horizon is None else f" (horizon={horizon})"),
        "pre_pr_reference": PRE_PR_EVENTLOOP,
        "schemes": schemes,
    }


def check_eventloop(section: dict) -> list[str]:
    """Regression gates for the event-engine overhaul.

    Deterministic gates (exact on any machine): bcpqp heap pushes/packet
    reduced >= 1.5x vs the pre-overhaul engine (>= 1.3x for the other
    schemes), events/packet within 5% of the old engine (soft-timer
    stale wakes may add a little), peak heap at most a quarter of the
    old cancel-bloated depth.  The cells' wall us/packet is reported but
    not gated: the only reference for it was a clock from another box.
    """
    failures = []
    for scheme, cell in section["schemes"].items():
        pre = PRE_PR_EVENTLOOP.get(scheme)
        if pre is None:
            continue
        floor = 1.5 if scheme == "bcpqp" else 1.3
        push_ratio = pre["heap_pushes_per_packet"] / cell["heap_pushes_per_packet"]
        if push_ratio < floor:
            failures.append(
                f"{scheme}: heap pushes/packet reduced only "
                f"{push_ratio:.3f}x vs pre-overhaul (need >= {floor}x)"
            )
        if cell["events_per_packet"] > 1.05 * pre["events_per_packet"]:
            failures.append(
                f"{scheme}: events/packet {cell['events_per_packet']:.4f} "
                f"regressed past 1.05x the pre-overhaul "
                f"{pre['events_per_packet']:.4f}"
            )
        if cell["peak_heap_size"] > pre["peak_heap_size"] / 4:
            failures.append(
                f"{scheme}: peak heap {cell['peak_heap_size']} above a "
                f"quarter of the pre-overhaul {pre['peak_heap_size']}"
            )
    return failures


def _impair_config(impair: ImpairmentSpec | None) -> AggregateConfig:
    """The impair section's workload: one bcpqp aggregate, two flows."""
    return AggregateConfig(
        scheme="bcpqp",
        specs=(
            FlowSpec(slot=0, cc="reno", rtt=0.02),
            FlowSpec(slot=1, cc="cubic", rtt=0.05),
        ),
        rate=mbps(8.0),
        max_rtt=ms(100),
        horizon=4.0,
        warmup=1.0,
        seed=7,
        impair=impair,
    )


def impair_section(rounds: int) -> dict:
    """Impairment-machinery cost: clean vs disabled vs enabled.

    Clean (``impair=None``) and disabled (all-zero ``ImpairmentSpec()``)
    runs are timed interleaved with per-side minimums (the minimum is
    the estimator least disturbed by load spikes, and interleaving gives
    both sides the same load profile), and their outcomes compared for
    byte-identity: the disabled spec must wire nothing.
    The enabled cell (loss + jitter) runs once, informationally — its
    clock moves with TCP's loss response, not just gate overhead.
    """
    configs = {
        "clean": _impair_config(None),
        "disabled": _impair_config(ImpairmentSpec()),
    }
    outcomes = {}
    best: dict[str, float | None] = {"clean": None, "disabled": None}
    for _ in range(rounds):
        for name, config in configs.items():
            start = time.perf_counter()
            outcome = simulate_aggregate(config)
            elapsed = time.perf_counter() - start
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed
            outcomes[name] = outcome
    enabled_start = time.perf_counter()
    enabled = simulate_aggregate(_impair_config(IMPAIR_ENABLED_SPEC))
    enabled_seconds = time.perf_counter() - enabled_start
    identical = outcomes["clean"] == outcomes["disabled"]
    return {
        "unit": "wall seconds per run (min of interleaved rounds)",
        "workload": "bcpqp aggregate, 2 flows, 8 Mbps, 4 s horizon",
        "rounds": rounds,
        "outcomes_identical": identical,
        "clean_seconds": round(best["clean"], 4),
        "disabled_seconds": round(best["disabled"], 4),
        "disabled_overhead_ratio": round(best["disabled"] / best["clean"], 4),
        "enabled": {
            "spec": {"loss": IMPAIR_ENABLED_SPEC.loss,
                     "jitter": IMPAIR_ENABLED_SPEC.jitter},
            "seconds": round(enabled_seconds, 4),
            "drop_rate": round(enabled.drop_rate, 4),
            "arrived_packets": enabled.arrived_packets,
        },
    }


def check_impair(
    section: dict, *, max_overhead: float = IMPAIR_MAX_OVERHEAD
) -> list[str]:
    """Acceptance gates for the impairment machinery.

    Deterministic gate (exact on any machine): the all-disabled spec's
    outcome must be byte-identical to the clean run's.  Wall gate
    (same-machine clocks, both sides measured interleaved in this run):
    the disabled spec may cost at most ``max_overhead`` x the clean run.
    """
    failures = []
    if not section["outcomes_identical"]:
        failures.append(
            "impair: disabled ImpairmentSpec() outcome differs from the "
            "clean impair=None run — disabled machinery is not inert"
        )
    ratio = section["disabled_overhead_ratio"]
    if ratio > max_overhead:
        failures.append(
            f"impair: disabled-spec wall overhead {ratio:.4f}x above the "
            f"{max_overhead}x ceiling (clean {section['clean_seconds']}s, "
            f"disabled {section['disabled_seconds']}s)"
        )
    return failures


def _churn_config(plan: ChurnPlan | None) -> AggregateConfig:
    """The churn section's workload: one bcpqp aggregate, two flows."""
    return AggregateConfig(
        scheme="bcpqp",
        specs=(
            FlowSpec(slot=0, cc="reno", rtt=0.02),
            FlowSpec(slot=1, cc="cubic", rtt=0.05),
        ),
        rate=mbps(8.0),
        max_rtt=ms(100),
        horizon=4.0,
        warmup=1.0,
        seed=7,
        churn=plan,
    )


def _apply_throughput() -> dict:
    """Transactional-update throughput against a loaded limiter.

    Warms a bcpqp limiter with traffic so every commit migrates real
    state (occupied phantoms, live GPS clocks), then times a tight loop
    of alternating weight updates — each one a full validate + settle +
    engine-rebuild + clock-reseed transaction.
    """
    sim = Simulator()
    limiter = make_limiter(sim, "bcpqp", rate=mbps(50), num_queues=4,
                           max_rtt=ms(50))
    limiter.connect(NullSink())
    flows = [FlowId(0, i) for i in range(4)]
    for i in range(2000):
        sim._now = i * 2e-5
        limiter.receive(Packet.data(flows[i % 4], i, sim.now))
    rng = random.Random(7)
    updates = [
        PolicyUpdate(weights=tuple(float(rng.randint(1, 4)) for _ in range(4)))
        for _ in range(16)
    ]
    n = 2000
    start = time.perf_counter()
    for i in range(n):
        sim._now += 1e-5
        limiter.apply_update(updates[i % len(updates)])
    elapsed = time.perf_counter() - start
    return {
        "updates": n,
        "seconds": round(elapsed, 4),
        "updates_per_second": round(n / elapsed, 1),
    }


def churn_section(rounds: int) -> dict:
    """Live-reconfiguration cost: clean vs empty-plan vs churned.

    Clean (``churn=None``) and empty-plan (``ChurnPlan()``) runs are
    timed interleaved with per-side minimums (same estimator as the
    impair section), and their outcomes compared for byte-identity: the
    empty plan must construct no driver and schedule nothing.  The
    churned cell (a drawn plan mutating the limiter mid-run) is
    informational, and the ``apply_update`` microbench prices one
    transactional commit.
    """
    configs = {
        "clean": _churn_config(None),
        "empty_plan": _churn_config(ChurnPlan()),
    }
    outcomes = {}
    best: dict[str, float | None] = {"clean": None, "empty_plan": None}
    for _ in range(rounds):
        for name, config in configs.items():
            start = time.perf_counter()
            outcome = simulate_aggregate(config)
            elapsed = time.perf_counter() - start
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed
            outcomes[name] = outcome
    plan = draw_plan(
        random.Random(7),
        num_queues=2,
        rate=mbps(8.0),
        horizon=4.0,
        actions=CHURN_PLAN_ACTIONS,
        kinds=("weights", "priorities", "resize", "capacity"),
    )
    churned_start = time.perf_counter()
    churned = simulate_aggregate(_churn_config(plan))
    churned_seconds = time.perf_counter() - churned_start
    identical = outcomes["clean"] == outcomes["empty_plan"]
    return {
        "unit": "wall seconds per run (min of interleaved rounds)",
        "workload": "bcpqp aggregate, 2 flows, 8 Mbps, 4 s horizon",
        "rounds": rounds,
        "outcomes_identical": identical,
        "clean_seconds": round(best["clean"], 4),
        "empty_plan_seconds": round(best["empty_plan"], 4),
        "empty_plan_overhead_ratio": round(
            best["empty_plan"] / best["clean"], 4
        ),
        "churned": {
            "actions": CHURN_PLAN_ACTIONS,
            "seconds": round(churned_seconds, 4),
            "updates_applied": churned.updates_applied,
            "updates_rejected": churned.updates_rejected,
            "mean_normalized_throughput": round(
                churned.mean_normalized_throughput, 4
            ),
        },
        "apply_throughput": _apply_throughput(),
    }


def check_churn(
    section: dict,
    *,
    max_overhead: float = CHURN_MAX_OVERHEAD,
    min_updates_per_s: float = CHURN_MIN_UPDATES_PER_S,
) -> list[str]:
    """Acceptance gates for the live-reconfiguration machinery.

    Deterministic gate (exact on any machine): the empty-plan outcome
    must be byte-identical to the clean run's.  Wall gates (same-machine
    clocks): the empty plan may cost at most ``max_overhead`` x the
    clean run, and transactional update throughput must stay above
    ``min_updates_per_s``.
    """
    failures = []
    if not section["outcomes_identical"]:
        failures.append(
            "churn: empty ChurnPlan() outcome differs from the clean "
            "churn=None run — inert plans are not free"
        )
    ratio = section["empty_plan_overhead_ratio"]
    if ratio > max_overhead:
        failures.append(
            f"churn: empty-plan wall overhead {ratio:.4f}x above the "
            f"{max_overhead}x ceiling (clean {section['clean_seconds']}s, "
            f"empty {section['empty_plan_seconds']}s)"
        )
    throughput = section["apply_throughput"]["updates_per_second"]
    if throughput < min_updates_per_s:
        failures.append(
            f"churn: {throughput:.0f} transactional updates/s below the "
            f"{min_updates_per_s:.0f}/s floor"
        )
    churned = section["churned"]
    if churned["updates_applied"] + churned["updates_rejected"] != churned["actions"]:
        failures.append(
            f"churn: churned cell applied {churned['updates_applied']} + "
            f"rejected {churned['updates_rejected']} != plan's "
            f"{churned['actions']} actions — driver lost updates"
        )
    return failures


def _fleet_cell(
    aggregates: int, shards: int, *, isolate: bool = False
) -> dict:
    """One full fleet run summarized as the JSON cell the section stores."""
    spec = FleetSpec(aggregates=aggregates, seed=FLEET_SEED)
    result = run_fleet(spec, shards=shards, isolate=isolate)
    return fleet_cell_json(result)


def fleet_section(headline: dict | None = None) -> dict:
    """The sharded-fleet section: invariance + shard-scaling cells.

    ``headline`` is the big run's cell (e.g. 10^5 aggregates over 100
    shards) when ``--fleet-headline`` asked for one; it is reported, not
    gated.
    """
    baseline = _fleet_cell(**FLEET_BASELINE)
    invariance = _fleet_cell(**FLEET_INVARIANCE)
    scaled = _fleet_cell(**FLEET_SCALED)
    section = {
        "unit": "summed-CPU us/packet over merged arrived packets",
        "workload": "full end-to-end fleet sims (repro.fleet), seed "
        f"{FLEET_SEED}, bcpqp",
        "cells": {
            "baseline": baseline,
            "invariance": invariance,
            "scaled": scaled,
        },
        "digests_match": baseline["digest"] == invariance["digest"],
        "shard_efficiency": round(
            baseline["us_per_packet"] / scaled["us_per_packet"], 3
        ),
        "scaled_us_multiple": round(
            scaled["us_per_packet"] / baseline["us_per_packet"], 3
        ),
    }
    if headline is not None:
        section["headline"] = headline
    return section


def run_fleet_headline(aggregates: int) -> dict:
    """The big fleet run: one shard per ~1000 aggregates, each
    in a disposable supervised process (exact per-shard peak RSS)."""
    shards = max(1, aggregates // 1000)
    return _fleet_cell(aggregates, shards, isolate=True)


def check_fleet(section: dict, *, min_efficiency: float) -> list[str]:
    """Regression gates for the sharded fleet.

    Deterministic gate (exact on any machine): the 4-shard N=1000 merge
    must be byte-identical to the unsharded baseline (digest equality
    over the full per-aggregate columns).  Wall gate (both sides
    measured in this run): shard-scaling efficiency >= ``min_efficiency``.
    """
    failures = []
    cells = section["cells"]
    if not section["digests_match"]:
        failures.append(
            "fleet: sharded digest "
            f"{cells['invariance']['digest'][:16]} != unsharded baseline "
            f"{cells['baseline']['digest'][:16]} — shard-count invariance "
            "broken"
        )
    if section["shard_efficiency"] < min_efficiency:
        failures.append(
            f"fleet: shard-scaling efficiency {section['shard_efficiency']}"
            f" below the {min_efficiency} floor (baseline "
            f"{cells['baseline']['us_per_packet']:.2f} us/pkt, scaled "
            f"{cells['scaled']['us_per_packet']:.2f} us/pkt)"
        )
    return failures


def simulator_events_per_second(rounds: int) -> dict[str, float]:
    """Median events/sec for the event-loop microbenchmark workloads."""
    workloads = {
        "timer_chain": bench_sim_core.run_timer_chain,
        "timer_fan": bench_sim_core.run_timer_fan,
        "cancel_mix": bench_sim_core.run_cancel_mix,
        "soft_reschedule": bench_sim_core.run_soft_reschedule,
    }
    out = {}
    for name, fn in workloads.items():
        fn()  # warm-up
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            events = fn()
            samples.append(events / (time.perf_counter() - start))
        out[name] = round(statistics.median(samples))
    return out


def build_report(rounds: int) -> dict:
    return {
        "schema": "repro-bench/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rounds": rounds,
        "modeled_cycles_per_packet": modeled_cycles(),
        "hot_path": {
            "unit": "seconds/packet",
            "batch_packets": BATCH,
            "schemes": hot_path_seconds_per_packet(rounds),
        },
        "simulator": {
            "unit": "events/second",
            "workloads": simulator_events_per_second(rounds),
        },
        # Supervised-sweep fault accounting for the cells this report
        # ran: a bench result computed through retries is a flaky cell
        # worth investigating even when the numbers look fine.
        "sweep_faults": session_stats(),
    }


def _print_sweep_faults() -> None:
    stats = session_stats()
    print(
        f"  sweep      retries={stats['retries']} "
        f"crashes={stats['crashes']} timeouts={stats['timeouts']} "
        f"failed-cells={stats['failed_cells']} "
        f"replayed={stats['replayed']}"
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", "-o",
        default=str(Path(__file__).parent / "BENCH_fig5.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="timing rounds per measurement (median is reported)",
    )
    parser.add_argument(
        "--baseline", metavar="JSON", default=None,
        help="a previous report to embed under 'baseline', with "
        "events/sec speedup ratios computed against it",
    )
    parser.add_argument(
        "--scaling-output",
        default=str(Path(__file__).parent / "BENCH_scaling.json"),
        help="where to write the scaling-section JSON",
    )
    parser.add_argument(
        "--eventloop-output",
        default=str(Path(__file__).parent / "BENCH_eventloop.json"),
        help="where to write the event-engine-section JSON",
    )
    parser.add_argument(
        "--impair-output",
        default=str(Path(__file__).parent / "BENCH_impair.json"),
        help="where to write the impairment-machinery-section JSON",
    )
    parser.add_argument(
        "--churn-output",
        default=str(Path(__file__).parent / "BENCH_churn.json"),
        help="where to write the live-reconfiguration-section JSON",
    )
    parser.add_argument(
        "--fleet-output",
        default=str(Path(__file__).parent / "BENCH_fleet.json"),
        help="where to write the sharded-fleet-section JSON",
    )
    parser.add_argument(
        "--fleet-headline", type=int, default=None, metavar="N",
        help="also run the fleet headline with N aggregates (one shard "
        "per ~1000, supervised; expensive — default: no headline cell)",
    )
    parser.add_argument(
        "--check-min-efficiency", type=float, default=FLEET_MIN_EFFICIENCY,
        help="required fleet shard-scaling efficiency (baseline us/pkt "
        f"over 4x-fleet sharded us/pkt; default {FLEET_MIN_EFFICIENCY})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="run only the scaling sweep, event-engine, impair, churn "
        "and fleet sections; fail if seconds/packet at N=1000 exceeds "
        "--check-multiple times the N=10 value or any event-engine, "
        "impair, churn or fleet gate regresses",
    )
    parser.add_argument(
        "--check-multiple", type=float, default=3.0,
        help="allowed N=1000 / N=10 seconds-per-packet ratio (default 3.0)",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.check_multiple <= 0:
        parser.error("--check-multiple must be positive")
    if args.check_min_efficiency <= 0:
        parser.error("--check-min-efficiency must be positive")

    if args.check:
        scaling = scaling_section(args.rounds)
        _write_scaling(args.scaling_output, args.rounds, scaling)
        _print_scaling(scaling)
        failures = check_scaling(scaling, args.check_multiple)
        eventloop = eventloop_section()
        _write_eventloop(args.eventloop_output, eventloop)
        _print_eventloop(eventloop)
        failures += check_eventloop(eventloop)
        impair = impair_section(args.rounds)
        _write_impair(args.impair_output, impair)
        _print_impair(impair)
        failures += check_impair(impair)
        churn = churn_section(args.rounds)
        _write_churn(args.churn_output, churn)
        _print_churn(churn)
        failures += check_churn(churn)
        fleet = fleet_section(headline=_fleet_headline(args))
        _write_fleet(args.fleet_output, fleet)
        _print_fleet(fleet)
        failures += check_fleet(
            fleet, min_efficiency=args.check_min_efficiency
        )
        if failures:
            for failure in failures:
                print(f"FAIL {failure}")
            raise SystemExit(1)
        print(
            f"scaling + eventloop + impair + churn + fleet "
            f"checks passed "
            f"(multiple={args.check_multiple}, "
            f"min-efficiency={args.check_min_efficiency})"
        )
        return

    report = build_report(args.rounds)
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        report["baseline"] = baseline
        old = baseline.get("simulator", {}).get("workloads", {})
        new = report["simulator"]["workloads"]
        report["simulator"]["speedup_vs_baseline"] = {
            name: round(new[name] / old[name], 3)
            for name in new if old.get(name)
        }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    for scheme, cycles in report["modeled_cycles_per_packet"].items():
        print(f"  cycles/pkt {scheme:12s} {cycles:8.1f}")
    for scheme, secs in report["hot_path"]["schemes"].items():
        print(f"  hot path   {scheme:12s} {secs * 1e6:8.2f} us/pkt")
    for name, eps in report["simulator"]["workloads"].items():
        print(f"  sim        {name:12s} {eps:8.0f} events/s")
    _print_sweep_faults()
    scaling = scaling_section(args.rounds)
    _write_scaling(args.scaling_output, args.rounds, scaling)
    _print_scaling(scaling)
    eventloop = eventloop_section()
    _write_eventloop(args.eventloop_output, eventloop)
    _print_eventloop(eventloop)
    impair = impair_section(args.rounds)
    _write_impair(args.impair_output, impair)
    _print_impair(impair)
    churn = churn_section(args.rounds)
    _write_churn(args.churn_output, churn)
    _print_churn(churn)
    fleet = fleet_section(headline=_fleet_headline(args))
    _write_fleet(args.fleet_output, fleet)
    _print_fleet(fleet)


def _fleet_headline(args: argparse.Namespace) -> dict | None:
    """The headline cell, run only when ``--fleet-headline N`` asks."""
    if args.fleet_headline is None:
        return None
    if args.fleet_headline < 1000:
        raise SystemExit("--fleet-headline needs at least 1000 aggregates")
    print(
        f"running fleet headline: {args.fleet_headline} aggregates "
        f"over {max(1, args.fleet_headline // 1000)} shards ..."
    )
    return run_fleet_headline(args.fleet_headline)


def _write_fleet(path: str, section: dict) -> None:
    document = {
        "schema": "repro-bench-fleet/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "fleet": section,
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")


def _print_fleet(section: dict) -> None:
    cells = dict(section["cells"])
    headline = section.get("headline")
    if headline is not None:
        cells["headline"] = headline
    for name, cell in cells.items():
        print(
            f"  fleet      {name:10s} N={cell['aggregates']:>6d} "
            f"K={cell['shards']:>3d} "
            f"{cell['us_per_packet']:8.2f} us/pkt  "
            f"rss {cell['peak_rss_bytes'] / 1e6:6.1f} MB  "
            f"digest {cell['digest'][:12]}"
        )
    print(
        f"  fleet      digests-match={section['digests_match']} "
        f"efficiency={section['shard_efficiency']:.3f} "
        f"scaled-multiple={section['scaled_us_multiple']:.3f}"
    )


def _write_churn(path: str, section: dict) -> None:
    document = {
        "schema": "repro-bench-churn/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "churn": section,
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")


def _print_churn(section: dict) -> None:
    churned = section["churned"]
    throughput = section["apply_throughput"]
    print(
        f"  churn      clean {section['clean_seconds']:7.4f}s  "
        f"empty-plan {section['empty_plan_seconds']:7.4f}s  "
        f"overhead {section['empty_plan_overhead_ratio']:6.4f}x  "
        f"identical={section['outcomes_identical']}"
    )
    print(
        f"  churn      churned({churned['actions']} actions) "
        f"{churned['seconds']:7.4f}s  "
        f"applied {churned['updates_applied']}  "
        f"rejected {churned['updates_rejected']}  "
        f"apply-throughput {throughput['updates_per_second']:8.0f}/s"
    )


def _write_impair(path: str, section: dict) -> None:
    document = {
        "schema": "repro-bench-impair/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "impair": section,
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")


def _print_impair(section: dict) -> None:
    enabled = section["enabled"]
    print(
        f"  impair     clean {section['clean_seconds']:7.4f}s  "
        f"disabled {section['disabled_seconds']:7.4f}s  "
        f"overhead {section['disabled_overhead_ratio']:6.4f}x  "
        f"identical={section['outcomes_identical']}"
    )
    print(
        f"  impair     enabled(loss={enabled['spec']['loss']}, "
        f"jitter={enabled['spec']['jitter']}) {enabled['seconds']:7.4f}s  "
        f"drop-rate {enabled['drop_rate']:.4f}"
    )


def _write_eventloop(path: str, section: dict) -> None:
    document = {
        "schema": "repro-bench-eventloop/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "eventloop": section,
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")


def _print_eventloop(section: dict) -> None:
    for scheme, cell in section["schemes"].items():
        push_ratio = cell.get("heap_push_reduction_vs_pre_pr")
        ratios = ""
        if push_ratio is not None:
            ratios = f"  pushes -{push_ratio:.2f}x"
        print(
            f"  eventloop  {scheme:8s} "
            f"{cell['heap_pushes_per_packet']:7.3f} pushes/pkt  "
            f"{cell['events_per_packet']:7.3f} ev/pkt  "
            f"peak {cell['peak_heap_size']:>5d}  "
            f"{cell['us_per_packet']:8.2f} us/pkt{ratios}"
        )


def _write_scaling(path: str, rounds: int, scaling: dict) -> None:
    document = {
        "schema": "repro-bench-scaling/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rounds": rounds,
        "scaling": scaling,
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")


def _print_scaling(scaling: dict) -> None:
    for scheme, per_n in scaling["schemes"].items():
        for n, cell in per_n.items():
            print(
                f"  scaling    {scheme:6s} N={n:>4s} "
                f"{cell['seconds_per_packet'] * 1e6:8.2f} us/pkt  "
                f"{cell['modeled_cycles_per_packet']:8.1f} cycles/pkt"
            )
    nested = scaling["nested"]
    ratio = nested.get("multiple_of_flat_100")
    print(
        f"  scaling    bcpqp  nested {nested['queues']}q/{nested['groups']}g "
        f"{nested['seconds_per_packet'] * 1e6:8.2f} us/pkt  "
        f"{nested['modeled_cycles_per_packet']:8.1f} cycles/pkt"
        + (f"  {ratio:.2f}x flat N=100" if ratio is not None else "")
    )
    idle = scaling["idle_classes"]
    for classes, cell in idle["classes"].items():
        print(
            f"  scaling    bcpqp  {classes:>4s} classes, {idle['live']} live "
            f"{cell['seconds_per_packet'] * 1e6:8.2f} us/pkt  "
            f"{cell['modeled_cycles_per_packet']:8.1f} cycles/pkt"
        )
    print(
        f"  scaling    bcpqp  idle classes: {idle['multiple_of_fewest']:.2f}x "
        f"from {IDLE_CLASS_COUNTS[0]} to {IDLE_CLASS_COUNTS[-1]} classes"
    )


if __name__ == "__main__":
    main()
