"""Extension: ECN marking on phantom queues (beyond the paper).

§3.3 notes that PQP's drop-tail restriction still permits "active queue
management policies ... that drop packets upon arrival"; phantom queues
descend from AQM virtual queues [8, 31, 32].  This extension closes the
loop: packets accepted while a phantom queue's occupancy exceeds a
threshold are CE-marked instead of being left to tail-drop later, and
ECN-capable senders halve once per RTT on echo.

Result: for ECN traffic, PQP keeps its exact rate and fairness while
packet loss essentially disappears — addressing the one metric where
bufferless schemes trail shapers (Figure 4d's drop rates).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.classify.classifier import SlotClassifier
from repro.core.bcpqp import BCPQP
from repro.core.pqp import PQP
from repro.experiments.common import ResultCache, print_table, run_cells
from repro.metrics.fairness import jain_index
from repro.policy.tree import Policy
from repro.scenario import AggregateScenario
from repro.sim.simulator import Simulator
from repro.units import mbps, ms
from repro.workload.spec import FlowSpec


@dataclass
class Config:
    """ECN extension parameters."""

    rate: float = mbps(10)
    queue_bytes: float = 150_000.0
    mark_fraction: float = 0.25
    ccs: tuple[str, ...] = ("reno", "cubic", "vegas")
    rtts: tuple[float, ...] = (ms(10), ms(20), ms(30))
    horizon: float = 20.0
    warmup: float = 5.0
    seed: int = 1


@dataclass
class Cell:
    """One (scheme, marking) measurement."""

    mean_normalized: float
    peak_normalized: float
    fairness: float
    drop_rate: float
    marked_packets: int
    retransmits: int


@dataclass
class Result:
    """(scheme, marking on/off) -> measurements."""

    cells: dict[tuple[str, bool], Cell] = field(default_factory=dict)


def _build(scheme: str, config: Config, mark: bool, sim: Simulator):
    n = len(config.ccs)
    kwargs = dict(
        rate=config.rate,
        policy=Policy.fair(n),
        classifier=SlotClassifier(n),
        queue_bytes=config.queue_bytes,
        ecn_mark_fraction=config.mark_fraction if mark else None,
    )
    return PQP(sim, **kwargs) if scheme == "pqp" else BCPQP(sim, **kwargs)


@dataclass(frozen=True)
class EcnCell:
    """One (scheme, marking on/off) simulation."""

    scheme: str
    mark: bool
    config: Config


def simulate_ecn_cell(cell: EcnCell) -> Cell:
    """Worker entry for one ECN comparison cell."""
    config = cell.config
    sim = Simulator()
    limiter = _build(cell.scheme, config, cell.mark, sim)
    specs = [
        FlowSpec(slot=i, cc=cc, rtt=rtt, ecn=True)
        for i, (cc, rtt) in enumerate(zip(config.ccs, config.rtts))
    ]
    scenario = AggregateScenario(
        sim, limiter=limiter, specs=specs,
        rng=random.Random(config.seed), horizon=config.horizon,
        warmup=config.warmup)
    scenario.run()
    agg = scenario.recorder.aggregate_series()
    slots = scenario.recorder.slot_series()
    return Cell(
        mean_normalized=agg.mean() / config.rate,
        peak_normalized=agg.max() / config.rate,
        fairness=jain_index([s.mean() for s in slots.values()]),
        drop_rate=limiter.stats.drop_rate,
        marked_packets=limiter.ecn_marked_packets,
        retransmits=sum(
            r.senders[-1].retransmits for r in scenario.runners),
    )


def grid(config: Config) -> list[EcnCell]:
    """Scheme-major, marking-minor — the report's row order."""
    return [
        EcnCell(scheme=scheme, mark=mark, config=config)
        for scheme in ("pqp", "bcpqp")
        for mark in (False, True)
    ]


def run(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Compare PQP and BC-PQP with and without ECN marking."""
    config = config or Config()
    result = Result()
    cells = grid(config)
    outcomes = run_cells(simulate_ecn_cell, cells, jobs=jobs, cache=cache)
    for cell, outcome in zip(cells, outcomes):
        result.cells[(cell.scheme, cell.mark)] = outcome
    return result


def main(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Print the extension comparison table."""
    config = config or Config()
    result = run(config, jobs=jobs, cache=cache)
    print("Extension: ECN marking on phantom queues "
          f"(mark at {config.mark_fraction:.0%} occupancy)")
    rows = []
    for (scheme, mark), c in result.cells.items():
        rows.append([
            scheme, "on" if mark else "off",
            f"{c.mean_normalized:.3f}", f"{c.peak_normalized:.2f}",
            f"{c.fairness:.3f}", f"{c.drop_rate:.4f}",
            str(c.marked_packets), str(c.retransmits),
        ])
    print_table(
        ["scheme", "ecn", "mean (xr)", "peak (xr)", "jain", "drop rate",
         "marked", "retx"],
        rows,
    )
    return result


if __name__ == "__main__":
    main()
