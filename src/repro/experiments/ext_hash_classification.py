"""Extension study: hashed flow classification (§3.2).

The paper's per-flow fairness can use exact per-flow queues or
"approximate it by hashing the flow identifiers in the packet header
fields into one of the N queues".  Hashing trades state for collisions:
flows sharing a queue split that queue's share.  This study quantifies
the fairness cost of hashing F flows into N < F queues under BC-PQP.

Note the outcome is not monotone in N: flow-level fairness is dominated
by the single worst collision bucket, so an unlucky hash at a middling N
can be worse than heavy-but-even collisions at a small N — the reason
operators provision hash tables several times larger than the expected
flow count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.classify.classifier import HashClassifier
from repro.core.bcpqp import BCPQP
from repro.experiments.common import ResultCache, print_table, run_cells
from repro.metrics.fairness import jain_index
from repro.net.packet import FlowId
from repro.policy.tree import Policy
from repro.scenario import AggregateScenario
from repro.sim.simulator import Simulator
from repro.units import mbps, ms
from repro.workload.spec import FlowSpec


@dataclass
class Config:
    """Hash-classification study parameters."""

    rate: float = mbps(20)
    num_flows: int = 12
    queue_counts: tuple[int, ...] = (2, 4, 8, 16, 32)
    cc: str = "cubic"
    horizon: float = 15.0
    warmup: float = 5.0
    seed: int = 1


@dataclass
class Result:
    """Per-queue-count fairness across *flows* (not queues)."""

    fairness_by_queues: dict[int, float] = field(default_factory=dict)
    collisions_by_queues: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class HashCell:
    """One hash-table size; RTTs are pre-drawn so the cell is a pure
    function of its fields (and hence cacheable/fork-safe)."""

    n_queues: int
    rtts: tuple[float, ...]
    config: Config


def simulate_hash_cell(cell: HashCell) -> tuple[float, int]:
    """Worker entry: (flow-level Jain index, colliding flows)."""
    config = cell.config
    n_queues = cell.n_queues
    sim = Simulator()
    classifier = HashClassifier(n_queues, salt=config.seed)
    limiter = BCPQP(
        sim,
        rate=config.rate,
        policy=Policy.fair(n_queues),
        classifier=classifier,
        queue_bytes=500_000.0,
    )
    specs = [
        FlowSpec(slot=i, cc=config.cc, rtt=cell.rtts[i])
        for i in range(config.num_flows)
    ]
    scenario = AggregateScenario(
        sim, limiter=limiter, specs=specs,
        rng=random.Random(config.seed), horizon=config.horizon,
        warmup=config.warmup)
    scenario.run()
    slots = scenario.recorder.slot_series()
    shares = [
        slots[i].mean() if i in slots else 0.0
        for i in range(config.num_flows)
    ]
    occupancy = [0] * n_queues
    for i in range(config.num_flows):
        occupancy[classifier.queue_of(FlowId(0, i))] += 1
    collisions = sum(c - 1 for c in occupancy if c > 1)
    return jain_index(shares), collisions


def grid(config: Config) -> list[HashCell]:
    """One cell per hash-table size, sharing one pre-drawn RTT vector."""
    rng = random.Random(config.seed)
    rtts = tuple(ms(rng.uniform(10, 40)) for _ in range(config.num_flows))
    return [
        HashCell(n_queues=n, rtts=rtts, config=config)
        for n in config.queue_counts
    ]


def run(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Measure flow-level fairness as the hash table grows."""
    config = config or Config()
    result = Result()
    cells = grid(config)
    outcomes = run_cells(simulate_hash_cell, cells, jobs=jobs, cache=cache)
    for cell, (jain, collisions) in zip(cells, outcomes):
        result.fairness_by_queues[cell.n_queues] = jain
        result.collisions_by_queues[cell.n_queues] = collisions
    return result


def main(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Print the hash-classification table."""
    config = config or Config()
    result = run(config, jobs=jobs, cache=cache)
    print(f"Hashed classification: {config.num_flows} flows into N queues "
          "(BC-PQP, per-flow fairness goal)")
    print_table(
        ["queues", "colliding flows", "flow-level jain"],
        [
            [str(n), str(result.collisions_by_queues[n]),
             f"{result.fairness_by_queues[n]:.3f}"]
            for n in sorted(result.fairness_by_queues)
        ],
    )
    return result


if __name__ == "__main__":
    main()
