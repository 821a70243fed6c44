"""Figure 5: CPU cycles spent per packet by each scheme (§6.2).

The paper measures DPDK cycles; we report the operation-level cost model
(see :mod:`repro.limiters.costs`) accumulated over a §6.1-style run.
Python host cost is not a stand-in for it: the shaper's deque operations
run in C while the phantom drain arithmetic runs in bytecode, whereas on
the paper's DPDK middlebox the shaper's costs are DRAM round-trips and
timer interrupts.

Expected shape: shaper >> fairpolicer > bcpqp ~ pqp > policer, with the
shaper 5-7x BC-PQP and BC-PQP within ~2x of the plain policer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    AggregateConfig,
    ResultCache,
    print_table,
    run_aggregates,
)
from repro.units import mbps, ms
from repro.workload.spec import FlowSpec

SCHEMES = ("shaper", "fairpolicer", "pqp", "bcpqp", "policer")


@dataclass
class Config:
    """One busy aggregate is enough to exercise every hot path."""

    rate: float = mbps(25)
    ccs: tuple[str, ...] = ("reno", "cubic", "bbr", "vegas")
    rtts: tuple[float, ...] = (ms(10), ms(20), ms(30), ms(40))
    horizon: float = 12.0
    warmup: float = 2.0
    schemes: tuple[str, ...] = SCHEMES
    seed: int = 1


@dataclass
class Result:
    """Modeled cycles per packet, per scheme."""

    cycles_per_packet: dict[str, float] = field(default_factory=dict)
    packets: dict[str, int] = field(default_factory=dict)

    def ratio_to(self, baseline: str) -> dict[str, float]:
        """Each scheme's cost relative to ``baseline``."""
        base = self.cycles_per_packet[baseline]
        return {s: c / base for s, c in self.cycles_per_packet.items()}


def grid(config: Config) -> list[AggregateConfig]:
    """One busy aggregate per scheme."""
    specs = tuple(
        FlowSpec(slot=i, cc=cc, rtt=rtt)
        for i, (cc, rtt) in enumerate(zip(config.ccs, config.rtts))
    )
    return [
        AggregateConfig(
            scheme=scheme,
            specs=specs,
            rate=config.rate,
            max_rtt=max(config.rtts),
            horizon=config.horizon,
            warmup=config.warmup,
            seed=config.seed,
        )
        for scheme in config.schemes
    ]


def run(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Accumulate the cost model over one aggregate per scheme."""
    config = config or Config()
    result = Result()
    outcomes = run_aggregates(grid(config), jobs=jobs, cache=cache)
    for scheme, agg in zip(config.schemes, outcomes):
        result.cycles_per_packet[scheme] = agg.cycles_per_packet
        result.packets[scheme] = agg.arrived_packets
    return result


def main(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Print the Figure 5 table."""
    result = run(config, jobs=jobs, cache=cache)
    ratios = result.ratio_to("policer")
    print("Figure 5: modeled CPU cycles per packet")
    print_table(
        ["scheme", "cycles/pkt", "x policer", "packets"],
        [
            [s, f"{c:.1f}", f"{ratios[s]:.2f}", str(result.packets[s])]
            for s, c in sorted(
                result.cycles_per_packet.items(), key=lambda kv: -kv[1]
            )
        ],
    )
    return result


if __name__ == "__main__":
    main()
