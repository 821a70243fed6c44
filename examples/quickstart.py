"""Quickstart: enforce 10 Mbps with per-flow fairness using BC-PQP.

Three backlogged flows with different congestion-control algorithms (the
unfair-by-default mix: Cubic, BBR, Reno) share one subscriber's 10 Mbps
plan.  A plain policer lets the aggressive flow win; BC-PQP gives each
flow its fair third without buffering a single packet.

Run:  python examples/quickstart.py
"""

import random

from repro import AggregateScenario, FlowSpec, Simulator, make_limiter
from repro.metrics import jain_index
from repro.units import mbps, ms, to_mbps

RATE = mbps(10)
FLOWS = [
    FlowSpec(slot=0, cc="cubic", rtt=ms(20)),
    FlowSpec(slot=1, cc="bbr", rtt=ms(30)),
    FlowSpec(slot=2, cc="reno", rtt=ms(40)),
]
HORIZON = 15.0


def run(scheme: str) -> None:
    sim = Simulator()
    limiter = make_limiter(sim, scheme, rate=RATE, num_queues=len(FLOWS),
                           max_rtt=ms(50))
    scenario = AggregateScenario(sim, limiter=limiter, specs=FLOWS,
                                 rng=random.Random(1), horizon=HORIZON,
                                 warmup=5.0)
    scenario.run()

    slots = scenario.recorder.slot_series()
    shares = {s.slot: slots[s.slot].mean() if s.slot in slots else 0.0
              for s in FLOWS}
    print(f"\n{scheme}: enforcing {to_mbps(RATE):.0f} Mbps")
    for spec in FLOWS:
        print(f"  {spec.cc:6s} -> {to_mbps(shares[spec.slot]):5.2f} Mbps")
    print(f"  total {to_mbps(sum(shares.values())):5.2f} Mbps,"
          f" Jain fairness {jain_index(shares.values()):.3f},"
          f" drop rate {limiter.stats.drop_rate:.1%}")


def main() -> None:
    for scheme in ("policer", "bcpqp"):
        run(scheme)


if __name__ == "__main__":
    main()
