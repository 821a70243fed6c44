"""Nested rate-sharing policies with BC-PQP (the paper's §6.3.3).

A 10 Mbps plan is split by a two-level policy, all enforced without
buffering:

* an *interactive* class (strict high priority): web traffic and a video
  call sharing 2:1;
* a *bulk* class (low priority): two downloads sharing equally — they only
  get whatever the interactive class leaves unused.

Run:  python examples/nested_policies.py
"""

import random

from repro import (
    AggregateScenario,
    ClassNode,
    FlowSpec,
    Leaf,
    OnOffSpec,
    Policy,
    Simulator,
    make_limiter,
)
from repro.units import mbps, ms, to_mbps

RATE = mbps(10)
HORIZON = 20.0

#: queue 0: web (weight 2), queue 1: call (weight 1)  — priority 0 (high)
#: queue 2, 3: downloads (equal)                      — priority 1 (low)
POLICY = Policy(ClassNode((
    ClassNode((Leaf(0, weight=2.0), Leaf(1, weight=1.0)), priority=0),
    ClassNode((Leaf(2), Leaf(3)), priority=1),
)))

FLOWS = [
    FlowSpec(slot=0, cc="cubic", rtt=ms(20),
             on_off=OnOffSpec(burst_packets_mean=300, off_time_mean=2.0)),
    FlowSpec(slot=1, cc="reno", rtt=ms(20),
             on_off=OnOffSpec(burst_packets_mean=150, off_time_mean=2.0)),
    FlowSpec(slot=2, cc="cubic", rtt=ms(30)),
    FlowSpec(slot=3, cc="bbr", rtt=ms(30)),
]

LABELS = ["web (hi, w=2)", "call (hi, w=1)", "download A (lo)",
          "download B (lo)"]


def main() -> None:
    sim = Simulator()
    limiter = make_limiter(sim, "bcpqp", rate=RATE, num_queues=4,
                           max_rtt=ms(50), policy=POLICY)
    scenario = AggregateScenario(sim, limiter=limiter, specs=FLOWS,
                                 rng=random.Random(3), horizon=HORIZON,
                                 warmup=5.0)
    scenario.run()

    slots = scenario.recorder.slot_series()
    print(f"Nested policy over {to_mbps(RATE):.0f} Mbps "
          f"(interactive > bulk, weighted within):")
    total = 0.0
    for i, label in enumerate(LABELS):
        rate = slots[i].mean() if i in slots else 0.0
        total += rate
        print(f"  {label:16s} {to_mbps(rate):5.2f} Mbps")
    print(f"  {'total':16s} {to_mbps(total):5.2f} Mbps"
          f"  (drops {limiter.stats.drop_rate:.1%})")
    print("\nThe bulk class soaks up whatever the interactive class leaves"
          " idle;\nwhenever interactive traffic returns it preempts"
          " immediately — no\npackets were buffered to make that happen.")


if __name__ == "__main__":
    main()
