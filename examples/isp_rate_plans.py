"""An ISP middlebox enforcing different subscriber plans with BC-PQP.

Three subscribers with different plans (5 / 20 / 50 Mbps) send mixed
traffic through one middlebox.  Each subscriber gets their own BC-PQP
instance with per-flow fairness inside their plan; nothing is buffered.

Run:  python examples/isp_rate_plans.py
"""

import random

from repro import (
    AggregateScenario,
    FlowSpec,
    OnOffSpec,
    Simulator,
    make_limiter,
)
from repro.units import mbps, ms, to_mbps

PLANS = {  # subscriber id -> plan rate
    0: mbps(5),
    1: mbps(20),
    2: mbps(50),
}
HORIZON = 15.0


def subscriber_flows(subscriber: int, rng: random.Random) -> list[FlowSpec]:
    """Each subscriber runs a bulk download, a video-ish flow, and chatty
    short transfers — with whatever CC their apps happen to use."""
    return [
        FlowSpec(slot=0, cc="cubic", rtt=ms(rng.uniform(10, 40))),
        FlowSpec(slot=1, cc="bbr", rtt=ms(rng.uniform(10, 40))),
        FlowSpec(
            slot=2,
            cc="reno",
            rtt=ms(rng.uniform(10, 40)),
            on_off=OnOffSpec(burst_packets_mean=80, off_time_mean=0.3),
        ),
    ]


def main() -> None:
    rng = random.Random(7)
    print("Per-subscriber rate enforcement with BC-PQP")
    for subscriber, plan in PLANS.items():
        sim = Simulator()
        limiter = make_limiter(sim, "bcpqp", rate=plan, num_queues=3,
                               max_rtt=ms(50))
        scenario = AggregateScenario(
            sim,
            limiter=limiter,
            specs=subscriber_flows(subscriber, rng),
            rng=random.Random(100 + subscriber),
            aggregate=subscriber,
            horizon=HORIZON,
            warmup=5.0,
        )
        scenario.run()
        agg = scenario.recorder.aggregate_series()
        print(f"  subscriber {subscriber}: plan {to_mbps(plan):5.1f} Mbps"
              f" -> measured {to_mbps(agg.mean()):5.2f} Mbps"
              f" (peak {to_mbps(agg.max()):5.2f},"
              f" drops {limiter.stats.drop_rate:.1%})")


if __name__ == "__main__":
    main()
