"""End-to-end test: several subscribers through one middlebox.

Mirrors the deployment §6.1 describes — one rate-enforcer machine hosting
an independent limiter per traffic aggregate — and checks that aggregates
are isolated: each gets its own plan rate regardless of the others.
"""

import pytest

from repro import Middlebox, Simulator, make_limiter
from repro.cc.endpoint import FlowDemux
from repro.metrics import aggregate_throughput_series
from repro.net.packet import FlowId
from repro.net.trace import Trace
from repro.units import mbps, ms
from repro.wiring import wire_flow

PLANS = {0: mbps(5), 1: mbps(15)}


def build_and_run(horizon=12.0):
    sim = Simulator()
    box = Middlebox(sim)
    demux = FlowDemux()
    traces = {}
    for agg, rate in PLANS.items():
        limiter = make_limiter(sim, "bcpqp", rate=rate, num_queues=2,
                               max_rtt=ms(50), name=f"bcpqp-{agg}")
        trace = Trace(sim, demux, name=f"rx-{agg}")
        limiter.connect(trace)
        box.add_aggregate(agg, limiter)
        traces[agg] = trace
    # Two backlogged flows per subscriber, all entering via the middlebox.
    for agg in PLANS:
        for slot, cc in enumerate(("cubic", "reno")):
            wire_flow(sim, FlowId(agg, slot, 0), cc=cc, rtt=ms(20),
                      ingress=box, demux=demux, packets=None, start=0.0)
    sim.run(until=horizon)
    return sim, box, traces, horizon


class TestMiddleboxEndToEnd:
    def test_each_aggregate_gets_its_plan(self):
        _sim, _box, traces, horizon = build_and_run()
        for agg, rate in PLANS.items():
            series = aggregate_throughput_series(
                traces[agg].records, window=0.25, start=4.0, end=horizon)
            assert series.mean() == pytest.approx(rate, rel=0.1), agg

    def test_aggregates_are_isolated(self):
        """The small plan's flows never appear in the big plan's trace."""
        _sim, _box, traces, _horizon = build_and_run(horizon=6.0)
        for agg, trace in traces.items():
            assert {r.flow.aggregate for r in trace.records} == {agg}

    def test_no_unmatched_traffic(self):
        _sim, box, _traces, _horizon = build_and_run(horizon=4.0)
        assert box.unmatched_packets == 0

    def test_total_cycles_accumulate(self):
        _sim, box, _traces, _horizon = build_and_run(horizon=4.0)
        assert box.total_cycles() > 0
