"""Integration tests: full scenarios through the wiring harness."""

import random

import pytest

from repro import (
    AggregateScenario,
    BottleneckSpec,
    FlowSpec,
    OnOffSpec,
    Simulator,
    make_limiter,
)
from repro.metrics import jain_index
from repro.units import mbps, ms


def run_scenario(scheme, specs, *, rate=mbps(10), max_rtt=ms(50),
                 horizon=10.0, warmup=5.0, bottleneck=None, seed=1,
                 **limiter_kwargs):
    sim = Simulator()
    limiter = make_limiter(sim, scheme, rate=rate,
                           num_queues=max(s.slot for s in specs) + 1,
                           max_rtt=max_rtt, **limiter_kwargs)
    scenario = AggregateScenario(
        sim, limiter=limiter, specs=specs, rng=random.Random(seed),
        horizon=horizon, warmup=warmup, bottleneck=bottleneck)
    scenario.run()
    return scenario, limiter


class TestSingleFlow:
    @pytest.mark.parametrize("cc", ["reno", "cubic", "bbr", "vegas"])
    def test_backlogged_flow_achieves_rate_through_bcpqp(self, cc):
        specs = [FlowSpec(slot=0, cc=cc, rtt=ms(30))]
        sc, limiter = run_scenario("bcpqp", specs, horizon=15.0)
        agg = sc.recorder.aggregate_series()
        assert agg.mean() == pytest.approx(mbps(10), rel=0.15)

    def test_finite_flow_completes_and_is_recorded(self):
        specs = [FlowSpec(slot=0, cc="reno", rtt=ms(20), packets=200)]
        sc, _ = run_scenario("shaper", specs, horizon=20.0)
        records = sc.flow_records
        assert len(records) == 1
        assert records[0].packets == 200
        assert 0 < records[0].duration < 20.0

    def test_app_limited_flow_unaffected(self):
        """A flow sending below the enforced rate sees no drops (§3.5
        footnote: app-limited senders are not affected by policing)."""
        specs = [FlowSpec(slot=0, cc="reno", rtt=ms(20), packets=50,
                          on_off=OnOffSpec(burst_packets_mean=20,
                                           off_time_mean=1.0))]
        sc, limiter = run_scenario("bcpqp", specs, rate=mbps(50),
                                   horizon=10.0)
        assert limiter.stats.drop_rate < 0.02


class TestMultiFlowFairness:
    def test_bcpqp_matches_shaper_fairness(self):
        specs = [FlowSpec(slot=i, cc=cc, rtt=ms(10 + 10 * i))
                 for i, cc in enumerate(["reno", "cubic", "bbr", "vegas"])]
        results = {}
        for scheme in ("shaper", "bcpqp", "policer"):
            sc, _ = run_scenario(scheme, specs, horizon=15.0, seed=2)
            slots = sc.recorder.slot_series()
            results[scheme] = jain_index([s.mean() for s in slots.values()])
        assert results["bcpqp"] > 0.9
        assert results["bcpqp"] > results["policer"]
        assert abs(results["bcpqp"] - results["shaper"]) < 0.1

    def test_weighted_sharing_with_bcpqp(self):
        weights = [1.0, 3.0]
        specs = [FlowSpec(slot=i, cc="cubic", rtt=ms(20), weight=w)
                 for i, w in enumerate(weights)]
        sc, _ = run_scenario("bcpqp", specs, weights=weights, horizon=15.0)
        slots = sc.recorder.slot_series()
        ratio = slots[1].mean() / slots[0].mean()
        assert ratio == pytest.approx(3.0, rel=0.25)

    def test_prioritization_with_bcpqp(self):
        from repro.policy.tree import Policy
        specs = [FlowSpec(slot=0, cc="cubic", rtt=ms(20)),
                 FlowSpec(slot=1, cc="cubic", rtt=ms(20))]
        sc, _ = run_scenario("bcpqp", specs, horizon=15.0,
                             policy=Policy.prioritized([0, 1]))
        slots = sc.recorder.slot_series()
        # High-priority flow takes (nearly) everything; the low-priority
        # flow may be starved out of the measurement window entirely.
        low = slots[1].mean() if 1 in slots else 0.0
        assert slots[0].mean() > 8 * max(low, slots[0].mean() / 20)


class TestOnOffFlows:
    def test_on_off_slot_relaunches(self):
        specs = [FlowSpec(slot=0, cc="reno", rtt=ms(10),
                          on_off=OnOffSpec(burst_packets_mean=30,
                                           off_time_mean=0.2))]
        sc, _ = run_scenario("bcpqp", specs, horizon=10.0)
        assert len(sc.flow_records) >= 3
        incarnations = {r.incarnation for r in sc.flow_records}
        assert len(incarnations) == len(sc.flow_records)

    def test_flow_records_have_consistent_times(self):
        specs = [FlowSpec(slot=0, cc="cubic", rtt=ms(10),
                          on_off=OnOffSpec(burst_packets_mean=20,
                                           off_time_mean=0.1))]
        sc, _ = run_scenario("shaper", specs, horizon=8.0)
        for r in sc.flow_records:
            assert r.end > r.start >= 0.0


class TestSecondaryBottleneck:
    def test_bottleneck_limits_delivery(self):
        specs = [FlowSpec(slot=0, cc="cubic", rtt=ms(20))]
        sc, _ = run_scenario(
            "pqp", specs, rate=mbps(10), horizon=10.0, warmup=3.0,
            bottleneck=BottleneckSpec(rate=mbps(5), buffer_bytes=30 * 1500))
        agg = sc.recorder.aggregate_series()
        assert agg.max() <= mbps(5) * 1.05

    def test_bottleneck_drops_accounted(self):
        specs = [FlowSpec(slot=0, cc="cubic", rtt=ms(20))]
        sc, _ = run_scenario(
            "pqp", specs, rate=mbps(10), horizon=10.0,
            bottleneck=BottleneckSpec(rate=mbps(5), buffer_bytes=10 * 1500))
        assert sc.bottleneck is not None
        assert sc.bottleneck.dropped_packets > 0


class TestScenarioValidation:
    def test_duplicate_slots_rejected(self):
        sim = Simulator()
        limiter = make_limiter(sim, "policer", rate=mbps(1), num_queues=1,
                               max_rtt=ms(50))
        with pytest.raises(ValueError):
            AggregateScenario(sim, limiter=limiter,
                              specs=[FlowSpec(slot=0), FlowSpec(slot=0)],
                              rng=random.Random(1))

    def test_empty_specs_rejected(self):
        sim = Simulator()
        limiter = make_limiter(sim, "policer", rate=mbps(1), num_queues=1,
                               max_rtt=ms(50))
        with pytest.raises(ValueError):
            AggregateScenario(sim, limiter=limiter, specs=[],
                              rng=random.Random(1))

    def test_same_seed_is_deterministic(self):
        specs = [FlowSpec(slot=0, cc="reno", rtt=ms(10),
                          on_off=OnOffSpec(burst_packets_mean=30,
                                           off_time_mean=0.2))]
        a, _ = run_scenario("bcpqp", specs, horizon=5.0, warmup=0.0, seed=3)
        b, _ = run_scenario("bcpqp", specs, horizon=5.0, warmup=0.0, seed=3)
        assert [r.packets for r in a.flow_records] == \
            [r.packets for r in b.flow_records]
        assert a.recorder.cells == b.recorder.cells
        assert any(a.recorder.cells)
