"""The paper's figure shapes: who wins, in which direction, by roughly
how much.

Every figure module runs once at a scaled-down configuration and its
result is held to the qualitative claim the figure makes, so a
regression in the algorithms fails here.  ``test_experiments.py`` beside
this file only checks that the harness runs; EXPERIMENTS.md records the
numbers at full scale.

The last three tests are ablations of BC-PQP's design choices:

* **Phantom service discipline** — the fluid (GPS) idealization vs the
  paper's batched-DRR dequeues: end-to-end behaviour should be
  indistinguishable, validating the idealization used by default.
* **Buffer-size insensitivity** — §4's "it does not matter how high a
  value we set for the phantom queue size" once burst control is on
  (whereas plain PQP's burst grows with the queue).
* **Burst-control thresholds** — theta+/T govern the burst bound
  (X+ = theta+ r*_i T): larger budgets trade burst for utilization.
"""

import random

from repro import AggregateScenario, FlowSpec, Simulator, make_limiter
from repro.experiments import (
    appendix_a,
    ext_ecn,
    fig1_motivation,
    fig2_sizing,
    fig3_secondary_bottleneck,
    fig4_rate_enforcement,
    fig5_efficiency,
    fig6_policy,
    fig7_applications,
    fig9_video_timeseries,
)
from repro.metrics import jain_index
from repro.units import mbps, ms, to_mbps
from repro.workload.aggregates import Section61Config


def test_fig1_motivation():
    config = fig1_motivation.Config(horizon=10.0, warmup=4.0)
    result = fig1_motivation.run(config)

    # 1a: the shaper enforces fairness; the policer does not — and the
    # shaper pays for it with far more CPU work per packet.
    assert result.fairness["shaper"] > 0.95
    assert result.fairness["policer"] < 0.8
    assert result.cycles_per_packet["shaper"] > \
        5 * result.cycles_per_packet["policer"]

    # 1b: bigger buckets improve the average rate but inflate the peak.
    mults = sorted(result.bucket_tradeoff)
    avg_small, peak_small = result.bucket_tradeoff[mults[0]]
    avg_large, peak_large = result.bucket_tradeoff[mults[-1]]
    assert avg_small < 0.95          # small bucket under-enforces
    assert avg_large > 0.95          # large bucket reaches the rate
    assert peak_large > peak_small   # ...at the cost of burst


def test_fig2_sizing():
    config = fig2_sizing.Config(
        buffer_kb=(100, 500, 1000, 4000), horizon=30.0, warmup=8.0)
    result = fig2_sizing.run(config)

    target = to_mbps(config.rate)
    avg = {kb: vals[0] for kb, vals in result.by_buffer.items()}
    drop = {kb: vals[2] for kb, vals in result.by_buffer.items()}

    # Below the Appendix-A minimum (~579 KB): under-enforcement.
    assert avg[100] < 0.9 * target
    # At the paper's 1000 KB: correct enforcement...
    assert abs(avg[1000] - target) < 0.07 * target
    # ...and "a 4000 KB queue does as good a rate enforcement as 1000 KB".
    assert abs(avg[4000] - target) < 0.07 * target
    # Larger queues only buy more drops.
    assert drop[4000] > drop[1000] > drop[100]


def test_fig3_secondary_bottleneck():
    config = fig3_secondary_bottleneck.Config(horizon=25.0, warmup=8.0)
    result = fig3_secondary_bottleneck.run(config)

    # BC-PQP's clipped bursts barely touch the 8.5 Mbps hop; PQP's
    # O(BDP^2) queues hammer it.
    assert result.bottleneck_drops["pqp"] > \
        3 * max(result.bottleneck_drops["bcpqp"], 1)
    # Short-timescale fairness is better preserved under BC-PQP.
    assert result.mean_window_fairness["bcpqp"] >= \
        result.mean_window_fairness["pqp"] - 0.02
    assert result.mean_window_fairness["bcpqp"] > 0.85


def test_fig4_rate_enforcement():
    config = fig4_rate_enforcement.Config(
        workload=Section61Config(
            num_aggregates=6,
            rates=(mbps(1.5), mbps(7.5), mbps(25.0)),
            flows_per_aggregate=4,
            horizon=10.0,
            seed=7,
        ),
        warmup=3.0,
    )
    results = fig4_rate_enforcement.run(config)

    # 4a: the shaper's instantaneous rate is the tightest; every scheme
    # keeps the median close to the enforced rate.
    assert results["shaper"].p99 < 1.05
    for scheme in ("shaper", "policer", "policer+", "bcpqp"):
        assert 0.9 < results[scheme].p50 <= 1.05

    # 4b: Policer+ and FP have the long burst tails; BC-PQP's tail is
    # far smaller.
    assert results["policer+"].peak > 1.5
    assert results["bcpqp"].peak < results["policer+"].peak
    assert results["bcpqp"].peak < results["fairpolicer"].peak

    # 4c: average enforcement within ~10% of the rate for all schemes.
    for scheme, summary in results.items():
        assert 0.85 < summary.mean_normalized < 1.1, scheme

    # 4d: drops fall as the BDP grows (rate increases) for the policer.
    drops = results["policer"].drop_rate_by_rate
    assert drops[mbps(1.5)] > drops[mbps(25.0)]


def test_fig5_modeled_cycles():
    config = fig5_efficiency.Config(horizon=8.0, warmup=2.0)
    result = fig5_efficiency.run(config)
    ratios = result.ratio_to("policer")

    # The paper's ranking: shaper >> FP > phantom schemes > policer.
    assert ratios["shaper"] > ratios["fairpolicer"] > 1.0
    assert ratios["shaper"] > ratios["bcpqp"] > 1.0
    # "BC-PQP uses 5-7x fewer CPU cycles per packet [than the shaper]".
    assert result.cycles_per_packet["shaper"] > \
        4 * result.cycles_per_packet["bcpqp"]
    # "...and is marginally costlier than a simple policer" (1.5-2x).
    assert ratios["bcpqp"] < 2.5
    # Batched phantom dequeues keep BC-PQP at or below FP's per-packet cost.
    assert ratios["bcpqp"] <= ratios["fairpolicer"] * 1.1


def test_fig6_policy():
    config = fig6_policy.Config(
        workload=Section61Config(
            num_aggregates=4,
            rates=(mbps(7.5), mbps(25.0)),
            flows_per_aggregate=4,
            horizon=10.0,
            seed=11,
        ),
        warmup=3.0,
        packets_per_weight=400,
        weighted_horizon=30.0,
        nested_horizon=15.0,
    )
    result = fig6_policy.run(config)

    # 6a: BC-PQP's fairness tracks the shaper's and beats the policer's.
    mean = {s: m for s, (_p10, _p50, m) in result.fairness_cdf.items()}
    assert mean["bcpqp"] > mean["policer"]
    assert abs(mean["bcpqp"] - mean["shaper"]) < 0.1

    # 6b/6c: weight-proportional flows complete together under BC-PQP;
    # FairPolicer cannot do weighted sharing.
    bc_spread, bc_wj = result.weighted["bcpqp"]
    fp_spread, fp_wj = result.weighted["fairpolicer"]
    assert bc_spread < 3.0
    assert bc_wj > 0.95
    assert fp_spread > 2 * bc_spread or fp_wj < bc_wj - 0.2

    # 6d: strict priority holds while the high-priority group is active.
    assert result.nested_high_share > 0.9
    assert result.nested_low_share_when_high_active < 0.1


def test_fig7_applications():
    config = fig7_applications.Config(
        video_chunks=12, web_pages=8, horizon=80.0)
    result = fig7_applications.run(config)

    # 7a: BC-PQP shares the 3 Mbps fairly between the video and the rest;
    # the status-quo policer lets the BBR video hog the link.
    for service in ("youtube", "netflix"):
        assert result.video[("bcpqp", service)].fairness > 0.95
        assert result.video[("bcpqp", service)].average_quality > 1.0
    assert result.video[("policer", "youtube")].fairness < 0.8

    # 7b: with a non-yielding bulk download, the status-quo schemes starve
    # the web class; weighted BC-PQP keeps pages loading.
    bc_p50, _bc_p90, bc_pages = result.web["bcpqp"]
    _pol_p50, _pol_p90, pol_pages = result.web["policer"]
    assert bc_pages >= 6
    assert pol_pages < bc_pages / 2
    assert bc_p50 < 15.0


def test_fig9_video_timeseries():
    config = fig9_video_timeseries.Config(chunks=15, horizon=100.0)
    result = fig9_video_timeseries.run(config)

    # Through the policer the BBR video hogs most of the bandwidth
    # (Appendix B); BC-PQP pins it at its fair half.
    assert result.video_share["policer"] > 0.75
    assert 0.35 < result.video_share["bcpqp"] < 0.65
    # The DRR shaper also shares fairly (at the cost of queueing delay).
    assert 0.35 < result.video_share["shaper"] < 0.65


def test_appendix_a_bound():
    config = appendix_a.Config(
        points=((mbps(10), ms(100)), (mbps(25), ms(50))),
        multipliers=(0.25, 1.0, 4.0),
        horizon=30.0,
        warmup=8.0,
    )
    results = appendix_a.run(config)

    for point in results:
        # Below the bound: clear under-enforcement; at/above: near-exact.
        assert point.achieved[0.25] < 0.93
        assert point.achieved[1.0] > 0.93
        assert point.achieved[4.0] > 0.95
        assert point.achieved[0.25] < point.achieved[1.0]
        # Steady-state oscillation stays near the analytic [2r/3, 4r/3].
        p10, p90 = point.oscillation
        assert 0.55 < p10 < 1.0
        assert 1.0 < p90 < 1.45


def test_ext_ecn():
    config = ext_ecn.Config(horizon=15.0, warmup=5.0)
    result = ext_ecn.run(config)

    plain = result.cells[("pqp", False)]
    marked = result.cells[("pqp", True)]
    # Marking keeps rate and fairness...
    assert abs(marked.mean_normalized - plain.mean_normalized) < 0.05
    assert marked.fairness > 0.95
    # ...while (nearly) eliminating loss and retransmissions.
    assert marked.drop_rate < plain.drop_rate / 5
    assert marked.retransmits < plain.retransmits / 5
    assert marked.marked_packets > 0


def _ablate(scheme, *, horizon=15.0, warmup=5.0, seed=2, **kwargs):
    sim = Simulator()
    limiter = make_limiter(sim, scheme, rate=mbps(10), num_queues=4,
                           max_rtt=ms(50), **kwargs)
    specs = [FlowSpec(slot=i, cc=cc, rtt=ms(10 + 10 * i))
             for i, cc in enumerate(["reno", "cubic", "bbr", "vegas"])]
    scenario = AggregateScenario(sim, limiter=limiter, specs=specs,
                                 rng=random.Random(seed), horizon=horizon,
                                 warmup=warmup)
    scenario.run()
    agg = scenario.recorder.aggregate_series()
    slots = scenario.recorder.slot_series()
    return {
        "mean": agg.mean() / mbps(10),
        "peak": agg.max() / mbps(10),
        "jain": jain_index([s.mean() for s in slots.values()]),
        "drops": limiter.stats.drop_rate,
    }


def test_ablation_phantom_service():
    """Fluid GPS vs quantum DRR phantom service: same end-to-end story."""
    results = {svc: _ablate("bcpqp", phantom_service=svc)
               for svc in ("fluid", "quantum")}
    fluid, quantum = results["fluid"], results["quantum"]
    assert abs(fluid["mean"] - quantum["mean"]) < 0.06
    assert abs(fluid["jain"] - quantum["jain"]) < 0.08
    assert abs(fluid["drops"] - quantum["drops"]) < 0.08


def test_ablation_buffer_insensitivity():
    """BC-PQP's behaviour is flat across a 100x buffer range; plain PQP's
    burst grows with the buffer (the §4 auto-sizing claim)."""
    base = 75_000.0  # ~ the Reno minimum for these parameters
    results = {
        scheme: {mult: _ablate(scheme, queue_bytes=base * mult)
                 for mult in (1.0, 10.0, 100.0)}
        for scheme in ("bcpqp", "pqp")
    }
    bc = results["bcpqp"]
    # Enforcement accuracy flat to within a few percent across 100x.
    means = [bc[m]["mean"] for m in (1.0, 10.0, 100.0)]
    assert max(means) - min(means) < 0.08
    # Burst and fairness stay controlled at every size.
    assert all(bc[m]["peak"] < 1.45 for m in (1.0, 10.0, 100.0))
    assert all(bc[m]["jain"] > 0.85 for m in (1.0, 10.0, 100.0))
    # Plain PQP's drop behaviour swings with the buffer size (the sizing
    # conundrum §3.5 describes: small queues starve, huge queues absorb a
    # multi-second slow-start backlog), while BC-PQP's stays put.
    pqp = results["pqp"]
    pqp_spread = max(p["drops"] for p in pqp.values()) - \
        min(p["drops"] for p in pqp.values())
    bc_spread = max(b["drops"] for b in bc.values()) - \
        min(b["drops"] for b in bc.values())
    assert bc_spread < pqp_spread + 0.05


def test_ablation_burst_thresholds():
    """theta+ sweep: looser thresholds allow larger bursts."""
    results = {tp: _ablate("bcpqp", theta_plus=tp, horizon=20.0)
               for tp in (1.5, 3.0, 6.0)}
    # Burst (peak normalized throughput) grows with theta+.
    assert results[6.0]["peak"] >= results[1.5]["peak"] - 0.05
    # Rate enforcement stays correct at the paper's default.
    assert results[1.5]["mean"] > 0.9
