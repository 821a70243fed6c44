"""Smoke tests for the experiment harness: every figure module runs at a
tiny scale and produces structurally sane results.  (The figure *shapes*
are asserted in ``test_figure_shapes.py``; these tests catch harness
breakage quickly.)"""

import pytest

from repro.experiments import (
    appendix_a,
    common,
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
from repro.runner import AggregateConfig, simulate_aggregate
from repro.units import mbps, ms
from repro.workload.aggregates import Section61Config
from repro.workload.spec import FlowSpec


class TestCommonHarness:
    def test_run_aggregate_measures_everything(self):
        result = simulate_aggregate(AggregateConfig(
            scheme="bcpqp",
            specs=(FlowSpec(slot=0, cc="reno", rtt=ms(20)),),
            rate=mbps(10),
            max_rtt=ms(50),
            horizon=5.0,
            warmup=1.0,
        ))
        assert result.scheme == "bcpqp"
        assert 0.5 < result.mean_normalized_throughput < 1.3
        assert result.peak_normalized_throughput >= \
            result.mean_normalized_throughput * 0.9
        assert 0.0 <= result.drop_rate <= 1.0
        assert result.cycles_per_packet > 0
        assert 0.0 <= result.fairness <= 1.0

    def test_print_table_smoke(self, capsys):
        common.print_table(["a", "bb"], [[1, 2], [3, 4]])
        out = capsys.readouterr().out
        assert "a" in out and "bb" in out and "3" in out


class TestFigureModules:
    def test_fig1(self):
        result = fig1_motivation.run(fig1_motivation.Config(
            horizon=4.0, warmup=1.0, bucket_multipliers=(0.5, 4.0)))
        assert set(result.fairness) == {"shaper", "policer"}
        assert len(result.bucket_tradeoff) == 2

    def test_fig2(self):
        result = fig2_sizing.run(fig2_sizing.Config(
            buffer_kb=(250, 1000), horizon=8.0, warmup=2.0))
        assert result.analytic_min_bytes == pytest.approx(579e3, rel=0.01)
        assert set(result.by_buffer) == {250, 1000}

    def test_fig3(self):
        result = fig3_secondary_bottleneck.run(
            fig3_secondary_bottleneck.Config(horizon=8.0, warmup=3.0))
        assert set(result.bottleneck_drops) == {"pqp", "bcpqp"}
        for jain in result.mean_window_fairness.values():
            assert 0.0 <= jain <= 1.0

    def test_fig4(self):
        config = fig4_rate_enforcement.Config(
            workload=Section61Config(
                num_aggregates=2, rates=(mbps(7.5),),
                flows_per_aggregate=2, horizon=4.0, seed=3),
            warmup=1.0,
            schemes=("policer", "bcpqp"),
        )
        results = fig4_rate_enforcement.run(config)
        assert set(results) == {"policer", "bcpqp"}
        for summary in results.values():
            assert summary.normalized_samples
            assert mbps(7.5) in summary.drop_rate_by_rate

    def test_fig5(self):
        result = fig5_efficiency.run(fig5_efficiency.Config(
            horizon=4.0, warmup=1.0, schemes=("policer", "bcpqp")))
        assert result.cycles_per_packet["bcpqp"] > \
            result.cycles_per_packet["policer"]
        ratios = result.ratio_to("policer")
        assert ratios["policer"] == 1.0

    def test_fig6_weighted_only(self):
        config = fig6_policy.Config(
            workload=Section61Config(
                num_aggregates=2, rates=(mbps(7.5),),
                flows_per_aggregate=2, horizon=4.0, seed=3),
            warmup=1.0,
            fairness_schemes=("bcpqp",),
            packets_per_weight=100,
            weights=(1, 2),
            weighted_horizon=15.0,
            nested_horizon=6.0,
        )
        result = fig6_policy.run(config)
        assert "bcpqp" in result.fairness_cdf
        assert set(result.weighted) == {"fairpolicer", "bcpqp"}

    def test_fig7(self):
        result = fig7_applications.run(fig7_applications.Config(
            video_chunks=4, web_pages=3, horizon=40.0))
        assert ("bcpqp", "youtube") in result.video
        assert "bcpqp" in result.web

    def test_fig9(self):
        result = fig9_video_timeseries.run(fig9_video_timeseries.Config(
            chunks=4, horizon=40.0))
        for scheme in fig9_video_timeseries.SCHEMES:
            assert 0.0 <= result.video_share[scheme] <= 1.0

    def test_appendix_a(self):
        results = appendix_a.run(appendix_a.Config(
            points=((mbps(10), ms(50)),), multipliers=(0.5, 2.0),
            horizon=10.0, warmup=3.0))
        assert len(results) == 1
        assert set(results[0].achieved) == {0.5, 2.0}

    def test_ext_ecn(self):
        result = ext_ecn.run(ext_ecn.Config(horizon=6.0, warmup=2.0))
        assert ("pqp", True) in result.cells
        assert result.cells[("pqp", True)].marked_packets > 0
