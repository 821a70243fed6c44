"""Sharded fleet execution: partitioning, seeding, recorder, merge.

The load-bearing pin is shard-count invariance: the same
:class:`~repro.fleet.FleetSpec` partitioned into 1, 2 or 7 shards must
merge to byte-identical :class:`~repro.metrics.merge.FleetMetrics` —
down to the sha256 digest over the full per-aggregate columns — for
every enforcement scheme.  Everything the fleet layer is built on
(contiguous balanced partitioning, per-aggregate seeding, the columnar
recorder's binning semantics, the merge's canonical reduction order) is
pinned here too.
"""

from __future__ import annotations

import dataclasses
from array import array
from unittest import mock

import pytest

from repro.cc.endpoint import FlowDemux, TcpReceiver
from repro.fleet import (
    FleetRecorder,
    FleetSpec,
    ShardConfig,
    plan_for,
    run_fleet,
    shard_bounds,
    shard_configs,
    simulate_shard,
)
from repro.fleet import shard as shard_module
from repro.fleet.shard import _interned_policy
from repro.metrics.merge import merge_shard_summaries
from repro.metrics.recorder import Recorder
from repro.metrics.throughput import bin_layout, binned_bytes
from repro.net.impair import ImpairmentSpec
from repro.net.middlebox import Middlebox
from repro.net.packet import FlowId
from repro.net.trace import Trace
from repro.schemes import make_limiter
from repro.sim.simulator import Simulator
from repro.units import MSS
from repro.wiring import wire_flow

pytestmark = pytest.mark.fleet

SCHEMES = ("policer", "fairpolicer", "pqp", "bcpqp", "shaper")


class TestShardBounds:
    def test_contiguous_balanced_tiling(self):
        for aggregates in (1, 2, 7, 10, 23):
            for shards in range(1, aggregates + 1):
                bounds = [
                    shard_bounds(aggregates, shards, i) for i in range(shards)
                ]
                # tiles [0, aggregates) contiguously
                assert bounds[0][0] == 0
                assert bounds[-1][1] == aggregates
                for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert hi == lo
                # balanced within one
                sizes = [hi - lo for lo, hi in bounds]
                assert max(sizes) - min(sizes) <= 1

    def test_rejects_more_shards_than_aggregates(self):
        with pytest.raises(ValueError, match="cannot split"):
            shard_bounds(3, 4, 0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="outside"):
            shard_bounds(10, 2, 2)

    @pytest.mark.parametrize("shards", [0, -1])
    def test_rejects_fewer_than_one_shard_before_running(self, shards):
        # Not an empty sweep that then fails in the merge ("need at least
        # one shard summary"): the CLI stops before any shard runs.
        from repro.experiments import fleet_scale

        message = f"shards must be >= 1, got {shards}"
        with pytest.raises(ValueError, match=message):
            shard_configs(FleetSpec(aggregates=10), shards)
        with mock.patch("repro.fleet.run.run_tasks") as run_tasks, \
                pytest.raises(ValueError, match=message):
            fleet_scale._cli(["--aggregates", "10", "--shards", str(shards)])
        run_tasks.assert_not_called()


class TestPlanDeterminism:
    def test_plan_depends_only_on_seed_and_id(self):
        # The same aggregate id yields the same plan regardless of
        # population size or partitioning — the root of shard invariance.
        small = FleetSpec(aggregates=5, seed=9)
        large = FleetSpec(aggregates=500, seed=9)
        for aggregate in range(5):
            assert plan_for(small, aggregate) == plan_for(large, aggregate)

    def test_different_seeds_differ(self):
        a = [plan_for(FleetSpec(aggregates=8, seed=1), i) for i in range(8)]
        b = [plan_for(FleetSpec(aggregates=8, seed=2), i) for i in range(8)]
        assert a != b

    def test_policy_interning_shares_equal_shapes(self):
        spec = FleetSpec(aggregates=40, seed=3)
        cache: dict = {}
        plans = [plan_for(spec, i) for i in range(40)]
        policies = [_interned_policy(p, cache) for p in plans]
        # far fewer distinct policies than aggregates
        assert len(cache) < len(plans)
        for plan, policy in zip(plans, policies):
            assert policy is cache[plan.policy_key()]
            assert policy.num_queues == plan.num_flows


class TestFleetSpecValidation:
    def test_rejects_zero_aggregates(self):
        with pytest.raises(ValueError):
            FleetSpec(aggregates=0)

    def test_rejects_warmup_after_horizon(self):
        with pytest.raises(ValueError):
            FleetSpec(aggregates=1, warmup=2.0, horizon=1.0)

    def test_rejects_span_shorter_than_window(self):
        with pytest.raises(ValueError):
            FleetSpec(aggregates=1, warmup=0.2, horizon=0.3, window=0.25)

    @pytest.mark.parametrize("field,value", [("scheme", "nosuch")])
    def test_rejects_unknown_scheme_or_service(self, field, value):
        # Before any plan, recorder, Middlebox or worker process exists.
        with pytest.raises(ValueError) as excinfo:
            FleetSpec(aggregates=2, **{field: value})
        message = str(excinfo.value)
        assert field in message and repr(value) in message
        assert "bcpqp" in message

    def test_phantom_service_is_not_a_field(self):
        # Shards always run the fluid drain; a spec that still names the
        # discipline fails at construction instead of being ignored.
        with pytest.raises(TypeError, match="phantom_service"):
            FleetSpec(aggregates=2, phantom_service="fluid")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("horizon", float("nan")),
            ("warmup", float("nan")),
            ("window", float("inf")),
            ("window", 0.0),
            # An empty choice set used to be an IndexError from random.py
            # inside a shard worker, retried like a transient fault.
            ("rates_mbps", ()),
            ("ccs", ()),
        ],
    )
    def test_rejects_non_finite_interval_and_empty_choices(self, field, value):
        with pytest.raises(ValueError) as excinfo:
            FleetSpec(aggregates=2, **{field: value})
        message = str(excinfo.value)
        assert field in message and repr(value) in message

    def test_shard_config_validates_eagerly(self):
        with pytest.raises(ValueError):
            ShardConfig(spec=FleetSpec(aggregates=2), shards=3, index=2)


def _shard_trace(spec: FleetSpec):
    """Run one unsharded shard with a Trace in place of the recorder."""
    sim = Simulator()
    box = Middlebox(sim)
    demux = FlowDemux()
    plans = [plan_for(spec, a) for a in range(spec.aggregates)]
    trace = Trace(sim, demux)
    policies: dict = {}
    for plan in plans:
        limiter = make_limiter(
            sim,
            spec.scheme,
            rate=plan.rate,
            num_queues=plan.num_flows,
            max_rtt=plan.max_rtt,
            policy=_interned_policy(plan, policies),
        )
        limiter.connect(trace)
        box.add_aggregate(plan.aggregate, limiter)
        for fs in plan.specs:
            wire_flow(
                sim,
                FlowId(plan.aggregate, fs.slot, 0),
                cc=fs.cc,
                rtt=fs.rtt,
                ingress=box,
                demux=demux,
                packets=None,
                start=fs.start,
            )
    sim.run(until=spec.horizon)
    return trace, plans


class TestRecorderByteIdentity:
    def test_binning_matches_posthoc_trace_binning(self):
        # The recorder streams bytes into bins during the run; binning a
        # full trace afterwards with the classic metrics path must give
        # the exact same floats, aggregate by aggregate.
        spec = FleetSpec(aggregates=6, seed=21, horizon=0.93, warmup=0.2)
        summary = simulate_shard(ShardConfig(spec=spec, shards=1, index=0))
        trace, plans = _shard_trace(spec)
        nbins, _last = bin_layout(spec.window, spec.warmup, spec.horizon)
        assert summary.nbins == nbins
        for row, plan in enumerate(plans):
            classic = binned_bytes(
                (r for r in trace if r.flow.aggregate == plan.aggregate),
                window=spec.window, start=spec.warmup, end=spec.horizon,
            )
            streamed = list(
                summary.binned_bytes[row * nbins:(row + 1) * nbins]
            )
            assert streamed == classic
            assert summary.goodput_bytes[row] == sum(classic)

    def test_slot_goodput_matches_window_filtered_trace(self):
        spec = FleetSpec(aggregates=5, seed=12, horizon=0.9, warmup=0.2)
        summary = simulate_shard(ShardConfig(spec=spec, shards=1, index=0))
        trace, plans = _shard_trace(spec)
        for row, plan in enumerate(plans):
            for fs in plan.specs:
                want = sum(
                    s
                    for t, f, s in zip(
                        trace.times, trace.flow_ids, trace.sizes
                    )
                    if f.aggregate == plan.aggregate
                    and f.slot == fs.slot
                    and spec.warmup <= t < spec.horizon
                )
                got = summary.slot_goodput[
                    summary.slot_offsets[row] + fs.slot
                ]
                assert got == want

    def test_recorder_counts_only_data_packets_in_window(self):
        sim = Simulator()
        recorder = FleetRecorder(
            sim,
            FlowDemux(),
            lo=0,
            slot_counts=[1],
            window=0.25,
            warmup=0.2,
            horizon=0.7,
        )
        from repro.net.packet import Packet

        flow = FlowId(0, 0, 0)
        sim._now = 0.1  # before warmup
        recorder.receive(Packet.data(flow, 0, sim.now))
        sim._now = 0.3  # in window
        recorder.receive(Packet.data(flow, 1, sim.now))
        corrupted = Packet.data(flow, 2, sim.now)
        corrupted.corrupt = True  # a failed checksum is not goodput
        recorder.receive(corrupted)
        sim._now = 0.7  # at the horizon
        recorder.receive(Packet.data(flow, 3, sim.now))
        assert list(recorder.goodput_bytes()) == [MSS]

    def test_impaired_goodput_is_what_the_receivers_accepted(
        self, monkeypatch
    ):
        # Arrived is not arrived intact: a failed checksum used up the
        # limiter's tokens but the receiver drops it, so it is not goodput.
        receivers = []
        init = TcpReceiver.__init__

        def remember(receiver, *args):
            init(receiver, *args)
            receivers.append(receiver)

        monkeypatch.setattr(TcpReceiver, "__init__", remember)
        spec = FleetSpec(aggregates=4, seed=3, warmup=0.0, horizon=2.0,
                         impair=ImpairmentSpec(corrupt=0.05))
        summary = simulate_shard(ShardConfig(spec=spec, shards=1, index=0))
        assert sum(r.corrupt_dropped for r in receivers) > 20
        assert sum(summary.goodput_bytes) == sum(
            r.data_bytes for r in receivers)


class TestShardInvariance:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_merged_metrics_byte_identical_across_shard_counts(self, scheme):
        # The tentpole pin: shards in {1, 2, 7} produce equal
        # FleetMetrics — full dataclass equality, digest included.
        spec = FleetSpec(
            aggregates=7, seed=31, scheme=scheme, horizon=0.8, warmup=0.2
        )
        base = run_fleet(spec, shards=1).metrics
        assert base.arrived_packets > 0
        for shards in (2, 7):
            merged = run_fleet(spec, shards=shards).metrics
            assert merged == base
            assert merged.digest == base.digest

    def test_parallel_workers_byte_identical_to_serial(self):
        spec = FleetSpec(aggregates=6, seed=4, horizon=0.8, warmup=0.2)
        serial = run_fleet(spec, shards=3).metrics
        parallel = run_fleet(spec, shards=3, jobs=2).metrics
        assert parallel == serial

    def test_validation_does_not_change_outcomes(self):
        plain = FleetSpec(aggregates=4, seed=8, horizon=0.7, warmup=0.2)
        checked = dataclasses.replace(plain, validate=True)
        a = run_fleet(plain, shards=2).metrics
        b = run_fleet(checked, shards=2).metrics
        assert a == b


#: What a shard's clock and host put on its summary; everything else on
#: it is an outcome of the simulation.
_HOST_FIELDS = {"setup_seconds", "run_seconds", "cpu_seconds", "peak_rss_bytes"}


def _driven(spec: FleetSpec, cuts=(), *, reverse=False) -> dict:
    """``simulate_shard`` with its one ``sim.run(until=horizon)`` taken in
    pieces — a run up to each of ``cuts``, then the rest — and, with
    ``reverse``, its lanes drained last-built first.  Returns everything
    observable: the summary's columns and counters, the merged digest and
    every row's slot series in the recorder's dict order."""
    seen = {}

    class DrivenSimulator(Simulator):
        def run(self, until=None, max_events=None):
            if reverse:
                self._lanes.reverse()
            for cut in (*cuts, until):
                super().run(until=cut)

    class KeptRecorder(Recorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen["recorder"] = self

    with mock.patch.object(shard_module, "Simulator", DrivenSimulator), \
            mock.patch.object(shard_module, "Recorder", KeptRecorder):
        summary = simulate_shard(ShardConfig(spec, 1, 0))
    observed = {
        name: value
        for name, value in dataclasses.asdict(summary).items()
        if name not in _HOST_FIELDS
    }
    observed["digest"] = merge_shard_summaries([summary]).digest
    observed["slot_series"] = [
        [(slot, series.times, series.values)
         for slot, series in seen["recorder"].slot_series(row).items()]
        for row in range(spec.aggregates)
    ]
    return observed


_LANE_FLEET = dict(aggregates=8, seed=13, horizon=1.2, warmup=0.2)


class TestLaneInvariance:
    """``simulate_shard`` gives every aggregate an event lane, so how far
    one aggregate has run when the next one starts depends on how
    ``run(until)`` is sliced and on the order the lanes are drained in.
    Nothing observable may: a lane boundary that cut through an
    aggregate (say one lane per flow) would fail every case here."""

    @pytest.mark.parametrize("variant", [
        *({"scheme": scheme} for scheme in SCHEMES),
        {"impair": ImpairmentSpec(loss=0.02, jitter=0.003, reorder=0.05,
                                  reorder_extra=0.002)},
        {"churn_actions": 4},
        {"validate": True},
    ], ids=lambda v: "-".join(f"{k}={getattr(x, 'loss', x)}"
                              for k, x in v.items()))
    def test_outcome_independent_of_slicing_and_lane_order(self, variant):
        spec = FleetSpec(**_LANE_FLEET, **variant)
        one_shot = _driven(spec)
        assert one_shot["lanes"] == spec.aggregates
        assert sum(one_shot["arrived_packets"]) > 0
        assert any(len(row) > 1 for row in one_shot["slot_series"])
        if spec.churn_actions:
            assert one_shot["updates_applied"] > 0
        steps = round(spec.horizon / 0.05)
        even = tuple(0.05 * k for k in range(1, steps))
        ragged = (0.37, 0.37 + 1e-9)
        assert _driven(spec, even) == one_shot
        assert _driven(spec, ragged) == one_shot
        if not spec.validate:
            # (The checker knows a component's lane by its index, which
            # reversing the list renumbers.)
            assert _driven(spec, reverse=True) == one_shot
            assert _driven(spec, even, reverse=True) == one_shot

    def test_summary_reports_lanes_and_the_deepest_heap(self):
        spec = FleetSpec(**_LANE_FLEET)
        whole, = (simulate_shard(c) for c in shard_configs(spec, 1))
        halves = [simulate_shard(c) for c in shard_configs(spec, 2)]
        assert [s.lanes for s in halves] == [4, 4] and whole.lanes == 8
        # The deepest heap is one aggregate's, whoever its neighbours are.
        assert whole.peak_heap == max(s.peak_heap for s in halves) > 0
        # A summary pickled before the fields existed still loads.
        old = dataclasses.replace(whole)
        del old.__dict__["lanes"], old.__dict__["peak_heap"]
        assert (old.lanes, old.peak_heap) == (0, 0)


class TestMerge:
    def _summaries(self, shards: int):
        spec = FleetSpec(aggregates=8, seed=17, horizon=0.8, warmup=0.2)
        return [simulate_shard(c) for c in shard_configs(spec, shards)]

    def test_merge_accepts_any_summary_order(self):
        summaries = self._summaries(3)
        a = merge_shard_summaries(summaries)
        b = merge_shard_summaries(list(reversed(summaries)))
        assert a == b

    def test_merge_rejects_gapped_partition(self):
        summaries = self._summaries(3)
        with pytest.raises(ValueError, match="tile"):
            merge_shard_summaries([summaries[0], summaries[2]])

    def test_merge_rejects_parameter_mismatch(self):
        summaries = self._summaries(2)
        bad = dataclasses.replace(summaries[1], window=0.5)
        with pytest.raises(ValueError, match="disagree"):
            merge_shard_summaries([summaries[0], bad])

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_shard_summaries([])

    def test_digest_covers_per_aggregate_columns(self):
        # Two runs whose fleet-level totals agree but whose per-aggregate
        # columns differ must produce different digests.
        summaries = self._summaries(2)
        base = merge_shard_summaries(summaries)
        perturbed = dataclasses.replace(
            summaries[0],
            goodput_bytes=array(
                "d",
                [
                    v + (1.0 if i == 0 else -1.0)
                    for i, v in enumerate(summaries[0].goodput_bytes[:2])
                ]
                + list(summaries[0].goodput_bytes[2:]),
            ),
        )
        other = merge_shard_summaries([perturbed, summaries[1]])
        assert other.digest != base.digest

    def test_op_counts_and_cycles_sum_across_shards(self):
        summaries = self._summaries(4)
        merged = merge_shard_summaries(summaries)
        assert merged.modeled_cycles == pytest.approx(
            sum(sum(s.modeled_cycles) for s in summaries)
        )
        total_ops = sum(merged.op_counts.values())
        assert total_ops > 0


class TestFleetSmoke:
    def test_isolated_shards_report_rss_and_match(self):
        spec = FleetSpec(aggregates=4, seed=2, horizon=0.7, warmup=0.2)
        plain = run_fleet(spec, shards=2)
        isolated = run_fleet(spec, shards=2, isolate=True)
        assert isolated.metrics == plain.metrics
        assert all(s.peak_rss_bytes > 0 for s in isolated.summaries)

    def test_result_accounting(self):
        spec = FleetSpec(aggregates=4, seed=2, horizon=0.7, warmup=0.2)
        result = run_fleet(spec, shards=2)
        assert result.us_per_packet > 0
        assert result.run_seconds > 0
        assert result.total_flows == sum(s.flows for s in result.summaries)
        assert result.metrics.cycles_per_packet > 0

    def test_experiments_cli_entry(self, capsys):
        from repro.experiments import fleet_scale

        result = fleet_scale.main(
            fleet_scale.Config(aggregates=6, shards=2, horizon=0.7)
        )
        out = capsys.readouterr().out
        assert "Fleet: 6 aggregates" in out
        assert result.metrics.digest[:12] in out
