"""Impairment channels: gates, jitter pipe, trace links, and the
impaired-engine equivalence properties.

The module-level properties pin the contract the tentpole rests on:

* gate statistics match their specs (GE stationary loss rate);
* impaired flows still complete with a contiguous receiver sequence
  space (loss recovery survives every impairment mix);
* impaired runs are byte-identical across ``batch=`` settings and
  fleet shard counts (same-seed, same-draw-order determinism);
* a disabled :class:`ImpairmentSpec` is indistinguishable from no spec;
* pipes and links refuse non-monotone delivery times instead of
  silently reordering, and non-finite delays at construction;
* a dropped, duplicated or delayed packet stays the value it was (no
  component reissues or rewrites a packet somebody else may hold).

Pinned fuzz regressions at the bottom re-run real minimized ``--case``
lines from the impaired differential-fuzzer campaign.
"""

from __future__ import annotations

import dataclasses
import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.impair import (
    CapacityTrace,
    Corrupter,
    Duplicator,
    GilbertElliottGate,
    ImpairmentSpec,
    JitterPipe,
    LossGate,
    TraceLink,
    build_ack_path,
    build_data_path,
)
from repro.net.link import Link
from repro.net.packet import FlowId, Packet
from repro.net.pipe import Pipe
from repro.runner.aggregate import AggregateConfig, simulate_aggregate
from repro.sim.simulator import SimulationError, Simulator
from repro.units import MSS, mbps
from repro.validate.fuzz import FuzzCase, generate_case, run_case
from repro.workload.spec import FlowSpec

pytestmark = pytest.mark.impair

FLOW = FlowId(0, 0)
_NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def make_data(seq=0):
    return Packet.data(FLOW, seq, 0.0)


class Collector:
    """Terminal sink recording delivery order."""

    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


# ---------------------------------------------------------------------------
# Spec validation and round-tripping
# ---------------------------------------------------------------------------


class TestImpairmentSpec:
    def test_default_is_disabled(self):
        spec = ImpairmentSpec()
        assert not spec.enabled
        assert not spec.data_path_enabled
        assert not spec.ack_path_enabled
        assert not spec.trace_enabled

    def test_enabled_flags(self):
        assert ImpairmentSpec(loss=0.1).data_path_enabled
        assert ImpairmentSpec(ge=(0.1, 0.5, 0.0, 0.9)).data_path_enabled
        assert ImpairmentSpec(jitter=0.01).data_path_enabled
        assert ImpairmentSpec(ack_loss=0.1).ack_path_enabled
        assert not ImpairmentSpec(ack_loss=0.1).data_path_enabled
        # Corruption hits both directions (ACKs fail checksums too).
        assert ImpairmentSpec(corrupt=0.1).data_path_enabled
        assert ImpairmentSpec(corrupt=0.1).ack_path_enabled
        assert ImpairmentSpec(trace_rates=((1.0, 1e6),)).trace_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 1.5},
            {"loss": -0.1},
            {"jitter": -1.0},
            {"reorder": 0.5},  # no reorder_extra
            {"ge": (1.5, 0.1, 0.0, 0.5)},
            {"trace_rates": ()},
            {"trace_rates": ((0.0, 1e6),)},
            {"trace_rates": ((1.0, -5.0),)},
            {"trace_delay": -1.0},
            {"trace_buffer": -5.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ImpairmentSpec(**kwargs)

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("field", [
        "loss", "ack_loss", "jitter", "reorder", "reorder_extra",
        "duplicate", "corrupt", "trace_delay", "trace_buffer",
        "ge", "trace_duration", "trace_rate",
    ])
    def test_rejects_non_finite_fields(self, field, bad):
        """``nan > 0.0`` is false: a spec taking a NaN would read as
        disabled and run unimpaired, so every float field is checked
        where the spec is built, not where a worker wires it."""
        kwargs = {
            "ge": {"ge": (0.01, 0.3, 0.0, bad)},
            "trace_duration": {"trace_rates": ((bad, 1e6),)},
            "trace_rate": {"trace_rates": ((1.0, bad),)},
        }.get(field, {field: bad})
        with pytest.raises(ValueError):
            ImpairmentSpec(**kwargs)

    def test_json_round_trip(self):
        spec = ImpairmentSpec(
            loss=0.01, ge=(0.01, 0.3, 0.0, 0.5), jitter=0.002,
            reorder=0.05, reorder_extra=0.001,
            trace_rates=((0.5, 1e6), (0.5, 2e5)),
        )
        text = json.dumps(dataclasses.asdict(spec))
        again = ImpairmentSpec(**json.loads(text))
        assert again == spec
        assert hash(again) == hash(spec)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


class TestGates:
    def test_loss_gate_rate(self):
        sink = Collector()
        gate = LossGate(0.3, sink, Random(7))
        n = 20000
        for i in range(n):
            gate.receive(make_data(i))
        observed = gate.dropped_packets / n
        assert abs(observed - 0.3) < 0.02
        assert gate.forwarded_packets == len(sink.packets)
        assert gate.dropped_packets + gate.forwarded_packets == n

    def test_dropped_packet_is_counted_and_left_alone(self):
        sink = Collector()
        gate = LossGate(1.0, sink, Random(1))
        packet = make_data(4)
        before = repr(packet)
        gate.receive(packet)
        assert (gate.dropped_packets, gate.dropped_bytes) == (1, MSS)
        assert sink.packets == []
        # Dropping is forgetting: later traffic cannot rewrite it.
        later = make_data(5)
        assert later is not packet and repr(packet) == before

    @settings(deadline=None, max_examples=15)
    @given(
        p_gb=st.floats(0.005, 0.05),
        p_bg=st.floats(0.1, 0.5),
        loss_bad=st.floats(0.3, 0.9),
        seed=st.integers(0, 2**16),
    )
    def test_gilbert_elliott_stationary_rate(self, p_gb, p_bg, loss_bad, seed):
        """Empirical loss converges on the chain's stationary rate."""
        sink = Collector()
        gate = GilbertElliottGate(p_gb, p_bg, 0.0, loss_bad, sink,
                                  Random(seed))
        n = 60000
        for i in range(n):
            gate.receive(make_data(i))
        expected = GilbertElliottGate.stationary_loss(
            p_gb, p_bg, 0.0, loss_bad
        )
        observed = gate.dropped_packets / n
        # Bursty loss has high variance; bound the error by a mix of
        # absolute slack and relative slack.
        assert abs(observed - expected) < 0.01 + 0.35 * expected

    def test_gilbert_elliott_degenerate_chain(self):
        assert GilbertElliottGate.stationary_loss(0.0, 0.0, 0.02, 0.9) == 0.02

    def test_duplicator_emits_fresh_clone(self):
        sink = Collector()
        gate = Duplicator(1.0, sink, Random(3))
        packet = make_data(5)
        gate.receive(packet)
        assert len(sink.packets) == 2
        original, clone = sink.packets
        assert original is packet
        assert clone is not packet
        assert clone == packet

    def test_corrupter_marks_and_forwards(self):
        sink = Collector()
        gate = Corrupter(1.0, sink, Random(3))
        packet = make_data(5)
        assert not packet.corrupt
        gate.receive(packet)
        assert sink.packets == [packet]
        assert packet.corrupt
        assert gate.corrupted_packets == 1

    def test_corrupting_one_twin_leaves_the_other_clean(self):
        sink = Collector()
        Duplicator(1.0, sink, Random(3)).receive(make_data(5))
        original, clone = sink.packets
        # What a Corrupter / an AQM downstream does to one copy.
        clone.corrupt = True
        original.ce = True
        assert not original.corrupt and not clone.ce


# ---------------------------------------------------------------------------
# JitterPipe
# ---------------------------------------------------------------------------


class TestJitterPipe:
    def test_delivers_within_jitter_band(self):
        sim = Simulator()
        sink = Collector()
        pipe = JitterPipe(sim, 0.01, sink, jitter=0.005, rng=Random(5))
        times = {}
        original_receive = sink.receive
        sink.receive = lambda p: (times.__setitem__(p.seq, sim.now),
                                  original_receive(p))
        for i in range(50):
            pipe.receive(make_data(i))
        sim.run()
        assert len(sink.packets) == 50
        assert all(0.01 <= t < 0.015 + 1e-12 for t in times.values())

    def test_reordering_occurs(self):
        sim = Simulator()
        sink = Collector()
        pipe = JitterPipe(sim, 0.01, sink, reorder=0.3, reorder_extra=0.02,
                          rng=Random(9))

        def feed(seq):
            pipe.receive(make_data(seq))

        for i in range(100):
            sim.call_at(i * 0.001, feed, i)
        sim.run()
        seqs = [p.seq for p in sink.packets]
        assert len(seqs) == 100
        assert sorted(seqs) == list(range(100))
        assert seqs != sorted(seqs)  # something actually reordered
        assert pipe.reordered_packets > 0

    def test_same_instant_arrivals_preserve_order_without_jitter_draws(self):
        # reorder=0 and jitter=0 is degenerate but legal via direct
        # construction; delivery must then be FIFO (seq tiebreaker).
        sim = Simulator()
        sink = Collector()
        pipe = JitterPipe(sim, 0.01, sink, rng=Random(1))
        for i in range(10):
            pipe.receive(make_data(i))
        sim.run()
        assert [p.seq for p in sink.packets] == list(range(10))

    def test_in_flight_counter(self):
        sim = Simulator()
        pipe = JitterPipe(sim, 0.01, Collector(), jitter=0.002, rng=Random(3))
        for i in range(7):
            pipe.receive(make_data(i))
        assert pipe.in_flight == 7
        sim.run()
        assert pipe.in_flight == 0

    def test_in_flight_counts_every_lane(self):
        # The pipe's deliveries sit in the lane that was current when
        # they were pushed, not necessarily the builder's current one.
        sim = Simulator()
        pipe = JitterPipe(sim, 0.01, Collector(), jitter=0.002, rng=Random(3))
        for i in range(4):
            pipe.receive(make_data(i))
        sim.new_lane()
        sim.schedule(1.0, lambda: None)
        assert [len(lane) for lane in sim.lanes] == [4, 1]
        assert pipe.in_flight == 4
        sim.run()
        assert pipe.in_flight == 0


# ---------------------------------------------------------------------------
# Monotonicity guards (constant delay: arrival order == delivery order)
# ---------------------------------------------------------------------------


class TestMonotonicityGuards:
    def test_pipe_rejects_shrinking_delay(self):
        sim = Simulator()
        pipe = Pipe(sim, 0.01, Collector())
        pipe.receive(make_data(0))
        # Mutating the delay mid-flight breaks arrival==delivery order;
        # the pipe must refuse rather than deliver out of order.
        pipe._delay = 0.001
        with pytest.raises(SimulationError, match="non-monotone"):
            pipe.receive(make_data(1))

    def test_link_rejects_non_monotone_propagation(self):
        sim = Simulator()
        # 1 packet/s serialization, 5 s propagation: packet 0 exits the
        # wire at t=6, packet 1 finishes serializing at t=2.
        link = Link(sim, rate=float(MSS), delay=5.0, sink=Collector())
        link.receive(make_data(0))
        link.receive(make_data(1))

        def shrink():
            # Mid-flight delay shrink: packet 1 would now exit at t=3.5,
            # before packet 0 — the link must refuse.
            link._delay = 1.5

        sim.call_at(1.5, shrink)
        with pytest.raises(SimulationError, match="non-monotone"):
            sim.run()

    def test_link_drop_tail_counts_and_forwards_the_rest(self):
        sim = Simulator()
        sink = Collector()
        link = Link(sim, rate=1e3, delay=0.0, sink=sink, buffer_bytes=0.0)
        first = make_data(0)
        link.receive(first)  # goes into service
        link.receive(make_data(1))  # buffer of 0 bytes: dropped
        assert (link.dropped_packets, link.dropped_bytes) == (1, MSS)
        sim.run()
        assert sink.packets == [first]



class TestNonFiniteDelays:
    """A delivery is pushed on the simulator heap without going through
    ``schedule``'s finite check, so a NaN or infinite delay, rate or
    buffer must fail typed at construction, naming field and value —
    ``nan < 0`` is false, and a NaN heap key silently breaks event
    order."""

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_pipe_delay(self, bad):
        with pytest.raises(ValueError, match="pipe delay") as exc:
            Pipe(Simulator(), bad, Collector())
        assert repr(bad) in str(exc.value)

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("field", ["rate", "delay", "buffer_bytes"])
    def test_link_fields(self, field, bad):
        kwargs = {"rate": 1e6, "delay": 0.01, "buffer_bytes": 3000.0, field: bad}
        with pytest.raises(ValueError, match=f"link {field}") as exc:
            Link(Simulator(), sink=Collector(), **kwargs)
        assert repr(bad) in str(exc.value)

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("field", ["delay", "buffer_bytes"])
    def test_trace_link_fields(self, field, bad):
        kwargs = {"delay": 0.01, "buffer_bytes": 3000.0, field: bad}
        with pytest.raises(ValueError, match=f"link {field}") as exc:
            TraceLink(Simulator(), CapacityTrace(((1.0, 1e6),)),
                      sink=Collector(), **kwargs)
        assert repr(bad) in str(exc.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_trace_link_rate(self, bad):
        # The trace a link's rate comes from refuses the segment first.
        with pytest.raises(ValueError, match="positive duration and rate"):
            TraceLink(Simulator(), CapacityTrace(((1.0, bad),)), 0.01,
                      Collector())

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize(
        "field,label",
        [("delay", "base delay"), ("jitter", "jitter"),
         ("reorder_extra", "reorder_extra")],
    )
    def test_jitter_pipe_fields(self, field, label, bad):
        kwargs = {"delay": 0.01, "jitter": 0.001, "reorder_extra": 0.01,
                  field: bad}
        with pytest.raises(ValueError, match=label) as exc:
            JitterPipe(Simulator(), sink=Collector(), reorder=0.1,
                       rng=Random(1), **kwargs)
        assert repr(bad) in str(exc.value)

    def test_unbounded_buffer_stays_legal(self):
        link = Link(Simulator(), 1e6, 0.01, Collector(), buffer_bytes=None)
        assert link.backlog_bytes == 0


# ---------------------------------------------------------------------------
# CapacityTrace / TraceLink
# ---------------------------------------------------------------------------


class TestCapacityTrace:
    def test_mean_rate_and_cycle(self):
        trace = CapacityTrace(((0.5, 2e6), (0.5, 5e5)))
        assert trace.cycle == 1.0
        assert trace.mean_rate == pytest.approx(1.25e6)

    def test_tx_time_within_segment(self):
        trace = CapacityTrace(((1.0, 1e6),))
        assert trace.tx_time(0.0, 1e5) == pytest.approx(0.1)

    def test_tx_time_across_boundary(self):
        trace = CapacityTrace(((0.5, 250000.0), (0.5, 62500.0)))
        # 0.001 s left at 250 kB/s = 250 B; remaining 1250 B at
        # 62.5 kB/s = 0.02 s.
        assert trace.tx_time(0.499, 1500) == pytest.approx(0.021)

    def test_tx_time_wraps_cycle(self):
        trace = CapacityTrace(((0.1, 1000.0),))
        # 1000 B/s, 100 B per cycle of 0.1 s: 250 B takes 2.5 cycles.
        assert trace.tx_time(0.0, 250.0) == pytest.approx(0.25)

    def test_from_file_two_column(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# duration_s rate_mbps\n0.5 2.0\n\n0.5 0.5\n")
        trace = CapacityTrace.from_file(str(path))
        assert trace.segments == ((0.5, mbps(2.0)), (0.5, mbps(0.5)))

    def test_from_file_mahimahi(self, tmp_path):
        path = tmp_path / "cell.pt"
        # 3 MTUs in [0,100) ms, none in [100,200) ms.
        path.write_text("10\n50\n90\n150\n")
        trace = CapacityTrace.from_file(str(path))
        assert len(trace.segments) == 2
        assert trace.segments[0] == (0.1, pytest.approx(3 * MSS / 0.1))
        # The empty-ish second bin floors at the minimum rate.
        assert trace.segments[1][1] >= float(MSS)

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("position", ["duration", "rate"])
    def test_rejects_non_finite_segments(self, position, bad):
        segment = (bad, 1e6) if position == "duration" else (1.0, bad)
        with pytest.raises(ValueError, match="finite, positive") as exc:
            CapacityTrace((segment,))
        assert repr(bad) in str(exc.value)

    def test_from_file_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            CapacityTrace.from_file(str(path))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0.1 5\n0.2\n", 2),  # short row in a two-column file
            ("-150\n100\n250\n", 1),  # negative Mahimahi stamp
            ("# ms\n500\n100\n", 3),  # stamps out of order
            ("10\nnan\n", 2),  # not a finite number
        ],
        ids=["short-row", "negative-stamp", "unsorted-stamps", "nan"],
    )
    def test_from_file_malformed_row_names_file_and_line(
        self, tmp_path, text, line
    ):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            CapacityTrace.from_file(str(path))
        assert f"{str(path)!r} line {line}:" in str(caught.value)

    def test_trace_link_throughput_tracks_trace(self):
        sim = Simulator()
        sink = Collector()
        trace = CapacityTrace(((1.0, 10 * MSS),))  # 10 packets/s
        link = TraceLink(sim, trace, 0.0, sink)
        for i in range(25):
            link.receive(make_data(i))
        sim.run(until=1.0)
        assert 8 <= len(sink.packets) <= 11


# ---------------------------------------------------------------------------
# Path builders
# ---------------------------------------------------------------------------


class TestPathBuilders:
    def test_data_path_plain_when_only_loss(self):
        sim = Simulator()
        sink = Collector()
        entry = build_data_path(
            sim, 0.01, sink, ImpairmentSpec(loss=0.5), Random(1)
        )
        assert isinstance(entry, LossGate)

    def test_data_path_jitter_pipe_when_jittery(self):
        sim = Simulator()
        entry = build_data_path(
            sim, 0.01, Collector(), ImpairmentSpec(jitter=0.001), Random(1)
        )
        assert isinstance(entry, JitterPipe)

    def test_ack_path_orders_loss_then_corrupt(self):
        sim = Simulator()
        entry = build_ack_path(
            sim, 0.01, Collector(),
            ImpairmentSpec(ack_loss=0.1, corrupt=0.1), Random(1)
        )
        assert isinstance(entry, LossGate)
        assert isinstance(entry._sink, Corrupter)


# ---------------------------------------------------------------------------
# End-to-end equivalence properties
# ---------------------------------------------------------------------------

_BASE = dict(
    scheme="bcpqp",
    specs=(
        FlowSpec(slot=0, cc="cubic", rtt=0.03),
        FlowSpec(slot=1, cc="reno", rtt=0.05),
    ),
    rate=mbps(8.0),
    max_rtt=0.1,
    horizon=2.0,
    warmup=0.5,
    seed=13,
)


def _outcome_key(outcome):
    return (
        outcome.aggregate_series.values,
        {k: v.values for k, v in outcome.slot_series.items()},
        outcome.drop_rate,
        outcome.arrived_packets,
        outcome.flow_records,
        outcome.magic_fills,
        outcome.magic_reclaims,
    )


class TestEquivalence:
    def test_disabled_spec_byte_identical_to_none(self):
        clean = simulate_aggregate(AggregateConfig(**_BASE))
        disabled = simulate_aggregate(
            AggregateConfig(**_BASE, impair=ImpairmentSpec())
        )
        assert _outcome_key(clean) == _outcome_key(disabled)

    @settings(deadline=None, max_examples=6)
    @given(
        seed=st.integers(1, 2**20),
        loss=st.floats(0.0, 0.04),
        jitter=st.floats(0.0, 0.004),
        ack_loss=st.floats(0.0, 0.03),
        corrupt=st.floats(0.0, 0.02),
    )
    def test_impaired_byte_identical_across_batches(
        self, seed, loss, jitter, ack_loss, corrupt
    ):
        spec = ImpairmentSpec(
            loss=loss, jitter=jitter, ack_loss=ack_loss, corrupt=corrupt,
            reorder=0.05 if jitter > 0 else 0.0,
            reorder_extra=0.002 if jitter > 0 else 0.0,
        )
        base = dict(_BASE, seed=seed, horizon=1.2, warmup=0.3)
        keys = [
            _outcome_key(simulate_aggregate(
                AggregateConfig(**base, impair=spec, batch=batch)
            ))
            for batch in (1, 3, None)
        ]
        assert keys[0] == keys[1] == keys[2]

    def test_impaired_run_validates_clean(self):
        spec = ImpairmentSpec(
            loss=0.02, ack_loss=0.02, jitter=0.003, reorder=0.05,
            reorder_extra=0.002, duplicate=0.01, corrupt=0.01,
            ge=(0.01, 0.3, 0.0, 0.5),
        )
        # validate=True attaches the invariant checker (fail-fast);
        # completing without raising is the assertion.
        simulate_aggregate(
            AggregateConfig(**_BASE, impair=spec, validate=True)
        )

    @settings(deadline=None, max_examples=5)
    @given(
        seed=st.integers(1, 2**20),
        loss=st.floats(0.005, 0.05),
        use_ge=st.booleans(),
        jitter=st.floats(0.0, 0.005),
    )
    def test_impaired_flows_complete_contiguously(
        self, seed, loss, use_ge, jitter
    ):
        """Finite flows complete despite impairments, and the receiver's
        cumulative sequence space is contiguous (rcv_nxt == flow length,
        no holes survived recovery)."""
        from repro.cc.endpoint import FlowDemux
        from repro.wiring import wire_flow

        sim = Simulator()
        demux = FlowDemux()
        collector = Collector()
        spec = ImpairmentSpec(
            loss=loss,
            ge=(0.01, 0.3, 0.0, 0.5) if use_ge else None,
            jitter=jitter,
            reorder=0.05 if jitter > 0 else 0.0,
            reorder_extra=0.002 if jitter > 0 else 0.0,
        )
        flow = FlowId(0, 0)

        class Ingress:
            def receive(self, packet):
                demux.receive(packet)

        total = 120
        done = []
        sender = wire_flow(
            sim,
            flow,
            cc="reno",
            rtt=0.04,
            ingress=Ingress(),
            demux=demux,
            packets=total,
            start=0.0,
            on_complete=lambda s, t: done.append(t),
            impair=spec,
            impair_rng=Random(seed),
        )
        sim.run(until=60.0)
        assert done, "flow failed to complete under impairment"
        assert sender.snd_una == total
        receiver = demux._sinks[flow]
        assert receiver.rcv_nxt == total
        assert not receiver._ranges  # no out-of-order holes survived

    def test_impaired_fleet_shard_invariant(self):
        from repro.fleet.shard import simulate_shard
        from repro.fleet.spec import FleetSpec, shard_configs
        from repro.metrics.merge import merge_shard_summaries

        spec = FleetSpec(
            aggregates=5,
            seed=21,
            impair=ImpairmentSpec(loss=0.02, jitter=0.003, reorder=0.05,
                                  reorder_extra=0.002, ack_loss=0.01),
        )
        digests = []
        for shards in (1, 2):
            summaries = [simulate_shard(c) for c in shard_configs(spec, shards)]
            digests.append(merge_shard_summaries(summaries).digest)
        assert digests[0] == digests[1]

    def test_corrupt_acks_dropped_at_sender(self):
        spec = ImpairmentSpec(corrupt=0.05)
        base = dict(_BASE, horizon=1.5, warmup=0.3)
        sim = Simulator()
        from repro.runner.aggregate import build_scenario

        _limiter, scenario = build_scenario(
            AggregateConfig(**base, impair=spec), sim
        )
        scenario.run()
        senders = [
            s for runner in scenario.runners for s in runner.senders
        ]
        receivers = list(scenario.demux._sinks.values())
        assert sum(s.corrupt_acks_dropped for s in senders) > 0
        assert sum(r.corrupt_dropped for r in receivers) > 0


# ---------------------------------------------------------------------------
# Fuzzer plumbing
# ---------------------------------------------------------------------------


class TestFuzzPlumbing:
    def test_clean_corpus_unchanged_by_impair_flag_machinery(self):
        # No --impair: the generated case must match the historical
        # corpus (no extra draws).
        assert generate_case(1, 0) == generate_case(1, 0, impair=False)
        assert generate_case(1, 0).impair is None

    def test_impaired_corpus_shares_scenario_body(self):
        clean = generate_case(1, 3)
        impaired = generate_case(1, 3, impair=True)
        assert impaired.impair is not None
        assert dataclasses.replace(impaired, impair=None) == clean

    def test_impaired_case_json_round_trip(self):
        case = generate_case(1, 2, impair=True)
        again = FuzzCase.from_json(case.to_json())
        assert again == case
        assert isinstance(again.impair, ImpairmentSpec)


# ---------------------------------------------------------------------------
# Pinned fuzz regressions (minimized --case lines from the impaired
# campaign; each ran 200+ cases clean at commit time, these pin the
# corpus edges that exercised the most machinery)
# ---------------------------------------------------------------------------


@pytest.mark.validate
class TestPinnedImpairedCases:
    @pytest.mark.parametrize("index", [0, 7, 13])
    def test_impaired_case_runs_clean(self, index):
        report = run_case(generate_case(1, index, impair=True))
        assert not report.violations, report.violations
        assert not report.divergences, report.divergences
