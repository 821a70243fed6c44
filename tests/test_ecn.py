"""Tests for the ECN extension (phantom-queue AQM marking, §3.3)."""

import random

import pytest

from repro import AggregateScenario, FlowSpec, Simulator
from repro.classify.classifier import SlotClassifier
from repro.core.pqp import PQP
from repro.net.packet import FlowId, Packet
from repro.net.sink import NullSink
from repro.policy.tree import Policy
from repro.units import mbps, ms


def make_pqp(sim, *, mark=0.5, rate=15_000.0, cap=15_000.0, n=1):
    pqp = PQP(sim, rate=rate, policy=Policy.fair(n),
              classifier=SlotClassifier(n), queue_bytes=cap,
              ecn_mark_fraction=mark)
    sink = NullSink()
    pqp.connect(sink)
    return pqp


def pkt(seq=0, *, ecn=True, slot=0):
    return Packet.data(FlowId(0, slot), seq, 0.0, ecn_capable=ecn)


class TestMarking:
    def test_marks_above_threshold(self):
        sim = Simulator()
        pqp = make_pqp(sim, mark=0.3)  # threshold at 4500 B of 15000 B
        marked = []

        class _Sink:
            def receive(self, p):
                marked.append(p.ce)

        pqp.connect(_Sink())
        for i in range(8):
            pqp.receive(pkt(i))
        # First three packets fill to 4500 B (at threshold, unmarked);
        # later accepted ones are marked.
        assert marked[:3] == [False, False, False]
        assert all(marked[3:])
        assert pqp.ecn_marked_packets == len(marked) - 3

    def test_non_ecn_packets_never_marked(self):
        sim = Simulator()
        pqp = make_pqp(sim, mark=0.1)
        forwarded = []

        class _Sink:
            def receive(self, p):
                forwarded.append(p.ce)

        pqp.connect(_Sink())
        for i in range(5):
            pqp.receive(pkt(i, ecn=False))
        assert not any(forwarded)
        assert pqp.ecn_marked_packets == 0

    def test_marking_disabled_by_default(self):
        sim = Simulator()
        pqp = PQP(sim, rate=1000.0, policy=Policy.fair(1),
                  classifier=SlotClassifier(1), queue_bytes=3000.0)
        pqp.connect(NullSink())
        pqp.receive(pkt(0))
        pqp.receive(pkt(1))
        assert pqp.ecn_marked_packets == 0

    def test_invalid_fraction_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            make_pqp(sim, mark=0.0)
        with pytest.raises(ValueError):
            make_pqp(sim, mark=1.5)

    def test_full_queue_still_drops(self):
        sim = Simulator()
        pqp = make_pqp(sim, mark=0.5, cap=4500.0)
        for i in range(10):
            pqp.receive(pkt(i))
        assert pqp.stats.dropped_packets == 7


class TestEcnSender:
    def test_echo_triggers_one_reduction_per_rtt(self):
        """An ECE burst within one window causes exactly one cwnd cut."""
        from repro.cc.reno import NewReno
        from repro.cc.endpoint import TcpSender

        sim = Simulator()
        sender = TcpSender(sim, FlowId(0, 0), NewReno(initial_cwnd=20),
                           NullSink(), ecn=True, initial_rtt=0.05)
        sim.run(until=0.01)
        sender.snd_nxt = 20  # pretend a window is in flight
        before = sender.cc.cwnd
        for i in range(5):
            sender.receive_ack(0, 0.0, True, (), True, False)
        assert sender.ecn_reductions == 1
        assert sender.cc.cwnd == pytest.approx(before / 2, rel=0.01)

    def test_non_ecn_sender_ignores_echo(self):
        from repro.cc.reno import NewReno
        from repro.cc.endpoint import TcpSender

        sim = Simulator()
        sender = TcpSender(sim, FlowId(0, 0), NewReno(initial_cwnd=20),
                           NullSink(), ecn=False, initial_rtt=0.05)
        sim.run(until=0.01)
        sender.snd_nxt = 20
        sender.receive_ack(0, 0.0, True, (), True, False)
        assert sender.ecn_reductions == 0


class TestEndToEnd:
    def test_ecn_pqp_nearly_eliminates_drops(self):
        """The headline of the extension: AQM marking on phantom queues
        keeps rate and fairness while removing packet loss for ECN flows."""
        def run(mark):
            sim = Simulator()
            lim = PQP(sim, rate=mbps(10), policy=Policy.fair(2),
                      classifier=SlotClassifier(2), queue_bytes=150_000.0,
                      ecn_mark_fraction=mark)
            specs = [FlowSpec(slot=0, cc="reno", rtt=ms(20), ecn=True),
                     FlowSpec(slot=1, cc="cubic", rtt=ms(30), ecn=True)]
            sc = AggregateScenario(sim, limiter=lim, specs=specs,
                                   rng=random.Random(1), horizon=15.0,
                                   warmup=5.0)
            sc.run()
            agg = sc.recorder.aggregate_series()
            return agg.mean(), lim.stats.drop_rate

        rate_plain, drops_plain = run(None)
        rate_ecn, drops_ecn = run(0.25)
        assert rate_ecn == pytest.approx(rate_plain, rel=0.05)
        assert drops_ecn < drops_plain / 10
        assert drops_ecn < 0.01
