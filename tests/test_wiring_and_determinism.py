"""Tests for the wiring helper and whole-stack determinism."""

import random

import pytest

from repro import AggregateScenario, FlowSpec, OnOffSpec, Simulator, make_limiter
from repro.cc.endpoint import FlowDemux
from repro.net.packet import FlowId
from repro.net.trace import Trace
from repro.units import mbps, ms
from repro.wiring import wire_flow


class TestWireFlow:
    def make_path(self, sim, rate=mbps(10)):
        limiter = make_limiter(sim, "bcpqp", rate=rate, num_queues=2,
                               max_rtt=ms(50))
        demux = FlowDemux()
        trace = Trace(sim, demux)
        limiter.connect(trace)
        return limiter, demux, trace

    def test_finite_flow_completes(self):
        sim = Simulator()
        limiter, demux, trace = self.make_path(sim)
        done = []
        wire_flow(sim, FlowId(0, 0, 0), cc="cubic", rtt=ms(20),
                  ingress=limiter, demux=demux, packets=100, start=0.0,
                  on_complete=lambda s, t: done.append(t))
        sim.run(until=20.0)
        assert len(done) == 1
        assert len(trace) >= 100

    def test_rtt_is_honored(self):
        """First data packet arrives at the receiver trace rtt/2 after the
        flow starts; the handshake-seeded srtt matches the wire RTT."""
        sim = Simulator()
        limiter, demux, trace = self.make_path(sim)
        sender = wire_flow(sim, FlowId(0, 0, 0), cc="reno", rtt=ms(40),
                           ingress=limiter, demux=demux, packets=50,
                           start=0.0)
        sim.run(until=10.0)
        assert trace.records[0].time == pytest.approx(0.02, abs=1e-6)
        assert sender.srtt == pytest.approx(0.04, rel=0.05)

    def test_ecn_flag_propagates(self):
        sim = Simulator()
        limiter, demux, trace = self.make_path(sim)
        wire_flow(sim, FlowId(0, 0, 0), cc="reno", rtt=ms(20),
                  ingress=limiter, demux=demux, packets=5, start=0.0,
                  ecn=True)
        wire_flow(sim, FlowId(0, 1, 0), cc="reno", rtt=ms(20),
                  ingress=limiter, demux=demux, packets=5, start=0.0,
                  ecn=False)
        captured = []
        original = trace.receive

        def spy(packet):
            captured.append((packet.flow.slot, packet.ecn_capable))
            original(packet)

        trace.receive = spy
        sim.run(until=5.0)
        assert all(flag for slot, flag in captured if slot == 0)
        assert not any(flag for slot, flag in captured if slot == 1)


class TestWholeStackDeterminism:
    def run_once(self, seed):
        sim = Simulator()
        limiter = make_limiter(sim, "bcpqp", rate=mbps(10), num_queues=3,
                               max_rtt=ms(50))
        specs = [
            FlowSpec(slot=0, cc="reno", rtt=ms(10)),
            FlowSpec(slot=1, cc="bbr", rtt=ms(20)),
            FlowSpec(slot=2, cc="cubic", rtt=ms(30),
                     on_off=OnOffSpec(burst_packets_mean=50,
                                      off_time_mean=0.2)),
        ]
        scenario = AggregateScenario(sim, limiter=limiter, specs=specs,
                                     rng=random.Random(seed), horizon=6.0)
        trace = Trace(sim, scenario.recorder)
        limiter.connect(trace)
        scenario.run()
        return (
            sim.events_processed,
            limiter.stats.forwarded_packets,
            limiter.stats.dropped_packets,
            tuple((r.time, r.flow.slot, r.seq)
                  for r in trace.records[:200]),
        )

    def test_identical_runs_bit_for_bit(self):
        assert self.run_once(5) == self.run_once(5)

    def test_different_seeds_diverge(self):
        # The on-off slot draws burst sizes from the seeded RNG.
        assert self.run_once(5) != self.run_once(6)


class TestHashClassificationStudy:
    def test_fairness_improves_with_queue_count(self):
        from repro.experiments import ext_hash_classification as study

        result = study.run(study.Config(
            num_flows=8, queue_counts=(2, 16), horizon=8.0, warmup=3.0))
        few, many = result.fairness_by_queues[2], result.fairness_by_queues[16]
        assert many > few
        assert result.collisions_by_queues[2] >= \
            result.collisions_by_queues[16]
