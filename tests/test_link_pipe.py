"""Tests for links, pipes, sinks and traces."""

import pytest

from repro.net.link import Link
from repro.net.packet import FlowId, Packet
from repro.net.pipe import Pipe
from repro.net.sink import CallbackSink, NullSink, TeeSink
from repro.net.trace import Trace
from repro.sim.simulator import Simulator

FLOW = FlowId(0, 0)


def make_packet(seq=0, size=1500):
    return Packet.data(FLOW, seq, 0.0, size=size)


class TestPipe:
    def test_delivers_after_delay(self):
        sim = Simulator()
        arrivals = []
        pipe = Pipe(sim, 0.05, CallbackSink(lambda p: arrivals.append(sim.now)))
        pipe.receive(make_packet())
        sim.run()
        assert arrivals == [pytest.approx(0.05)]

    def test_zero_delay_is_synchronous(self):
        sim = Simulator()
        arrivals = []
        pipe = Pipe(sim, 0.0, CallbackSink(lambda p: arrivals.append(p)))
        pipe.receive(make_packet())
        assert len(arrivals) == 1

    def test_counts(self):
        sim = Simulator()
        pipe = Pipe(sim, 0.01, NullSink())
        for i in range(3):
            pipe.receive(make_packet(i))
        sim.run()
        assert pipe.forwarded_packets == 3
        assert pipe.forwarded_bytes == 4500

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Pipe(Simulator(), -1.0, NullSink())


class TestLink:
    def test_serialization_delay(self):
        # 1500 B at 1500 B/s takes exactly 1 s, plus 0.5 s propagation.
        sim = Simulator()
        arrivals = []
        link = Link(sim, rate=1500.0, delay=0.5,
                    sink=CallbackSink(lambda p: arrivals.append(sim.now)))
        link.receive(make_packet())
        sim.run()
        assert arrivals == [pytest.approx(1.5)]

    def test_back_to_back_packets_serialize(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, rate=1500.0, delay=0.0,
                    sink=CallbackSink(lambda p: arrivals.append(sim.now)))
        link.receive(make_packet(0))
        link.receive(make_packet(1))
        sim.run()
        assert arrivals == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_drop_tail_buffer(self):
        sim = Simulator()
        # Buffer fits exactly one waiting packet; third arrival drops.
        link = Link(sim, rate=1500.0, delay=0.0, sink=NullSink(),
                    buffer_bytes=1500)
        link.receive(make_packet(0))  # in service
        link.receive(make_packet(1))  # buffered
        link.receive(make_packet(2))  # dropped
        sim.run()
        assert link.forwarded_packets == 2
        assert link.dropped_packets == 1

    def test_unbounded_buffer_never_drops(self):
        sim = Simulator()
        link = Link(sim, rate=15000.0, delay=0.0, sink=NullSink())
        for i in range(100):
            link.receive(make_packet(i))
        sim.run()
        assert link.dropped_packets == 0
        assert link.forwarded_packets == 100

    def test_backlog_accounting(self):
        sim = Simulator()
        link = Link(sim, rate=1500.0, delay=0.0, sink=NullSink())
        link.receive(make_packet(0))
        link.receive(make_packet(1))
        assert link.backlog_bytes == 1500  # one in service, one queued
        sim.run()
        assert link.backlog_bytes == 0

    def test_throughput_matches_rate(self):
        # A saturated link forwards at exactly its configured rate.
        sim = Simulator()
        sink = NullSink()
        link = Link(sim, rate=150_000.0, delay=0.0, sink=sink)
        for i in range(200):
            link.receive(make_packet(i))
        sim.run(until=1.0)
        assert sink.bytes == pytest.approx(150_000, rel=0.02)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Link(Simulator(), rate=0, delay=0, sink=NullSink())
        with pytest.raises(ValueError):
            Link(Simulator(), rate=1, delay=-1, sink=NullSink())


class TestTrace:
    def test_records_data_packets(self):
        sim = Simulator()
        trace = Trace(sim)
        trace.receive(make_packet(0))
        trace.receive(make_packet(1, size=500))
        assert len(trace) == 2
        assert trace.total_bytes == 2000
        assert {r.seq for r in trace} == {0, 1}

    def test_skips_corrupt_packets(self):
        sim = Simulator()
        sink = NullSink()
        trace = Trace(sim, sink)
        packet = make_packet()
        packet.corrupt = True
        trace.receive(packet)
        assert len(trace) == 0 and trace.total_bytes == 0
        assert sink.count == 1

    def test_forwards_downstream(self):
        sim = Simulator()
        sink = NullSink()
        trace = Trace(sim, sink)
        trace.receive(make_packet())
        assert sink.count == 1

    def test_flows(self):
        sim = Simulator()
        trace = Trace(sim)
        trace.receive(Packet.data(FlowId(0, 0), 0, 0.0))
        trace.receive(Packet.data(FlowId(0, 1), 0, 0.0))
        assert trace.flows() == {FlowId(0, 0), FlowId(0, 1)}


class TestTeeSink:
    def test_duplicates(self):
        a, b = NullSink(), NullSink()
        TeeSink(a, b).receive(make_packet())
        assert a.count == 1 and b.count == 1
