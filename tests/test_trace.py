"""Tests for the column-backed packet trace and its record view."""

import pytest

from repro.net.packet import FlowId, Packet
from repro.net.trace import PacketRecord, Trace
from repro.sim.simulator import Simulator


def _fill(trace, sim, n=5):
    """Send n data packets (and one corrupted one) through the trace."""
    for i in range(n):
        sim._now = 0.1 * i
        trace.receive(Packet.data(FlowId(0, i % 2), seq=i, sent_at=sim.now))
    sim._now = 0.1 * n
    corrupted = Packet.data(FlowId(0, 0), seq=n, sent_at=sim.now)
    corrupted.corrupt = True
    trace.receive(corrupted)


class TestColumns:
    def test_columns_grow_in_lockstep(self):
        sim = Simulator()
        trace = Trace(sim)
        _fill(trace, sim)
        assert len(trace) == 5  # the corrupted packet is not goodput
        assert len(trace.times) == len(trace.flow_ids) == len(trace.sizes) \
            == len(trace.seqs) == 5

    def test_total_bytes_is_a_running_counter(self):
        sim = Simulator()
        trace = Trace(sim)
        assert trace.total_bytes == 0
        _fill(trace, sim)
        assert trace.total_bytes == sum(trace.sizes)
        before = trace.total_bytes
        sim._now = 1.0
        trace.receive(Packet.data(FlowId(0, 0), seq=99, sent_at=sim.now))
        assert trace.total_bytes == before + trace.sizes[-1]

    def test_forwards_to_sink(self):
        sim = Simulator()
        seen = []

        class Sink:
            def receive(self, packet):
                seen.append(packet)

        trace = Trace(sim, Sink())
        _fill(trace, sim)
        assert len(seen) == 6  # forwarded even when not recorded

    def test_flows(self):
        sim = Simulator()
        trace = Trace(sim)
        _fill(trace, sim)
        assert trace.flows() == {FlowId(0, 0), FlowId(0, 1)}


class TestRecordsView:
    def test_len_and_index(self):
        sim = Simulator()
        trace = Trace(sim)
        _fill(trace, sim)
        records = trace.records
        assert len(records) == 5
        first = records[0]
        assert isinstance(first, PacketRecord)
        assert first.time == trace.times[0]
        assert first.flow == trace.flow_ids[0]
        assert records[-1].seq == trace.seqs[-1]

    def test_slice(self):
        sim = Simulator()
        trace = Trace(sim)
        _fill(trace, sim)
        tail = trace.records[2:]
        assert [r.seq for r in tail] == trace.seqs[2:]

    def test_iteration_matches_columns(self):
        sim = Simulator()
        trace = Trace(sim)
        _fill(trace, sim)
        for i, record in enumerate(trace.records):
            assert record == PacketRecord(
                time=trace.times[i],
                flow=trace.flow_ids[i],
                size=trace.sizes[i],
                seq=trace.seqs[i],
            )

    def test_trace_iterates_as_records(self):
        sim = Simulator()
        trace = Trace(sim)
        _fill(trace, sim)
        assert [r.seq for r in trace] == trace.seqs

    def test_out_of_range_raises(self):
        sim = Simulator()
        trace = Trace(sim)
        _fill(trace, sim)
        with pytest.raises(IndexError):
            trace.records[99]
