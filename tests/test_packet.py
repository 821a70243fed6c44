"""Tests for packet and flow-identity types."""

from hypothesis import given, strategies as st

from repro.net.packet import FlowId, Packet
from repro.net.sink import CallbackSink, TeeSink
from repro.runner.aggregate import AggregateConfig, build_scenario
from repro.sim.simulator import Simulator
from repro.units import MSS, mbps
from repro.workload.spec import FlowSpec


def test_data_packet_defaults():
    flow = FlowId(1, 2)
    pkt = Packet.data(flow, seq=5, sent_at=1.0)
    assert pkt.size == MSS
    assert pkt.seq == 5
    assert pkt.retransmit is False


def test_flow_id_identity_and_hash():
    assert FlowId(1, 2, 0) == FlowId(1, 2, 0)
    assert FlowId(1, 2, 0) != FlowId(1, 2, 1)
    assert len({FlowId(1, 2, 0), FlowId(1, 2, 0), FlowId(1, 3, 0)}) == 2


def test_flow_id_str():
    assert str(FlowId(3, 1, 2)) == "agg3.s1.i2"


class TestPacketIsAValue:
    """A packet is a plain object: built once, never reissued, owned by
    whoever holds it."""

    def test_fresh_packet_is_never_corrupt_or_ce(self):
        flow = FlowId(0, 0)
        marked = Packet.data(flow, 1, 0.0, ecn_capable=True)
        marked.ce = True
        marked.corrupt = True
        del marked
        for fresh in (
            Packet.data(flow, 2, 1.0, ecn_capable=True),
            Packet.data(flow, 1, 0.0, ecn_capable=True),
        ):
            assert fresh.ce is False and fresh.corrupt is False

    def test_repr_and_eq_cover_the_wire_fields_only(self):
        flow = FlowId(1, 2)
        packet = Packet.data(flow, 7, 2.0, size=500, retransmit=True,
                             ecn_capable=True)
        assert repr(packet) == (
            "Packet(flow=FlowId(aggregate=1, slot=2, incarnation=0), "
            "seq=7, size=500, sent_at=2.0, retransmit=True, "
            "ecn_capable=True, ce=False)"
        )
        twin = Packet.data(flow, 7, 2.0, size=500, retransmit=True,
                           ecn_capable=True)
        assert twin is not packet and twin == packet
        twin.corrupt = True  # a checksum verdict, not content
        assert twin == packet
        twin.ce = True
        assert twin != packet
        assert packet != Packet.data(flow, 8, 2.0, size=500, retransmit=True,
                                     ecn_capable=True)
        assert packet != "not a packet"

    def test_class_holds_no_mutable_state(self):
        shared = {
            name: value
            for klass in Packet.__mro__[:-1]
            for name, value in vars(klass).items()
            if isinstance(value, (list, dict, set))
        }
        assert shared == {}
        assert not hasattr(Packet.data(FlowId(0, 0), 0, 0.0), "__dict__")

    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    def test_dropping_a_packet_never_disturbs_a_kept_one(self, keep_script):
        """Property: across an arbitrary build/forget interleaving, every
        packet still held is its own object with the values it was built
        with."""
        flow = FlowId(0, 0)
        kept: list[tuple[Packet, int]] = []
        for i, keep in enumerate(keep_script):
            packet = Packet.data(flow, i, float(i), retransmit=i % 2 == 1)
            if keep:
                kept.append((packet, i))
        assert len({id(packet) for packet, _ in kept}) == len(kept)
        for packet, i in kept:
            assert (packet.seq, packet.sent_at, packet.retransmit) == (
                i, float(i), i % 2 == 1)

    def test_packets_kept_by_a_sink_keep_their_values(self):
        """A sink may hold every packet it sees past delivery: at the
        horizon of a saturated bcpqp aggregate (drops, retransmissions,
        thousands of later packets) each one still reads what it read on
        arrival."""
        config = AggregateConfig(
            scheme="bcpqp",
            specs=tuple(FlowSpec(slot=i, rtt=0.02) for i in range(4)),
            rate=mbps(10.0), max_rtt=0.02, horizon=1.5, warmup=0.5, seed=5,
        )
        sim = Simulator()
        limiter, scenario = build_scenario(config, sim)
        kept: list[tuple[Packet, tuple]] = []

        def keep(packet: Packet) -> None:
            kept.append((packet, (packet.flow, packet.seq, packet.sent_at,
                                  packet.retransmit)))

        limiter.connect(TeeSink(CallbackSink(keep), scenario.recorder))
        scenario.run()
        assert len(kept) > 1000 and any(snap[3] for _, snap in kept)
        assert len({id(packet) for packet, _ in kept}) == len(kept)
        for packet, snap in kept:
            assert (packet.flow, packet.seq, packet.sent_at,
                    packet.retransmit) == snap
