"""Tests for packet and flow-identity types."""

from hypothesis import given, strategies as st

from repro.net.packet import FlowId, Packet, PacketKind
from repro.net.sink import CallbackSink, TeeSink
from repro.runner.aggregate import AggregateConfig, build_scenario
from repro.sim.simulator import Simulator
from repro.units import ACK_SIZE, MSS, mbps
from repro.workload.spec import FlowSpec


def test_data_packet_defaults():
    flow = FlowId(1, 2)
    pkt = Packet.data(flow, seq=5, sent_at=1.0)
    assert pkt.is_data and not pkt.is_ack
    assert pkt.size == MSS
    assert pkt.seq == 5
    assert pkt.retransmit is False


def test_ack_packet():
    flow = FlowId(1, 2)
    ack = Packet.ack(flow, ack_next=7, sent_at=2.0, echo_ts=1.5, echo_retransmit=False)
    assert ack.is_ack and not ack.is_data
    assert ack.size == ACK_SIZE
    assert ack.ack_next == 7
    assert ack.echo_ts == 1.5


def test_ack_carries_sack_blocks():
    flow = FlowId(0, 0)
    ack = Packet.ack(flow, 3, 1.0, echo_ts=0.9, echo_retransmit=False,
                     sack=((5, 8), (10, 11)))
    assert ack.sack == ((5, 8), (10, 11))


def test_packet_uids_unique():
    flow = FlowId(0, 0)
    uids = {Packet.data(flow, i, 0.0).uid for i in range(100)}
    assert len(uids) == 100


def test_flow_id_identity_and_hash():
    assert FlowId(1, 2, 0) == FlowId(1, 2, 0)
    assert FlowId(1, 2, 0) != FlowId(1, 2, 1)
    assert len({FlowId(1, 2, 0), FlowId(1, 2, 0), FlowId(1, 3, 0)}) == 2


def test_flow_id_str():
    assert str(FlowId(3, 1, 2)) == "agg3.s1.i2"


def test_kind_enum():
    assert PacketKind.DATA.value == "data"
    assert PacketKind.ACK.value == "ack"


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
            Packet.ack(flow, 3, 1.0, echo_ts=0.5, echo_retransmit=False),
        ):
            assert fresh.ce is False and fresh.corrupt is False

    def test_repr_and_eq_cover_the_wire_fields_and_uid_only(self):
        flow = FlowId(1, 2)
        ack = Packet.ack(flow, 7, 2.0, echo_ts=1.5, echo_retransmit=True,
                         sack=((9, 11),), ecn_echo=True)
        assert repr(ack) == (
            "Packet(flow=FlowId(aggregate=1, slot=2, incarnation=0), "
            "kind=<PacketKind.ACK: 'ack'>, seq=0, size=40, sent_at=2.0, "
            "ack_next=7, echo_ts=1.5, echo_retransmit=True, "
            "retransmit=False, ecn_capable=False, ce=False, ecn_echo=True, "
            f"sack=((9, 11),), uid={ack.uid})"
        )
        twin = Packet.ack(flow, 7, 2.0, echo_ts=1.5, echo_retransmit=True,
                          sack=((9, 11),), ecn_echo=True)
        assert twin != ack  # own uid
        twin.uid = ack.uid
        assert twin == ack
        twin.corrupt = True  # a checksum verdict, not content
        assert twin == ack
        twin.ce = True
        assert twin != ack
        assert ack != "not a packet"

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
        kept: list[tuple[Packet, int, int]] = []
        for i, keep in enumerate(keep_script):
            ack = Packet.ack(flow, i, float(i), echo_ts=0.0,
                             echo_retransmit=False)
            if keep:
                kept.append((ack, i, ack.uid))
        assert len({id(ack) for ack, _, _ in kept}) == len(kept)
        for ack, i, uid in kept:
            assert (ack.ack_next, ack.sent_at, ack.uid) == (i, float(i), uid)

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
            assert packet.is_data
            assert (packet.flow, packet.seq, packet.sent_at,
                    packet.retransmit) == snap
