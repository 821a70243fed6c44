"""The packet path takes one packet per call, the ACK path one record.

Every limiter decides in ``_on_packet`` and forwards an admitted packet at
once; ``receive`` accounts an arrival and calls it, and ``receive_batch``
is that for each packet of a burst.  No sink, pipe, link, gate, recorder,
trace or demux accepts a list.  An ACK travels from the receiver to the
sender as six fields through ``receive_ack``; a ``Packet`` is always a
data segment, and the ACK-path gates act on a record as they act on a
packet of ``ACK_SIZE`` bytes.
"""

from __future__ import annotations

import importlib
import pkgutil
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import repro.net
from repro.cc.bbr import Bbr
from repro.cc.cubic import Cubic
from repro.cc.endpoint import FlowDemux, TcpReceiver, TcpSender
from repro.cc.reno import NewReno
from repro.cc.vegas import Vegas
from repro.core.gps import VirtualTimeGps
from repro.core.phantom import PhantomQueueSet
from repro.core.pqp import PQP
from repro.experiments import fig5_efficiency
from repro.fleet import FleetSpec, ShardConfig, simulate_shard
from repro.limiters.base import LimiterStats, RateLimiter
from repro.metrics.recorder import Recorder
from repro.net.impair import Corrupter, LossGate
from repro.net.middlebox import Middlebox
from repro.net.packet import FlowId, Packet
from repro.net.pipe import Pipe
from repro.net.sink import CallbackSink, NullSink
from repro.runner.aggregate import build_scenario
from repro.schemes import SCHEMES, make_limiter
from repro.sim.simulator import Simulator
from repro.units import ACK_SIZE, mbps, ms


def _classes():
    """Every class defined at module level anywhere under ``repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == info.name:
                yield value


def test_only_limiters_and_the_sender_take_a_list():
    # RateLimiter's per-packet loop and the sender's entry the frozen
    # benchmark suite names; no limiter has a second way in.
    classes = list(_classes())
    takers = {cls for cls in classes if "receive_batch" in vars(cls)}
    assert takers == {RateLimiter, TcpSender}
    limiters = [cls for cls in classes
                if issubclass(cls, RateLimiter) and cls is not RateLimiter]
    assert len(limiters) >= 5
    assert [cls for cls in limiters if "receive" in vars(cls)] == []
    assert [cls for cls in limiters
            if cls._on_packet is RateLimiter._on_packet] == []


class _Probe:
    """Downstream sink that checks the limiter's forward counts on every
    call against its own running count."""

    def __init__(self, limiter: RateLimiter) -> None:
        self._stats = limiter.stats
        self.seen: list[int] = []
        self.bytes = 0

    def receive(self, packet: Packet) -> None:
        self.seen.append(packet.seq)
        self.bytes += packet.size
        assert self._stats.forwarded_packets == len(self.seen)
        assert self._stats.forwarded_bytes == self.bytes


@pytest.mark.parametrize("scheme", ["pqp", "bcpqp", "policer"])
def test_policers_forward_each_packet_as_decided(scheme):
    limiter = make_limiter(Simulator(), scheme, rate=1e6, num_queues=4,
                           max_rtt=0.01, queue_bytes=6000.0)
    assert type(limiter).receive_batch is RateLimiter.receive_batch
    probe = _Probe(limiter)
    limiter.connect(probe)
    burst = [Packet.data(FlowId(0, seq % 4), seq, 0.0, size=1500)
             for seq in range(32)]
    limiter.receive_batch(burst)
    stats = limiter.stats
    assert 0 < stats.forwarded_packets < 32  # it admitted and it dropped
    assert stats.forwarded_packets + stats.dropped_packets == 32
    # Arrival order, admitted packets only.
    assert probe.seen == sorted(probe.seen)


def _drive_bursts(scheme: str, batched: bool):
    """Eight same-instant 32-packet bursts, 3 ms apart, into ``scheme``:
    through ``receive_batch`` or one packet per ``receive`` call."""
    sim = Simulator()
    limiter = make_limiter(sim, scheme, rate=2e5, num_queues=4,
                           max_rtt=0.01, queue_bytes=6000.0, period=0.01)
    forwarded: list[tuple[float, int, int]] = []
    limiter.connect(CallbackSink(
        lambda p: forwarded.append((sim.now, p.flow.slot, p.seq))))

    def one_at_a_time(packets):
        for packet in packets:
            limiter.receive(packet)

    entry = limiter.receive_batch if batched else one_at_a_time
    for tick in range(8):
        burst = [Packet.data(FlowId(0, k % 4), 32 * tick + k, tick * 3e-3,
                             size=500 + 250 * (k % 5))
                 for k in range(32)]
        sim.schedule_at(tick * 3e-3, entry, burst)
    sim.run(until=0.5)
    stats = limiter.stats
    outcome = {
        "stats": (stats.arrived_packets, stats.arrived_bytes,
                  stats.forwarded_packets, stats.forwarded_bytes,
                  stats.dropped_packets, stats.dropped_bytes),
        "per_queue_drops": dict(stats.per_queue_drops),
        "cost": limiter.cost.snapshot(),
        "forwarded": forwarded,
    }
    if isinstance(limiter, PQP):
        queues = limiter.queues
        outcome["phantom"] = (
            [queues.peek_length(q) for q in range(4)],
            [queues.raw_magic(q) for q in range(4)],
            getattr(limiter, "magic_fills", None),
        )
    return outcome


@pytest.mark.parametrize(
    "scheme", ["pqp", "bcpqp", "policer", "fairpolicer", "shaper"])
def test_a_burst_decides_as_its_packets_one_at_a_time(scheme):
    batched = _drive_bursts(scheme, batched=True)
    assert batched == _drive_bursts(scheme, batched=False)
    arrived, _, forwarded, _, dropped, _ = batched["stats"]
    assert arrived == 8 * 32 and forwarded > 0 and dropped > 0
    assert len(batched["forwarded"]) == forwarded
    if scheme == "bcpqp":
        assert batched["phantom"][2] > 0  # the window logic magic-filled


# ----------------------------------------------------------------------
# The ACK path: one record of six fields per ACK
# ----------------------------------------------------------------------


def test_a_packet_is_a_data_segment():
    """Eight data fields and no ACK variant: ACKs travel as records."""
    assert Packet.__slots__ == (
        "flow", "seq", "size", "sent_at", "retransmit", "ecn_capable", "ce",
        "corrupt",
    )
    for name in ("ack", "kind", "uid"):
        assert not hasattr(Packet, name)
    assert not hasattr(repro.net, "PacketKind")
    assert "PacketKind" not in repro.net.__all__
    assert not hasattr(TcpSender, "receive")
    for name in ("receive_ack", "_process_ack", "receive_batch"):
        assert hasattr(TcpSender, name)


class _Records:
    """ACK-path sink keeping each record it is handed."""

    def __init__(self):
        self.got = []

    def receive_ack(self, *record):
        self.got.append(record)


class _Positions:
    """Packet sink keeping each packet's position (its seq) and mark."""

    def __init__(self):
        self.got = []

    def receive(self, p):
        self.got.append((p.seq, p.corrupt))


def _ack_path(kind, prob, seed, sink):
    """The gates ``build_ack_path`` stacks, alone or loss in front of
    corruption, drawing from one stream."""
    rng = Random(seed)
    if kind == "loss":
        return LossGate(prob, sink, rng), rng
    if kind == "corrupt":
        return Corrupter(prob, sink, rng), rng
    corrupter = Corrupter(prob, sink, rng)
    return LossGate(prob, corrupter, rng), rng


def _counters(gate):
    counts = [gate.forwarded_packets, gate.dropped_packets, gate.dropped_bytes,
              getattr(gate, "corrupted_packets", None)]
    inner = getattr(gate, "_sink", None)
    if isinstance(inner, Corrupter):
        counts.append(_counters(inner))
    return counts


_records = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.floats(0.0, 100.0, allow_nan=False),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 99), st.integers(100, 200)),
                 max_size=3).map(tuple),
        st.booleans(),
        st.booleans(),
    ),
    max_size=60,
)


@pytest.mark.parametrize("kind", ["loss", "corrupt", "loss+corrupt"])
@settings(max_examples=60)
@given(prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       records=_records)
def test_ack_gates_treat_a_record_as_its_packet(kind, prob, seed, records):
    """The same gate stack, fed records on one side and ``ACK_SIZE`` data
    packets on the other, forwards the same positions with the same
    ``corrupt`` marks, counts the same and draws the same."""
    by_record, by_packet = _Records(), _Positions()
    record_gate, record_rng = _ack_path(kind, prob, seed, by_record)
    packet_gate, packet_rng = _ack_path(kind, prob, seed, by_packet)
    flow = FlowId(0, 0)
    for i, record in enumerate(records):
        record_gate.receive_ack(*record)
        packet = Packet.data(flow, i, 0.0, size=ACK_SIZE)
        packet.corrupt = record[5]
        packet_gate.receive(packet)
    assert [r[:5] for r in by_record.got] == [
        records[i][:5] for i, _ in by_packet.got
    ]
    assert [r[5] for r in by_record.got] == [c for _, c in by_packet.got]
    assert _counters(record_gate) == _counters(packet_gate)
    assert record_rng.getstate() == packet_rng.getstate()


#: CPython 3.11 keeps an object's attributes in its class's shared-key
#: layout only while it has fewer than 30 of them; from the 30th on,
#: every read and write goes through a per-instance dict.  Measured on
#: one attribute-heavy loop: 30.3 ms at 29 attributes, 34.1 ms at 30 and
#: 29.5 ms with 46 fields as ``__slots__``.
_SHARED_KEYS_LIMIT = 30


def test_packet_path_state_stays_off_instance_dicts(monkeypatch):
    # TcpSender's 46 fields are slots; its "__dict__" is for what
    # attaches per instance (the checker's wrapper), which an unvalidated
    # run never does.  Every other class a packet passes through either
    # declares slots or stays under the limit.
    limiters = [cls for cls in _classes()
                if issubclass(cls, RateLimiter) and cls is not RateLimiter]
    watched = (
        TcpSender, TcpReceiver, Pipe, Middlebox, FlowDemux, Recorder,
        PhantomQueueSet, VirtualTimeGps, Simulator, LimiterStats,
        NewReno, Cubic, Bbr, Vegas, *limiters,
    )
    built = []
    for cls in watched:
        def recording(self, *args, __init=cls.__init__, **kwargs):
            __init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", recording)

    config = fig5_efficiency.Config(horizon=1.0, warmup=0.5)
    cell = fig5_efficiency.grid(config)[config.schemes.index("bcpqp")]
    build_scenario(cell, Simulator())[1].run()
    simulate_shard(ShardConfig(FleetSpec(aggregates=4, seed=1), 1, 0))
    sim = Simulator()
    for scheme in SCHEMES:
        limiter = make_limiter(sim, scheme, rate=mbps(10), num_queues=2,
                               max_rtt=ms(50))
        limiter.connect(NullSink())
        limiter.receive(Packet(FlowId(0, 1), 0, 1500, 0.0))

    assert {type(obj) for obj in built} >= set(watched)
    senders = [obj for obj in built if type(obj) is TcpSender]
    assert [vars(sender) for sender in senders if vars(sender)] == []
    crowded = {
        (type(obj).__name__, len(vars(obj))) for obj in built
        if "__slots__" not in vars(type(obj))
        and len(vars(obj)) >= _SHARED_KEYS_LIMIT
    }
    assert crowded == set()
