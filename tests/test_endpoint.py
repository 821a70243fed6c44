"""Tests for the TCP sender/receiver machinery.

A controllable lossy gate between sender and receiver lets each test drop
exactly the packets it wants, exercising SACK recovery, RACK re-marking,
TLP probes and the RTO backstop deterministically.

The per-ACK recovery steps cost O(what the ACK newly reports); the walks
they replaced — every seq of every re-reported SACK block, all of
``_retx_out``, eight head records, a linear search of the receiver's range
list — live here as :class:`NaiveScoreboard` / :class:`NaiveReceiver`, the
reference oracle, and nowhere in ``src/``.  Hypothesis drives both with
the same ACK and arrival streams; a line-event count pins the complexity;
one NewReno flow under i.i.d. loss is held to the Mathis curve.
"""

import heapq
import math
from collections import Counter, namedtuple
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cc.base import AckSample, CongestionControl
from repro.cc.bbr import Bbr
from repro.cc import endpoint
from repro.cc.endpoint import FlowDemux, TcpReceiver, TcpSender
from repro.cc.reno import NewReno
from repro.net.impair import LossGate
from repro.net.packet import FlowId, Packet
from repro.net.pipe import Pipe
from repro.net.sink import CallbackSink
from repro.sim.simulator import Simulator
from repro.sim.timer import Timer
from repro.validate import InvariantChecker, InvariantViolation

from tests._steps import counting

FLOW = FlowId(0, 0)

#: One ACK record as the receiver sends it (``TcpSender.receive_ack``'s
#: fields), named so the tests can read its fields.
Ack = namedtuple(
    "Ack", "ack_next echo_ts echo_retransmit sack ecn_echo corrupt")


class FixedWindow(CongestionControl):
    """A controller with a constant window — isolates sender mechanics."""

    name = "fixed"

    def on_ack(self, sample):
        pass


class LossyGate:
    """Forwards packets through a delay pipe, dropping selected seqs once."""

    def __init__(self, sim, delay, sink):
        self._pipe = Pipe(sim, delay, sink)
        self.drop_once: set[int] = set()
        self.drop_always: set[int] = set()
        self.drop_all = False
        self.forwarded: list[int] = []
        self.dropped: list[int] = []

    def receive(self, packet: Packet) -> None:
        if (
            self.drop_all
            or packet.seq in self.drop_once
            or packet.seq in self.drop_always
        ):
            self.drop_once.discard(packet.seq)
            self.dropped.append(packet.seq)
            return
        self.forwarded.append(packet.seq)
        self._pipe.receive(packet)


def make_connection(sim, *, cc=None, total=None, rtt=0.1):
    """sender -> gate -> receiver -> pipe -> sender, RTT = rtt."""
    parts = {}
    fwd_sink = lambda p: parts["receiver"].receive(p)  # noqa: E731

    class _Sink:
        def receive(self, p):
            fwd_sink(p)

    gate = LossyGate(sim, rtt / 2, _Sink())
    sender = TcpSender(sim, FLOW, cc or FixedWindow(initial_cwnd=10),
                       gate, total_packets=total)
    reverse = Pipe(sim, rtt / 2, sender)
    receiver = TcpReceiver(sim, reverse)
    parts["receiver"] = receiver
    return sender, gate, receiver


class TestBasicTransfer:
    def test_finite_flow_completes(self):
        sim = Simulator()
        sender, gate, receiver = make_connection(sim, total=50)
        sim.run(until=10.0)
        assert sender.done
        assert receiver.rcv_nxt == 50
        assert sender.retransmits == 0

    def test_completion_callback(self):
        sim = Simulator()
        done = []
        cc = FixedWindow(initial_cwnd=10)
        gate_sink = {}

        class _S:
            def receive(self, p):
                gate_sink["r"].receive(p)

        gate = LossyGate(sim, 0.05, _S())
        sender = TcpSender(sim, FLOW, cc, gate, total_packets=20,
                           on_complete=lambda s, t: done.append(t))
        reverse = Pipe(sim, 0.05, sender)
        gate_sink["r"] = TcpReceiver(sim, reverse)
        sim.run(until=10.0)
        assert len(done) == 1 and done[0] == sender.completed_at

    def test_window_limits_inflight(self):
        sim = Simulator()
        sender, gate, _ = make_connection(sim, cc=FixedWindow(initial_cwnd=5))
        sim.run(until=0.049)  # before first ACK returns
        assert sender.snd_nxt == 5

    def test_srtt_estimated(self):
        sim = Simulator()
        sender, _, _ = make_connection(sim, total=20, rtt=0.08)
        sim.run(until=5.0)
        assert sender.srtt == pytest.approx(0.08, rel=0.05)

    def test_start_time_respected(self):
        sim = Simulator()
        gate_sink = {}

        class _S:
            def receive(self, p):
                gate_sink["r"].receive(p)

        gate = LossyGate(sim, 0.01, _S())
        sender = TcpSender(sim, FLOW, FixedWindow(), gate,
                           total_packets=5, start_time=2.0)
        gate_sink["r"] = TcpReceiver(sim, Pipe(sim, 0.01, sender))
        sim.run(until=1.9)
        assert sender.packets_sent == 0
        sim.run(until=5.0)
        assert sender.done


class TestSackRecovery:
    def test_single_loss_recovered_without_rto(self):
        sim = Simulator()
        sender, gate, receiver = make_connection(sim, total=100)
        gate.drop_once.add(20)
        sim.run(until=20.0)
        assert sender.done
        assert sender.timeouts == 0
        assert sender.retransmits >= 1
        assert receiver.rcv_nxt == 100

    def test_burst_loss_recovered_without_rto(self):
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=40)
        sender, gate, receiver = make_connection(sim, cc=cc, total=300)
        gate.drop_once.update(range(50, 80))
        sim.run(until=30.0)
        assert sender.done
        assert sender.timeouts == 0
        assert receiver.rcv_nxt == 300

    def test_loss_event_counted_once_per_episode(self):
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=30)
        sender, gate, _ = make_connection(sim, cc=cc, total=200)
        gate.drop_once.update(range(40, 50))
        sim.run(until=30.0)
        assert sender.loss_events == 1

    def test_lost_retransmission_recovered(self):
        """A retransmit that is dropped again is re-detected (RACK)."""
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=20)
        sender, gate, receiver = make_connection(sim, cc=cc, total=150)
        # Drop seq 30 twice: original and first retransmission.
        gate.drop_once.add(30)
        forward = gate.receive
        state = {"dropped_retx": False}

        def drop_first_retransmission(packet):
            if (
                packet.seq == 30
                and packet.retransmit
                and not state["dropped_retx"]
            ):
                state["dropped_retx"] = True
                gate.drop_once.add(30)
            forward(packet)

        gate.receive = drop_first_retransmission
        sim.run(until=30.0)
        assert sender.done
        assert state["dropped_retx"]
        assert receiver.rcv_nxt == 150

    def test_inflight_accounts_sacked_and_lost(self):
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=10)
        sender, gate, _ = make_connection(sim, cc=cc, total=100)
        gate.drop_once.update({10, 11})
        sim.run(until=30.0)
        assert sender.done
        assert sender.inflight == 0


class TestTailLossProbe:
    def test_tail_loss_recovered_by_probe_not_rto(self):
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=10)
        sender, gate, receiver = make_connection(sim, cc=cc, total=50)
        # Drop the last 3 packets of the flow: no later SACKs, so only a
        # probe (or an RTO) can recover them.
        gate.drop_once.update({47, 48, 49})
        sim.run(until=30.0)
        assert sender.done
        assert sender.tlp_probes >= 1
        assert sender.timeouts == 0

    def test_whole_flight_loss_survives(self):
        sim = Simulator()
        cc = FixedWindow(initial_cwnd=10)
        sender, gate, receiver = make_connection(sim, cc=cc, total=80)
        gate.drop_once.update(range(20, 30))  # a full window at the time
        sim.run(until=30.0)
        assert sender.done
        assert receiver.rcv_nxt == 80


class TestRtoBackstop:
    def test_blackout_triggers_rto_and_recovers(self):
        sim = Simulator()
        sender, gate, receiver = make_connection(sim, total=60)
        sim.run(until=0.3)
        gate.drop_all = True
        sim.run(until=1.5)  # everything (incl. probes) is lost
        gate.drop_all = False
        sim.run(until=30.0)
        assert sender.timeouts >= 1
        assert sender.done
        assert receiver.rcv_nxt == 60

    def test_rto_backs_off_exponentially(self):
        sim = Simulator()
        sender, gate, _ = make_connection(sim, total=60)
        sim.run(until=0.3)
        base = sender.rto
        gate.drop_all = True
        sim.run(until=4.0)
        assert sender.rto >= 2 * base
        assert sender.timeouts >= 2


class TenPerSecond(FixedWindow):
    """A controller that paces at ten packets a second."""

    def pacing_rate(self, now):
        return 10.0


class TestPacing:
    def test_a_sender_builds_two_timers_and_paces_without_one(
            self, monkeypatch):
        built = []

        class CountedTimer(Timer):
            __slots__ = ()

            def __init__(self, sim, callback):
                built.append(callback)
                super().__init__(sim, callback)

        monkeypatch.setattr(endpoint, "Timer", CountedTimer)
        sim = Simulator()
        sent = []
        sender = TcpSender(sim, FLOW, TenPerSecond(),
                           CallbackSink(lambda p: sent.append(sim.now)),
                           total_packets=5)
        assert [cb.__name__ for cb in built] == ["_on_rto", "_on_tlp"]
        sim.run(until=0.25)
        # No ACK ever arrives, so only the pacing wakes clock the sends:
        # 0.1 s apart, the fourth's wake pending.
        assert sent == pytest.approx([0.0, 0.1, 0.2])
        assert sender._pacing_armed
        assert len(built) == 2

    def test_completion_with_a_pacing_wake_pending_sends_nothing_more(self):
        sim = Simulator()
        sent = []
        sender = TcpSender(sim, FLOW, TenPerSecond(), CallbackSink(sent.append),
                           total_packets=5)
        sim.run(until=0.05)
        assert len(sent) == 1 and sender._pacing_armed  # wake at t=0.1
        # The whole flow acknowledged while the pacer holds the rest back.
        sender.receive_ack(5, 0.0, False, (), False, False)
        assert sender.done
        pushes = sim.heap_pushes
        sim.run()
        # The wake (and the cancelled RTO's) surfaced and did nothing.
        assert len(sent) == sender.packets_sent == 1
        assert sim.heap_pushes == pushes and sim.pending == 0


class TestRenoIntegration:
    def test_reno_flow_over_lossless_path(self):
        sim = Simulator()
        sender, gate, receiver = make_connection(
            sim, cc=NewReno(initial_cwnd=10), total=400, rtt=0.05)
        sim.run(until=30.0)
        assert sender.done
        assert sender.retransmits == 0
        # Slow start should have grown the window well beyond the initial.
        assert sender.cc.cwnd > 10


class TestReceiver:
    def ack_collector(self, sim):
        acks = []

        class _Sink:
            def receive_ack(self, *record):
                acks.append(Ack(*record))

        return TcpReceiver(sim, _Sink()), acks

    def test_cumulative_ack_advances(self):
        sim = Simulator()
        recv, acks = self.ack_collector(sim)
        for seq in range(3):
            recv.receive(Packet.data(FLOW, seq, 0.0))
        assert acks[-1].ack_next == 3

    def test_out_of_order_generates_sack(self):
        sim = Simulator()
        recv, acks = self.ack_collector(sim)
        recv.receive(Packet.data(FLOW, 0, 0.0))
        recv.receive(Packet.data(FLOW, 2, 0.0))
        assert acks[-1].ack_next == 1
        assert acks[-1].sack == ((2, 3),)

    def test_hole_fill_drains_ooo(self):
        sim = Simulator()
        recv, acks = self.ack_collector(sim)
        for seq in (0, 2, 3, 4, 1):
            recv.receive(Packet.data(FLOW, seq, 0.0))
        assert acks[-1].ack_next == 5
        assert acks[-1].sack == ()

    def test_sack_triggering_block_first(self):
        """RFC 2018: the first block contains the triggering segment."""
        sim = Simulator()
        recv, acks = self.ack_collector(sim)
        recv.receive(Packet.data(FLOW, 5, 0.0))
        recv.receive(Packet.data(FLOW, 2, 0.0))
        assert acks[-1].sack[0] == (2, 3)
        recv.receive(Packet.data(FLOW, 6, 0.0))
        assert acks[-1].sack[0] == (5, 7)

    def test_range_merging(self):
        sim = Simulator()
        recv, _ = self.ack_collector(sim)
        for seq in (5, 7, 6):
            recv.receive(Packet.data(FLOW, seq, 0.0))
        assert recv.sack_ranges == ((5, 8),)

    def test_duplicate_counted(self):
        sim = Simulator()
        recv, _ = self.ack_collector(sim)
        recv.receive(Packet.data(FLOW, 0, 0.0))
        recv.receive(Packet.data(FLOW, 0, 0.0))
        assert recv.duplicates == 1

    def test_duplicate_inside_ooo_range(self):
        sim = Simulator()
        recv, _ = self.ack_collector(sim)
        recv.receive(Packet.data(FLOW, 5, 0.0))
        recv.receive(Packet.data(FLOW, 5, 0.0))
        assert recv.duplicates == 1
        assert recv.sack_ranges == ((5, 6),)

    def test_max_three_sack_blocks(self):
        sim = Simulator()
        recv, acks = self.ack_collector(sim)
        for seq in (2, 4, 6, 8, 10):
            recv.receive(Packet.data(FLOW, seq, 0.0))
        assert len(acks[-1].sack) == 3


class TestFlowDemux:
    def test_routes_by_flow(self):
        demux = FlowDemux()
        got = []

        class _Sink:
            def __init__(self, tag):
                self.tag = tag

            def receive(self, p):
                got.append(self.tag)

        demux.register(FlowId(0, 0), _Sink("a"))
        demux.register(FlowId(0, 1), _Sink("b"))
        demux.receive(Packet.data(FlowId(0, 1), 0, 0.0))
        assert got == ["b"]

    def test_unroutable_counted(self):
        demux = FlowDemux()
        demux.receive(Packet.data(FlowId(9, 9), 0, 0.0))
        assert demux.unroutable == 1

    def test_unregister(self):
        demux = FlowDemux()
        demux.register(FLOW, None)  # type: ignore[arg-type]
        demux.unregister(FLOW)
        demux.receive(Packet.data(FLOW, 0, 0.0))
        assert demux.unroutable == 1


# ----------------------------------------------------------------------
# Reference oracle: the recovery walks the production code replaced
# ----------------------------------------------------------------------

_DUP_THRESH = 3  # RFC 6675, restated: the oracle reads nothing it could share


class NaiveScoreboard(TcpSender):
    """The sender with every per-ACK recovery step spelled the slow way.

    ``_apply_sack`` walks every seq of every block on every ACK,
    ``_detect_losses`` scans all of ``_retx_out`` and reads eight head
    records, ``_on_tlp`` overwrites its probe's entry in place, and
    ``_process_ack`` is the plain composition of the helpers with none of
    the production body's inlined cases.  ``_sack_starts`` / ``_sack_ends``
    are never touched.  The send loop, the timers and the RTO handler are
    the production sender's: they are not what is being checked.
    """

    def _process_ack(self, ack, echo_ts, echo_retransmit, sack, ecn_echo):
        now = self._sim.now
        old_una = self.snd_una
        if (self.ecn and ecn_echo and old_una >= self._ecn_cwr_point
                and not self._in_recovery):
            self._ecn_cwr_point = self.snd_nxt
            self.ecn_reductions += 1
            self.cc.on_loss_event(now, self.inflight)
        newly_sacked = self._apply_sack(sack) if sack else 0
        delivered = newly_sacked
        if ack > old_una:
            self._advance_una(ack)
            newly = self._newly_acked
            rtt = None
            if not echo_retransmit and echo_ts > 0:
                rtt = max(now - echo_ts, 1e-9)
                self._update_rto(rtt)
            delivered += newly
            self._delivered += newly
            self._delivered_time = now
            rate = (self._take_rate_sample(ack, now)
                    if self._needs_rate else None)
            if self._in_recovery and ack >= self._recover_point:
                self._in_recovery = False
                self._recovery_budget = 0.0
                self._retx_out.clear()
                self.cc.on_recovery_exit(now)
            if not self._in_recovery:
                self.cc.on_ack(AckSample(
                    newly_acked=newly, rtt=rtt, delivery_rate=rate,
                    inflight=self.inflight, now=now))
            if self._total is not None and ack >= self._total:
                self._complete(now)
                return
        if (ack > old_una or newly_sacked > 0) and self.snd_nxt > self.snd_una:
            self._restart_rto_timer()
            self._rearm_tlp_timer()
        self._detect_losses(now)
        if self._in_recovery:
            if delivered > 0:
                self._recovery_budget += delivered
            if self.inflight < self.cc.cwnd:
                self._recovery_budget += 1
        self._try_send()

    def _advance_una(self, ack):
        newly = 0
        for seq in range(self.snd_una, ack):
            if seq in self._sacked:
                self._sacked.discard(seq)
            else:
                newly += 1
            self._lost_set.discard(seq)
            self._retx_out.pop(seq, None)
            info = self._send_info.pop(seq, None)
            if info is not None and info[0] > self._rack_time:
                self._rack_time = info[0]
        self._newly_acked = newly
        self.snd_una = ack
        self._loss_scan_ptr = max(self._loss_scan_ptr, ack)
        while self._lost_heap and self._lost_heap[0] < ack:
            heapq.heappop(self._lost_heap)

    def _apply_sack(self, ranges):
        newly = 0
        for start, end in ranges:
            for seq in range(max(start, self.snd_una), end):
                if seq not in self._sacked:
                    self._sacked.add(seq)
                    self._lost_set.discard(seq)
                    self._retx_out.pop(seq, None)
                    info = self._send_info.get(seq)
                    if info is not None and info[0] > self._rack_time:
                        self._rack_time = info[0]
                    newly += 1
            self._fack = max(self._fack, end)
        return newly

    def _detect_losses(self, now):
        sacked, lost, retx = self._sacked, self._lost_set, self._retx_out
        new_loss = False
        scan = max(self._loss_scan_ptr, self.snd_una)
        while scan < self._fack - _DUP_THRESH:
            if scan not in sacked and scan not in retx and scan not in lost:
                lost.add(scan)
                heapq.heappush(self._lost_heap, scan)
                new_loss = True
            scan += 1
        self._loss_scan_ptr = max(self._loss_scan_ptr, scan)

        srtt = self._srtt
        if retx and srtt is not None:
            reo_window = 1.5 * srtt + 4.0 * self._rttvar
            stale = [seq for seq, sent in retx.items()
                     if now - sent > reo_window]
            for seq in stale:
                del retx[seq]
                lost.add(seq)
                heapq.heappush(self._lost_heap, seq)
                new_loss = True

        if srtt is not None and self._rack_time > 0:
            reo = 0.25 * srtt + 4.0 * self._rttvar
            for seq in range(self.snd_una, min(self.snd_una + 8, self.snd_nxt)):
                if seq in sacked or seq in lost or seq in retx:
                    continue
                info = self._send_info.get(seq)
                if info is not None and info[0] + reo < self._rack_time:
                    lost.add(seq)
                    heapq.heappush(self._lost_heap, seq)
                    new_loss = True

        if new_loss and not self._in_recovery:
            self._enter_recovery(now)

    def _on_tlp(self):
        if self.done or self.snd_nxt <= self.snd_una:
            return
        probe = None
        for seq in range(self.snd_nxt - 1, self.snd_una - 1, -1):
            if seq not in self._sacked:
                probe = seq
                break
        if probe is None:
            return
        self.tlp_probes += 1
        self._lost_set.discard(probe)
        self._retx_out[probe] = self._sim.now  # in place: order is not kept
        self._transmit(probe, retransmit=True)
        self._restart_rto_timer()


class NaiveReceiver(TcpReceiver):
    """The receiver with a linear search for the triggering range and a
    ``key=`` bisect for the insertion slot."""

    def _sack_blocks(self, seq):
        triggering = None
        for r in self._ranges:
            if r[0] <= seq < r[1]:
                triggering = r
                break
        blocks = []
        if triggering is not None:
            blocks.append((triggering[0], triggering[1]))
        for r in self._ranges:
            if len(blocks) >= self.MAX_SACK_RANGES:
                break
            if r is not triggering:
                blocks.append((r[0], r[1]))
        return tuple(blocks)

    def _insert(self, seq):
        ranges = self._ranges
        i = sum(1 for r in ranges if r[0] <= seq)
        if i > 0:
            prev = ranges[i - 1]
            if seq < prev[1]:
                self.duplicates += 1
                return
            if seq == prev[1]:
                prev[1] += 1
                if i < len(ranges) and ranges[i][0] == prev[1]:
                    prev[1] = ranges[i][1]
                    del ranges[i]
                return
        if i < len(ranges) and ranges[i][0] == seq + 1:
            ranges[i][0] = seq
            return
        ranges.insert(i, [seq, seq + 1])


class _Collect:
    """A sink that keeps what it is given: packets, or ACK records as
    :data:`Ack` tuples."""

    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)

    def receive_ack(self, *record):
        self.packets.append(Ack(*record))


#: Sender state that must agree after every step (``_lost_heap`` is
#: compared as a multiset: push order may differ, pop order cannot).
_COMPARED = (
    "snd_una", "snd_nxt", "_sacked", "_lost_set", "_retx_out", "_fack",
    "_rack_time", "_loss_scan_ptr", "_in_recovery", "_recover_point",
    "_recovery_budget", "_newly_acked", "_delivered", "_srtt", "_rttvar",
    "_rto", "_next_send_time", "packets_sent", "retransmits", "timeouts",
    "tlp_probes", "loss_events", "completed_at",
)


class ScoreboardPair:
    """A production sender and the oracle, each on its own simulator, fed
    the same ACKs at the same instants.

    The network between them and one real receiver is the test's to play:
    data and ACKs in flight sit in two lists, and each step delivers,
    drops, duplicates or reorders some of them, advances both clocks (so
    pacing, TLP and RTO timers fire), or forges an ACK no receiver would
    send.  After every step the two senders must hold the same scoreboard
    and must have transmitted the same ``(seq, retransmit, time)`` list;
    the production sender also runs under the invariant checker.
    """

    def __init__(self, make_cc, *, total=None, initial_rtt=0.05):
        self.checker = InvariantChecker()
        self.sims = (Simulator(validate=self.checker), Simulator())
        self.wires = (_Collect(), _Collect())
        self.senders = tuple(
            cls(sim, FLOW, make_cc(), wire, total_packets=total,
                initial_rtt=initial_rtt)
            for cls, sim, wire in zip(
                (TcpSender, NaiveScoreboard), self.sims, self.wires)
        )
        self._ack_wire = _Collect()
        self.receiver = TcpReceiver(self.sims[0], self._ack_wire)
        self.data = []  # transmissions not yet delivered or dropped
        self.acks = self._ack_wire.packets  # ACKs not yet delivered or dropped
        self.now = 0.0
        self._taken = 0
        self.seen = Counter()  # what kinds of input the run produced
        self.tick(0.0)

    def check(self):
        ours, oracle = self.senders
        for field in _COMPARED:
            assert getattr(ours, field) == getattr(oracle, field), field
        assert sorted(ours._lost_heap) == sorted(oracle._lost_heap)
        assert ours.cc.cwnd == oracle.cc.cwnd
        assert ours.cc.ssthresh == oracle.cc.ssthresh
        sent, expected = (wire.packets for wire in self.wires)
        assert len(sent) == len(expected)
        for i in range(self._taken, len(sent)):
            a, b = sent[i], expected[i]
            assert (a.seq, a.retransmit, a.sent_at) == (
                b.seq, b.retransmit, b.sent_at)
        self.data.extend(sent[self._taken:])
        self._taken = len(sent)

    def tick(self, dt):
        self.now += dt
        for sim in self.sims:
            sim.run(until=self.now)
        self.check()

    def _move(self, queue, deliver, index, count, drop_mask, duplicate=False):
        for i in range(count):
            if not queue:
                return
            k = min(index, len(queue) - 1)
            packet = queue[k] if duplicate else queue.pop(k)
            if not drop_mask >> i & 1:
                deliver(packet)

    def move_data(self, *move):
        self._move(self.data, self.receiver.receive, *move)

    def move_acks(self, *move):
        self._move(self.acks, self.deliver, *move)

    def deliver(self, ack):
        una = self.senders[0].snd_una
        seen = self.seen
        seen["acks"] += 1
        seen["stale"] += ack.ack_next < una
        seen["advance"] += ack.ack_next > una
        for start, end in ack.sack:
            seen["blocks"] += 1
            seen["block_below_una"] += end <= una
            seen["block_across_una"] += start < una < end
        for sender in self.senders:
            sender.receive_ack(*ack)
        self.check()

    def forge(self, ack_frac, blocks, echo_retransmit):
        """An ACK drawn, not received: any blocks inside ``[0, snd_nxt)``.

        The real receiver is first given whatever the forged ACK claims,
        so the sender is never left believing in data nobody holds (it
        has no reneging path and the connection would stall for good).
        """
        una = self.senders[0].snd_una
        nxt = self.senders[0].snd_nxt
        ack_next = una + int(ack_frac * (nxt - una))
        sack = []
        for a, b in blocks:
            lo, hi = sorted((int(a * nxt), int(b * nxt)))
            if lo < hi:
                sack.append((lo, hi))
        claimed = set(range(self.receiver.rcv_nxt, ack_next))
        for lo, hi in sack:
            claimed.update(range(lo, hi))
        pending = len(self.acks)
        for seq in sorted(claimed):
            self.receiver.receive(Packet.data(FLOW, seq, self.now))
        del self.acks[pending:]
        self.seen["forged"] += 1
        self.deliver(Ack(ack_next, max(self.now - 0.05, 0.0), echo_retransmit,
                         tuple(sack), False, False))

    def step(self, op):
        kind, *args = op
        getattr(self, kind)(*args)

    def finish(self):
        self.checker.finalize()
        assert self.checker.violations == []


_unit = st.floats(0.0, 1.0, allow_nan=False)
#: (index into the in-flight list, how many, which of them to drop, leave
#: them in flight): index > 0 reorders, the mask loses, the flag duplicates.
_moves = st.tuples(
    st.integers(0, 6), st.integers(1, 12),
    st.integers(0, 4095).map(lambda bits: bits & (bits >> 1)),
    st.booleans(),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("tick"),
                  st.sampled_from([0.0, 0.001, 0.01, 0.03, 0.1, 0.4, 1.5])),
        _moves.map(lambda move: ("move_data", *move)),
        _moves.map(lambda move: ("move_acks", *move)),
        st.tuples(st.just("forge"), _unit,
                  st.lists(st.tuples(_unit, _unit), max_size=3),
                  st.booleans()),
    ),
    min_size=10,
    max_size=150,
)


class SteadyWindow(FixedWindow):
    """A window no loss shrinks: recovery at full flight, so SACK blocks
    grow long and several holes stay open at once."""

    def on_loss_event(self, now, inflight):
        pass

    def on_recovery_exit(self, now):
        pass

    def on_timeout(self, now, flight):
        pass


_CCS = {
    "steady": lambda: SteadyWindow(initial_cwnd=40),
    "reno": NewReno,
    "bbr": Bbr,
}


def _random_steps(rng, count):
    """A long seeded walk weighted toward progress: mostly near-in-order
    delivery with ~12% loss, short ticks for the pacer, now and then a
    silence long enough for the TLP or the RTO, and a forged ACK."""
    for _ in range(count):
        draw = rng.random()
        if draw < 0.76:
            yield (
                "move_data" if draw < 0.38 else "move_acks",
                rng.choice((0, 0, 0, 1, 3, 6)),
                rng.randint(1, 12),
                rng.getrandbits(12) & rng.getrandbits(12) & rng.getrandbits(12),
                rng.random() < 0.05,
            )
        elif draw < 0.98:
            yield ("tick", rng.choice((0.001, 0.002, 0.005, 0.01)))
        elif draw < 0.984:
            yield ("tick", rng.choice((0.4, 1.5)))
        else:
            blocks = [(rng.random(), rng.random())
                      for _ in range(rng.randint(0, 3))]
            yield ("forge", rng.random() ** 4, blocks, rng.random() < 0.3)


class TestScoreboardOracle:
    """The O(new information) recovery steps change nothing: same
    scoreboard, same transmissions, ACK by ACK, as the walks they replaced."""

    @pytest.mark.parametrize("cc", sorted(_CCS))
    @settings(max_examples=100)
    @given(steps=_STEPS, initial_rtt=st.sampled_from([None, 0.05]),
           total=st.sampled_from([None, 40]))
    def test_same_scoreboard_and_transmissions(self, cc, steps, initial_rtt,
                                               total):
        pair = ScoreboardPair(_CCS[cc], total=total, initial_rtt=initial_rtt)
        for step in steps:
            pair.step(step)
        pair.finish()

    @pytest.mark.parametrize("cc", sorted(_CCS))
    def test_long_drive_reaches_every_kind_of_input(self, cc):
        """The same comparison over a few thousand steps, with proof that
        the walk went where the rewrite could have gone wrong."""
        pair = ScoreboardPair(_CCS[cc])
        for step in _random_steps(Random(7), 6000):
            pair.step(step)
        pair.finish()
        sender = pair.senders[0]
        seen = pair.seen
        assert seen["advance"] > 100 and seen["blocks"] > 400
        for kind in ("stale", "block_below_una", "block_across_una", "forged"):
            assert seen[kind] > 0, kind
        assert sender.tlp_probes > 0 and sender.timeouts > 0
        # A seq retransmitted twice was re-marked by the stale sweep, an
        # RTO or a second probe.
        again = Counter(p.seq for p in pair.wires[0].packets if p.retransmit)
        assert max(again.values()) >= 2


class TestReceiverOracle:
    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 60), max_size=150))
    def test_same_acks_for_any_arrival_order(self, seqs):
        sim = Simulator()
        wires = (_Collect(), _Collect())
        ours, oracle = TcpReceiver(sim, wires[0]), NaiveReceiver(sim, wires[1])
        for seq in seqs:
            packet = Packet.data(FLOW, seq, 0.0)
            ours.receive(packet)
            oracle.receive(packet)
            got, expected = wires[0].packets[-1], wires[1].packets[-1]
            assert (got.ack_next, got.sack) == (expected.ack_next, expected.sack)
            assert ours.sack_ranges == oracle.sack_ranges
            assert ours.duplicates == oracle.duplicates


# ----------------------------------------------------------------------
# Complexity pin: exact step counts, no wall clock, no production counter
# ----------------------------------------------------------------------


def _steps_per_entry(cls, entry, run):
    """Lines executed inside ``cls``'s source while ``run()`` runs, per
    call of ``entry``."""
    with counting(inside=cls, entry=entry) as steps:
        run()
    assert steps.entries >= 100
    return steps.lines / steps.entries


#: Past the first flight: its ACKs echo a zero timestamp, and without an
#: RTT estimate the stale sweep and the head probe never run.
_HOLE = 50


def _sender_steps_per_ack(block_len):
    """One hole that never heals: every ACK re-reports the block above it,
    ``block_len`` seqs long or more while the count runs."""
    sim = Simulator()
    sender, gate, receiver = make_connection(
        sim, cc=FixedWindow(initial_cwnd=10), rtt=0.02)
    gate.drop_always.add(_HOLE)
    while not receiver.sack_ranges or (
        receiver.sack_ranges[0][1] - receiver.sack_ranges[0][0] < block_len
    ):
        sim.run(until=sim.now + 0.1)
    cost = _steps_per_entry(
        TcpSender, TcpSender._process_ack,
        lambda: sim.run(until=sim.now + 1.0))
    assert sender.snd_una == _HOLE and sender.timeouts == 0
    assert sender.retransmits >= 3  # the stale sweep kept re-marking it
    assert len(receiver.sack_ranges) == 1
    return cost


def _receiver_steps_per_packet(ranges):
    """``ranges`` out-of-order runs held while new data extends the top
    one: the triggering block is the last in the list."""
    recv = TcpReceiver(Simulator(), _Collect())
    for i in range(ranges):
        recv.receive(Packet.data(FLOW, 2 * i + 1, 0.0))
    top = 2 * ranges

    def run():
        for seq in range(top, top + 200):
            recv.receive(Packet.data(FLOW, seq, 0.0))

    cost = _steps_per_entry(TcpReceiver, TcpReceiver.receive, run)
    assert len(recv.sack_ranges) == ranges and recv.rcv_nxt == 0
    return cost


class TestRecoveryCost:
    def test_sender_cost_per_ack_does_not_grow_with_the_block(self):
        assert _sender_steps_per_ack(1000) <= 2 * _sender_steps_per_ack(10)

    def test_receiver_cost_per_packet_does_not_grow_with_the_ranges(self):
        assert (_receiver_steps_per_packet(1024)
                <= 2 * _receiver_steps_per_packet(4))


# ----------------------------------------------------------------------
# The invariants the recovery steps lean on, as --validate audits them
# ----------------------------------------------------------------------


class TestScoreboardAudit:
    def recovering_sender(self):
        checker = InvariantChecker()
        sim = Simulator(validate=checker)
        sender, gate, receiver = make_connection(
            sim, cc=FixedWindow(initial_cwnd=20))
        # Holes past the first flight, whose ACKs echo a zero timestamp
        # and seed no RTT estimate.
        gate.drop_always.update({30, 34})
        sim.run(until=0.5)
        assert sender.snd_una == 30 and sender.srtt is not None
        assert list(sender._retx_out) == [30, 34]
        assert (sender._sack_starts, sender._sack_ends) == ([31, 35], [34, 52])
        assert checker.violations == []
        return sender

    #: What the violation message says -> how to break the scoreboard.
    CORRUPTIONS = {
        "overlap": lambda s: s._lost_set.add(min(s._sacked)),
        "outside": lambda s: s._retx_out.update({s.snd_una - 1: 0.0}),
        "fack": lambda s: setattr(s, "_fack", s.snd_nxt + 1),
        "time order": lambda s: s._retx_out.update({30: 9.0}),
        "retransmit heap": lambda s: s._lost_set.add(s._retx_out.popitem()[0]),
        "disagree":
            lambda s: s._sack_ends.__setitem__(-1, s._sack_ends[-1] + 1),
        "SACK runs": lambda s: s._sack_starts.insert(0, s._sack_starts[0]),
    }

    @pytest.mark.parametrize("complaint", sorted(CORRUPTIONS))
    def test_corruption_is_flagged(self, complaint):
        sender = self.recovering_sender()
        self.CORRUPTIONS[complaint](sender)
        with pytest.raises(InvariantViolation, match=complaint):
            sender.receive_ack(sender.snd_una, 0.0, False, (), False, False)

    def test_unvalidated_sender_is_not_wrapped(self):
        sender, _, _ = make_connection(Simulator())
        assert "receive_ack" not in vars(sender)


# ----------------------------------------------------------------------
# Closed form: NewReno under i.i.d. loss against the Mathis curve
# ----------------------------------------------------------------------


def _reno_goodput(loss, rtt, horizon=300.0):
    """Packets per second one NewReno flow delivers through a Bernoulli
    loss gate and two plain pipes (no limiter, lossless ACK path)."""
    sim = Simulator()
    to_receiver = CallbackSink(lambda packet: receiver.receive(packet))
    gate = LossGate(loss, Pipe(sim, rtt / 2, to_receiver), Random(1))
    sender = TcpSender(sim, FLOW, NewReno(), gate, initial_rtt=rtt)
    receiver = TcpReceiver(sim, Pipe(sim, rtt / 2, sender))
    sim.run(until=horizon)
    return receiver.rcv_nxt / horizon


class TestMathisCurve:
    """``goodput = C / (RTT * sqrt(p))`` with ``C = sqrt(3/2)`` for an
    ideal AIMD sawtooth (Mathis et al. 1997).  Timeouts, recovery
    episodes that lose their own retransmissions and the window floor
    pull a real stack below that as ``p`` grows; the band and the slope
    are what EXPERIMENTS.md records for this sender."""

    LOSS = (0.0025, 0.005, 0.01, 0.02, 0.04)

    @pytest.mark.parametrize("rtt", [0.02, 0.05, 0.1])
    def test_constant_and_slope(self, rtt):
        rate = {p: _reno_goodput(p, rtt) for p in self.LOSS}
        for p in self.LOSS:
            assert 0.85 <= rate[p] * rtt * math.sqrt(p) <= 1.35, p
        slope = math.log(rate[0.02] / rate[0.005]) / math.log(0.02 / 0.005)
        assert -0.70 <= slope <= -0.40
