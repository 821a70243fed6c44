"""TCP sender and receiver endpoints.

The sender implements the loss-recovery machinery shared by all congestion
controllers: cumulative ACK processing, SACK-based loss detection and
retransmission (an RFC 6675-style scoreboard — the paper's testbed runs
Linux TCP, where SACK recovery repairs a whole loss burst in about one
RTT), an RFC 6298 retransmission timer with Karn's rule and exponential
backoff, and pacing for rate-based controllers (BBR).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Callable

from repro.cc.base import AckSample, CongestionControl
from repro.net.packet import FlowId, Packet
from repro.net.sink import AckSink, PacketSink
from repro.sim.simulator import Simulator
from repro.sim.timer import Timer
from repro.units import MSS

#: RFC 6298 constants.
_INITIAL_RTO = 1.0
_MIN_RTO = 0.2
_MAX_RTO = 60.0
#: RFC 6675 DupThresh: a hole is lost once 3 later packets were SACKed.
_DUP_THRESH = 3
#: TLP probe timeout factor (RFC 8985: PTO ~= 2 * SRTT).
_TLP_SRTT_FACTOR = 2.0
#: Linux internal TCP pacing ratios (sysctl tcp_pacing_ss_ratio /
#: tcp_pacing_ca_ratio): cwnd/srtt scaled by 200% in slow start, 120% in
#: congestion avoidance.  Applied whenever the controller doesn't supply
#: its own pacing rate (BBR does).
_PACING_SS_RATIO = 2.0
_PACING_CA_RATIO = 1.2


class TcpSender:
    """One TCP flow's sender.

    Parameters
    ----------
    sim:
        The simulator.
    flow:
        Flow identity stamped on every packet.
    cc:
        Congestion controller instance (owned by this sender).
    egress:
        First hop for data packets (a pipe into the rate limiter).
    total_packets:
        Flow length in MSS packets; ``None`` means backlogged forever.
    start_time:
        Absolute time the flow starts.
    on_complete:
        Called as ``on_complete(sender, now)`` when the last packet is
        cumulatively acknowledged (finite flows only).
    initial_rtt:
        Seed for the RTT estimator, as the SYN/SYN-ACK handshake provides
        in real TCP.  Without it the first retransmission timeout is the
        conservative 1 s initial RTO and the initial window is sent
        unpaced — both punish short flows unrealistically.
    ecn:
        Negotiate ECN: data packets carry ECT, and an echoed CE mark
        triggers one congestion-window reduction per round trip (RFC 3168
        semantics) without any retransmission.
    """

    # Every field __init__ sets: from 30 instance attributes on, CPython
    # 3.11 keeps them in a per-instance dict.  "__dict__" is for what
    # attaches per instance (the checker's receive_ack wrapper), which an
    # unvalidated run never does (tests/test_packet_path.py).
    __slots__ = (
        "_sim", "flow", "cc", "_egress", "_total", "_mss", "_on_complete",
        "ecn", "_ecn_cwr_point", "ecn_reductions", "snd_una", "snd_nxt",
        "_newly_acked", "_in_recovery", "_recover_point", "_recovery_budget",
        "_sacked", "_sack_starts", "_sack_ends", "_fack", "_lost_set",
        "_lost_heap", "_retx_out", "_loss_scan_ptr", "_srtt", "_rttvar",
        "_rto", "_rto_timer", "_tlp_timer", "_next_send_time", "_pacing_armed",
        "_needs_rate", "_cc_paces", "_ack_scratch", "_delivered",
        "_delivered_time", "_send_info", "_rack_time", "packets_sent",
        "retransmits", "timeouts", "tlp_probes", "loss_events",
        "corrupt_acks_dropped", "completed_at", "started", "__dict__",
    )

    def __init__(
        self,
        sim: Simulator,
        flow: FlowId,
        cc: CongestionControl,
        egress: PacketSink,
        *,
        total_packets: int | None = None,
        start_time: float = 0.0,
        mss: int = MSS,
        on_complete: Callable[["TcpSender", float], None] | None = None,
        initial_rtt: float | None = None,
        ecn: bool = False,
    ) -> None:
        self._sim = sim
        self.flow = flow
        self.cc = cc
        self._egress = egress
        self._total = total_packets
        self._mss = mss
        self._on_complete = on_complete
        self.ecn = ecn
        # One ECN-triggered reduction per RTT (RFC 3168 CWR gating).
        self._ecn_cwr_point = 0
        self.ecn_reductions = 0

        # Sequence space (packet numbers).
        self.snd_una = 0
        self.snd_nxt = 0
        self._newly_acked = 0
        self._in_recovery = False
        self._recover_point = 0
        # PRR-style budget: while in recovery, transmissions (retransmits
        # or new data) are clocked to packets newly delivered, so a flow
        # repairing a large burst loss retries at the path's acceptance
        # rate instead of blasting cwnd every reordering window.
        self._recovery_budget = 0.0

        # SACK scoreboard.
        self._sacked: set[int] = set()
        # The same seqs as maximal [start, end) runs, sorted, disjoint and
        # non-adjacent, in two parallel int lists so the lookup is a plain
        # C bisect.  Every seq of a run at or above snd_una is in _sacked
        # and vice versa, so _apply_sack walks only the part of a block
        # no earlier block covered; _advance_una drops the runs that end
        # at or below snd_una (a run straddling it is left unclipped).
        self._sack_starts: list[int] = []
        self._sack_ends: list[int] = []
        self._fack = 0  # highest SACKed seq + 1
        self._lost_set: set[int] = set()
        self._lost_heap: list[int] = []
        # seq -> retransmit time.  Iteration order is retransmit-time
        # order: lost and retx are disjoint, so _try_send always writes a
        # new key, and _on_tlp pops its probe before re-inserting it; the
        # stale sweep in _detect_losses stops at the first fresh entry.
        self._retx_out: dict[int, float] = {}
        self._loss_scan_ptr = 0  # seqs below this were loss-checked

        # RTO state (RFC 6298), optionally seeded by the handshake sample.
        self._srtt: float | None = None
        self._rttvar = 0.0
        self._rto = _INITIAL_RTO
        if initial_rtt is not None and initial_rtt > 0:
            self._update_rto(initial_rtt)
        # Both retransmission timers are soft-reschedule Timers: the
        # per-ACK rearm just overwrites a deadline float instead of a
        # cancel + O(log H) heap push (see repro.sim.timer).
        self._rto_timer = Timer(sim, self._on_rto)
        # Tail-loss-probe timer (RFC 8985 TLP): fires ~2 SRTT after the
        # last ACK while data is outstanding, retransmitting the highest
        # un-SACKed packet.  The probe's SACK feedback lets RACK repair a
        # whole-flight loss in ~2 RTTs instead of waiting for the 200 ms+
        # RTO — the behaviour of the Linux stacks in the paper's testbed.
        self._tlp_timer = Timer(sim, self._on_tlp)

        # Pacing state.  A pacing deadline is never moved or taken back,
        # so it needs no Timer: one heap event wakes _try_send, and while
        # it is pending (armed) no other is pushed.
        self._next_send_time = 0.0
        self._pacing_armed = False

        self._needs_rate = cc.needs_rate_samples
        #: Whether the controller overrides pacing_rate (the base returns
        #: None unconditionally, so the send loop can skip the call).
        self._cc_paces = (
            type(cc).pacing_rate is not CongestionControl.pacing_rate
        )
        #: Scratch sample reused for every ACK — controllers consume
        #: samples synchronously (AckSample's contract), so one mutable
        #: instance per sender avoids a dataclass construction per ACK.
        self._ack_scratch = AckSample(
            newly_acked=0, rtt=None, delivery_rate=None, inflight=0.0, now=0.0
        )

        # Per-packet send records: seq -> (sent_time, delivered_at_send,
        # delivered_time_at_send, retransmit).  Used for delivery-rate
        # sampling (BBR) and RACK-style time-based loss detection.
        self._delivered = 0
        self._delivered_time = start_time
        self._send_info: dict[int, tuple[float, int, float, bool]] = {}
        # RACK point: latest original send time among delivered packets.
        self._rack_time = 0.0

        # Stats.
        self.packets_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.tlp_probes = 0
        self.loss_events = 0
        self.corrupt_acks_dropped = 0
        self.completed_at: float | None = None
        self.started = False

        sim.schedule_at(max(start_time, sim.now), self._start)

        validator = getattr(sim, "validator", None)
        if validator is not None:
            validator.attach_sender(self)

    # ------------------------------------------------------------------
    # Public state
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once a finite flow is fully acknowledged."""
        return self.completed_at is not None

    @property
    def inflight(self) -> int:
        """Scoreboard pipe estimate: outstanding minus SACKed minus
        lost-but-not-retransmitted, plus outstanding retransmissions."""
        pipe = (
            (self.snd_nxt - self.snd_una)
            - len(self._sacked)
            - len(self._lost_set)
            + len(self._retx_out)
        )
        return max(pipe, 0)

    @property
    def in_recovery(self) -> bool:
        """True while repairing a loss event."""
        return self._in_recovery

    @property
    def rto(self) -> float:
        """Current retransmission timeout in seconds."""
        return self._rto

    @property
    def srtt(self) -> float | None:
        """Smoothed RTT estimate, or ``None`` before the first sample."""
        return self._srtt

    # ------------------------------------------------------------------
    # ACK path (the reverse pipe delivers each ACK record here)
    # ------------------------------------------------------------------

    def receive_ack(self, ack_next: int, echo_ts: float, echo_retransmit: bool,
                    sack: tuple[tuple[int, int], ...], ecn_echo: bool,
                    corrupt: bool) -> None:
        """Process one ACK record, the six fields :meth:`TcpReceiver.receive`
        sends.  A corrupted ACK (failed checksum, see :mod:`repro.net.impair`)
        is counted and dropped, never processed."""
        if corrupt:
            self.corrupt_acks_dropped += 1
        elif self.completed_at is None:
            self._process_ack(ack_next, echo_ts, echo_retransmit, sack,
                              ecn_echo)

    # Named by the frozen benchmarks/suite/test_suite.py:147 and called by
    # nothing under src/: the reverse pipe delivers one ACK per event.
    def receive_batch(self, records: list[tuple]) -> None:
        """:meth:`receive_ack` for each six-field ACK record in turn."""
        for record in records:
            self.receive_ack(*record)

    def _process_ack(self, ack: int, echo_ts: float, echo_retransmit: bool,
                     sack: tuple[tuple[int, int], ...],
                     ecn_echo: bool) -> None:
        """Process one ACK: scoreboard, RTT/RTO, congestion control, loss
        detection, then the send attempt it clocks out.

        The per-ACK common case (empty scoreboard) is written flat: the
        ``_advance_una`` / ``_update_rto`` / ``_detect_losses`` no-loss
        cases, the ``inflight`` pipe and the timer rearms are inlined
        with plain locals and branches instead of ``min``/``max`` calls.
        Whenever the scoreboard is non-trivial the helpers run instead.
        """
        sim = self._sim
        now = sim._now
        old_una = self.snd_una

        if (
            self.ecn
            and ecn_echo
            and old_una >= self._ecn_cwr_point
            and not self._in_recovery
        ):
            self._ecn_cwr_point = self.snd_nxt
            self.ecn_reductions += 1
            self.cc.on_loss_event(now, self.inflight)

        newly_sacked = self._apply_sack(sack) if sack else 0
        delivered_this_ack = newly_sacked

        sacked = self._sacked
        lost = self._lost_set
        retx = self._retx_out
        if ack > old_una:
            # _advance_una, fast case: empty scoreboard means every seq in
            # [snd_una, ack) is newly acked and only the send-info record
            # and RACK point need maintenance.
            if not sacked and not lost and not retx:
                newly = ack - old_una
                self._newly_acked = newly
                pop_info = self._send_info.pop
                rack_time = self._rack_time
                for seq in range(old_una, ack):
                    info = pop_info(seq, None)
                    if info is not None:
                        sent = info[0]
                        if sent > rack_time:
                            rack_time = sent
                self._rack_time = rack_time
                self.snd_una = ack
                if ack > self._loss_scan_ptr:
                    self._loss_scan_ptr = ack
                heap = self._lost_heap
                while heap and heap[0] < ack:
                    heapq.heappop(heap)
            else:
                self._advance_una(ack)
                newly = self._newly_acked
            rtt_sample: float | None = None
            if not echo_retransmit and echo_ts > 0:
                rtt_sample = now - echo_ts
                if rtt_sample < 1e-9:
                    rtt_sample = 1e-9
                # _update_rto inlined.
                srtt = self._srtt
                if srtt is None:
                    srtt = rtt_sample
                    rttvar = rtt_sample / 2.0
                else:
                    dev = srtt - rtt_sample
                    if dev < 0.0:
                        dev = -dev
                    rttvar = 0.75 * self._rttvar + 0.25 * dev
                    srtt = 0.875 * srtt + 0.125 * rtt_sample
                self._srtt = srtt
                self._rttvar = rttvar
                rto = srtt + 4.0 * rttvar
                if rto < _MIN_RTO:
                    rto = _MIN_RTO
                elif rto > _MAX_RTO:
                    rto = _MAX_RTO
                self._rto = rto
            delivered_this_ack += newly
            self._delivered += newly
            self._delivered_time = now
            if self._needs_rate:
                delivery_rate = self._take_rate_sample(ack, now)
            else:
                delivery_rate = None

            if self._in_recovery and ack >= self._recover_point:
                self._in_recovery = False
                self._recovery_budget = 0.0
                retx.clear()
                self.cc.on_recovery_exit(now)
            if not self._in_recovery:
                pipe = (
                    (self.snd_nxt - ack)
                    - len(sacked)
                    - len(lost)
                    + len(retx)
                )
                if pipe < 0:
                    pipe = 0
                sample = self._ack_scratch
                sample.newly_acked = newly
                sample.rtt = rtt_sample
                sample.delivery_rate = delivery_rate
                sample.inflight = pipe
                sample.now = now
                self.cc.on_ack(sample)
            if self._total is not None and ack >= self._total:
                self._complete(now)
                return
        if (ack > old_una or newly_sacked > 0) and self.snd_nxt > self.snd_una:
            # Forward progress (cumulative or SACK): the connection is not
            # stalled, so push the retransmission timer out (Linux rearms
            # the RTO on any ACK that advances the scoreboard — otherwise
            # a long SACK-paced recovery gets nuked by a spurious RTO).
            # _restart_rto_timer + _rearm_tlp_timer inlined: soft-
            # reschedule deadline writes, each reserving its seq (see
            # repro.sim.timer).
            timer = self._rto_timer
            seq = sim._seq
            sim._seq = seq + 1
            time = now + self._rto
            timer._deadline = time
            timer._deadline_seq = seq
            armed = timer._armed_time
            if armed is None or time < armed:
                timer._armed_time = time
                timer._armed_seq = seq
                sim.call_at_reserved(time, seq, timer._fire, seq)
            srtt = self._srtt
            if srtt is not None:
                pto = _TLP_SRTT_FACTOR * srtt
                cap = 0.9 * self._rto
                if pto > cap:
                    pto = cap
                if pto < 1e-3:
                    pto = 1e-3
                timer = self._tlp_timer
                seq = sim._seq
                sim._seq = seq + 1
                time = now + pto
                timer._deadline = time
                timer._deadline_seq = seq
                armed = timer._armed_time
                if armed is None or time < armed:
                    timer._armed_time = time
                    timer._armed_seq = seq
                    sim.call_at_reserved(time, seq, timer._fire, seq)

        # _detect_losses, fast case: an empty scoreboard with no unscanned
        # holes leaves only the RACK head probe (membership tests against
        # empty sets elided).
        if not sacked and not lost and not retx:
            horizon = self._fack - _DUP_THRESH
            una = self.snd_una
            scan = self._loss_scan_ptr
            if scan < una:
                scan = una
            if scan < horizon:
                self._detect_losses(now)
            else:
                if scan > self._loss_scan_ptr:
                    self._loss_scan_ptr = scan
                srtt = self._srtt
                rack_time = self._rack_time
                new_loss = False
                if srtt is not None and rack_time > 0:
                    reo = 0.25 * srtt + 4.0 * self._rttvar
                    head_end = una + 8
                    snd_nxt = self.snd_nxt
                    if head_end > snd_nxt:
                        head_end = snd_nxt
                    get_info = self._send_info.get
                    for seq in range(una, head_end):
                        if seq in lost:
                            continue
                        info = get_info(seq)
                        if info is None:
                            continue
                        if info[0] + reo < rack_time:
                            lost.add(seq)
                            heapq.heappush(self._lost_heap, seq)
                            new_loss = True
                        elif not info[3]:
                            # See _detect_losses: nothing above a fresh
                            # original can be overdue.
                            break
                if new_loss and not self._in_recovery:
                    self._enter_recovery(now)
        else:
            self._detect_losses(now)
        if self._in_recovery:
            # PRR: clock transmissions to deliveries; the +1 below is the
            # slow-start reduction bound (grow the pipe back toward cwnd
            # when it fell under it, e.g. after losing a whole flight).
            if delivered_this_ack > 0:
                self._recovery_budget += delivered_this_ack
            pipe = (
                (self.snd_nxt - self.snd_una)
                - len(sacked)
                - len(lost)
                + len(retx)
            )
            if pipe < 0:
                pipe = 0
            if pipe < self.cc.cwnd:
                self._recovery_budget += 1
        self._try_send()

    def _try_send(self) -> None:
        """Transmit while the window, the recovery budget and the pacer
        allow: lost packets first (oldest first), then new data.

        One pass per packet sent: once a paced, backlogged flow's next
        send time lies ahead, the next pass could only end at the window,
        the budget or the pacer, so just those are read (its lost-heap
        scan would only drop stale heads, which any later scan drops).
        """
        if self.completed_at is not None or not self.started:
            return
        now = self._sim._now
        cc = self.cc
        # Pacing is priced once, on the first pass that reaches it and
        # only if a packet will leave: with srtt known there is always a
        # rate, so the pacer is tested first.
        priced = False
        sacked = self._sacked
        lost = self._lost_set
        retx = self._retx_out
        lost_heap = self._lost_heap
        total = self._total
        while True:
            # Next retransmission candidate: the lowest still-lost seq
            # (stale heap heads are dropped lazily).
            retx_seq = None
            while lost_heap:
                head = lost_heap[0]
                if head in lost and head >= self.snd_una:
                    retx_seq = head
                    break
                heapq.heappop(lost_heap)
            snd_nxt = self.snd_nxt
            if retx_seq is None and not (total is None or snd_nxt < total):
                return
            pipe = (snd_nxt - self.snd_una) - len(sacked) - len(lost) + len(retx)
            if pipe < 0:
                pipe = 0
            if pipe + 1 > cc.cwnd:
                return
            in_recovery = self._in_recovery
            if in_recovery and self._recovery_budget < 1.0:
                return
            if not priced:
                priced = True
                srtt = self._srtt
                if srtt is not None and now < self._next_send_time - 1e-12:
                    self._arm_pacing_timer()
                    return
                rate = cc.pacing_rate(now) if self._cc_paces else None
                if rate is None and srtt is not None:
                    # Linux-style internal pacing: the window over the RTT.
                    cwnd = cc.cwnd
                    ratio = (_PACING_SS_RATIO if cwnd < cc.ssthresh
                             else _PACING_CA_RATIO)
                    rate = ratio * cwnd / srtt
                    if rate < 1.0:
                        rate = 1.0
            if rate is not None:
                nst = self._next_send_time
                if now < nst - 1e-12:
                    self._arm_pacing_timer()
                    return
                if nst < now:
                    nst = now
                self._next_send_time = nst + 1.0 / rate
            if in_recovery:
                self._recovery_budget -= 1.0
            if retx_seq is not None:
                heapq.heappop(lost_heap)
                lost.discard(retx_seq)
                retx[retx_seq] = now
                self.retransmits += 1
                seq = retx_seq
                retransmit = True
            else:
                seq = snd_nxt
                self.snd_nxt = seq + 1
                retransmit = False
            # _transmit inlined.
            self.packets_sent += 1
            self._send_info[seq] = (
                now, self._delivered, self._delivered_time, retransmit
            )
            self._egress.receive(
                Packet(self.flow, seq, self._mss, now, retransmit, self.ecn)
            )
            if self._rto_timer._deadline is None:
                self._restart_rto_timer()
            if self._tlp_timer._deadline is None:
                self._rearm_tlp_timer()
            if (rate is not None and total is None
                    and now < self._next_send_time - 1e-12):
                # The next pass's three possible exits, in its order.
                pipe = ((self.snd_nxt - self.snd_una) - len(sacked)
                        - len(lost) + len(retx))
                if pipe < 0:
                    pipe = 0
                if pipe + 1 > cc.cwnd:
                    return
                if self._in_recovery and self._recovery_budget < 1.0:
                    return
                self._arm_pacing_timer()
                return

    def _advance_una(self, ack: int) -> None:
        """Move ``snd_una`` to ``ack`` and prune scoreboard state below."""
        newly = 0
        sacked = self._sacked
        lost = self._lost_set
        retx = self._retx_out
        pop_info = self._send_info.pop
        rack_time = self._rack_time
        for seq in range(self.snd_una, ack):
            if seq in sacked:
                sacked.discard(seq)
            else:
                newly += 1
            lost.discard(seq)
            retx.pop(seq, None)
            info = pop_info(seq, None)
            if info is not None and info[0] > rack_time:
                rack_time = info[0]
        self._rack_time = rack_time
        self._newly_acked = newly
        self.snd_una = ack
        if ack > self._loss_scan_ptr:
            self._loss_scan_ptr = ack
        ends = self._sack_ends
        if ends and ends[0] <= ack:
            k = bisect_right(ends, ack)
            del ends[:k]
            del self._sack_starts[:k]
        # Drop stale heap heads lazily.
        heap = self._lost_heap
        while heap and heap[0] < ack:
            heapq.heappop(heap)

    def _apply_sack(self, ranges: tuple[tuple[int, int], ...]) -> int:
        """Merge SACK ranges into the scoreboard; return newly SACKed count.

        Costs O(blocks + newly SACKed), not O(block lengths): the receiver
        re-reports a block on every ACK until the hole below it fills, and
        the runs in ``_sack_starts`` / ``_sack_ends`` say which part of it
        is news.  Only the gaps between runs are walked, and above
        ``snd_una`` a seq is in a gap exactly when it is not in
        ``_sacked``, so any blocks at all — stale, overlapping, reaching
        below ``snd_una`` — are merged as the seq-by-seq walk merged them.
        """
        newly = 0
        sacked = self._sacked
        lost = self._lost_set
        retx = self._retx_out
        get_info = self._send_info.get
        rack_time = self._rack_time
        una = self.snd_una
        fack = self._fack
        starts = self._sack_starts
        ends = self._sack_ends
        for start, end in ranges:
            if end > fack:
                fack = end
            if start < una:
                start = una
            if start >= end:
                continue
            # First run reaching up to ``start``; the runs from there
            # while they begin at or below ``end`` overlap or abut the block.
            i = k = bisect_left(ends, start)
            n = len(ends)
            if i < n and starts[i] <= start and end <= ends[i]:
                continue
            cur = start
            while cur < end:
                if k < n and starts[k] <= end:
                    gap_end = starts[k]
                    resume = ends[k]
                    k += 1
                else:
                    gap_end = resume = end
                if gap_end > cur:
                    newly += gap_end - cur
                    for seq in range(cur, gap_end):
                        sacked.add(seq)
                        lost.discard(seq)
                        retx.pop(seq, None)
                        info = get_info(seq)
                        if info is not None and info[0] > rack_time:
                            rack_time = info[0]
                cur = resume
            # One run replaces the k - i it swallowed (an insert when none).
            if k > i and starts[i] < start:
                start = starts[i]
            starts[i:k] = (start,)
            ends[i:k] = (cur,)
        self._rack_time = rack_time
        self._fack = fack
        return newly

    def _detect_losses(self, now: float) -> None:
        """Mark un-SACKed holes at least DupThresh below the highest SACKed
        seq as lost (FACK-style: ``_fack - _DUP_THRESH``, whatever lies in
        between), and re-mark stale retransmissions (RACK-style: a
        retransmit still unacknowledged after ~1.5 smoothed RTTs was lost
        again — Linux's RACK-TLP behaviour, without which a dropped
        retransmission stalls the flow until an RTO)."""
        sacked = self._sacked
        lost = self._lost_set
        retx = self._retx_out
        lost_heap = self._lost_heap
        heappush = heapq.heappush
        una = self.snd_una
        horizon = self._fack - _DUP_THRESH
        new_loss = False
        scan = self._loss_scan_ptr
        if una > scan:
            scan = una
        while scan < horizon:
            if scan not in sacked and scan not in retx and scan not in lost:
                lost.add(scan)
                heappush(lost_heap, scan)
                new_loss = True
            scan += 1
        if scan > self._loss_scan_ptr:
            self._loss_scan_ptr = scan

        srtt = self._srtt
        if retx and srtt is not None:
            reo_window = 1.5 * srtt + 4.0 * self._rttvar
            # Oldest first (see _retx_out): the first fresh entry ends it.
            stale = []
            for seq, sent in retx.items():
                if now - sent > reo_window:
                    stale.append(seq)
                else:
                    break
            if stale:
                for seq in stale:
                    del retx[seq]
                    lost.add(seq)
                    heappush(lost_heap, seq)
                new_loss = True

        # RACK time-based detection for the head of the window: a packet
        # sent a reordering-window before the most recently delivered one
        # is lost even when fewer than DupThresh packets follow it (the
        # small-cwnd regime where dup-ACK detection cannot fire and Linux
        # relies on RACK-TLP).  DupThresh handles the large-window case,
        # so scanning a few head sequences suffices.  Originals leave in
        # seq order at non-decreasing times and a retransmission is never
        # earlier than its original, so once a seq whose latest
        # transmission is an original is not overdue, nothing above it is.
        rack_time = self._rack_time
        if srtt is not None and rack_time > 0:
            reo = 0.25 * srtt + 4.0 * self._rttvar
            head_end = una + 8
            snd_nxt = self.snd_nxt
            if snd_nxt < head_end:
                head_end = snd_nxt
            get_info = self._send_info.get
            for seq in range(una, head_end):
                if seq in sacked or seq in lost or seq in retx:
                    continue
                info = get_info(seq)
                if info is None:
                    continue
                if info[0] + reo < rack_time:
                    lost.add(seq)
                    heappush(lost_heap, seq)
                    new_loss = True
                elif not info[3]:
                    break

        if new_loss and not self._in_recovery:
            self._enter_recovery(now)

    def _enter_recovery(self, now: float) -> None:
        self._in_recovery = True
        self._recover_point = self.snd_nxt
        # Allow the immediate fast retransmit that opens recovery.
        self._recovery_budget = max(self._recovery_budget, 1.0)
        self.loss_events += 1
        self.cc.on_loss_event(now, self.inflight)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _start(self) -> None:
        self.started = True
        self._next_send_time = self._sim.now
        self._try_send()

    def _transmit(self, seq: int, *, retransmit: bool) -> None:
        now = self._sim.now
        self.packets_sent += 1
        self._send_info[seq] = (
            now, self._delivered, self._delivered_time, retransmit
        )
        self._egress.receive(
            Packet(self.flow, seq, self._mss, now, retransmit, self.ecn)
        )

    def _arm_pacing_timer(self) -> None:
        """Wake :meth:`_try_send` at ``_next_send_time`` (the caller has
        checked it lies in the future) unless a wake is already pending.

        The wake takes a freshly reserved seq, the heap position a
        :class:`~repro.sim.timer.Timer` armed here would fire at.
        """
        if not self._pacing_armed:
            self._pacing_armed = True
            # Simulator.reserve_seq + call_at_reserved inlined.
            sim = self._sim
            seq = sim._seq
            sim._seq = seq + 1
            heap = sim._heap
            heapq.heappush(
                heap, (self._next_send_time, seq, self._on_pacing_wake, ())
            )
            sim._heap_pushes += 1
            if len(heap) > sim._peak_heap:
                sim._peak_heap = len(heap)

    def _on_pacing_wake(self) -> None:
        self._pacing_armed = False
        self._try_send()

    # ------------------------------------------------------------------
    # Delivery-rate sampling (BBR)
    # ------------------------------------------------------------------

    def _take_rate_sample(self, ack: int, now: float) -> float | None:
        info = self._send_info.get(ack - 1)
        if len(self._send_info) > 4 * max(int(self.cc.cwnd), 256):
            self._send_info = {
                s: v for s, v in self._send_info.items() if s >= ack
            }
        if info is None:
            return None
        _sent, delivered_at_send, delivered_time_at_send, retransmit = info
        if retransmit:
            return None
        interval = now - delivered_time_at_send
        if interval <= 0:
            return None
        return (self._delivered - delivered_at_send) / interval

    # ------------------------------------------------------------------
    # RTO machinery
    # ------------------------------------------------------------------

    def _update_rto(self, rtt: float) -> None:
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        self._rto = min(
            max(self._srtt + 4.0 * self._rttvar, _MIN_RTO), _MAX_RTO
        )

    def _rearm_tlp_timer(self) -> None:
        if self._srtt is None:
            return
        # Linux arms the loss probe in place of the RTO, so the probe always
        # fires first and the RTO remains the backstop behind it.
        pto = max(min(_TLP_SRTT_FACTOR * self._srtt, 0.9 * self._rto), 1e-3)
        self._tlp_timer.schedule_after(pto)

    def _on_tlp(self) -> None:
        if self.done or self.snd_nxt <= self.snd_una:
            return
        # Probe with the highest-sequenced un-SACKed outstanding packet;
        # its (S)ACK rearms the scoreboard.  Sent outside the cwnd check —
        # it's a probe.  One probe per quiet period (rearmed by ACKs).
        probe = None
        for seq in range(self.snd_nxt - 1, self.snd_una - 1, -1):
            if seq not in self._sacked:
                probe = seq
                break
        if probe is None:
            return
        self.tlp_probes += 1
        self._lost_set.discard(probe)
        # Re-insert, not overwrite: _retx_out iterates in time order.
        self._retx_out.pop(probe, None)
        self._retx_out[probe] = self._sim.now
        self._transmit(probe, retransmit=True)
        # Give the probe a full RTO to report back before the backstop
        # fires (Linux rearms the retransmission timer at probe send).
        self._restart_rto_timer()

    def _restart_rto_timer(self) -> None:
        if self.snd_nxt > self.snd_una:
            self._rto_timer.schedule_after(self._rto)
        else:
            self._rto_timer.cancel()

    def _on_rto(self) -> None:
        if self.done or self.snd_nxt <= self.snd_una:
            return
        now = self._sim.now
        self.timeouts += 1
        self._in_recovery = False
        # RFC 5681: ssthresh is based on FlightSize (all outstanding data),
        # not the loss-adjusted pipe — repeated RTOs while the flight stays
        # outstanding must not grind ssthresh down to the minimum.
        flight = self.snd_nxt - self.snd_una
        self.cc.on_timeout(now, flight)
        self._rto = min(self._rto * 2.0, _MAX_RTO)
        # Everything outstanding and un-SACKed is presumed lost; the send
        # loop retransmits it under the collapsed window, oldest first.
        self._retx_out.clear()
        for seq in range(self.snd_una, self.snd_nxt):
            if seq not in self._sacked and seq not in self._lost_set:
                self._lost_set.add(seq)
                heapq.heappush(self._lost_heap, seq)
        self._restart_rto_timer()
        self._try_send()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _complete(self, now: float) -> None:
        self.completed_at = now
        self._rto_timer.cancel()
        self._tlp_timer.cancel()
        # A pending pacing wake still fires; _try_send returns at once.
        self._send_info.clear()
        self._sacked.clear()
        self._sack_starts.clear()
        self._sack_ends.clear()
        self._lost_set.clear()
        self._lost_heap.clear()
        self._retx_out.clear()
        if self._on_complete is not None:
            self._on_complete(self, now)


class TcpReceiver:
    """One flow's receiver: cumulative ACKs plus SACK blocks.

    Out-of-order data is tracked as disjoint ``[start, end)`` ranges; each
    ACK reports the lowest three (enough for the sender's scoreboard, like
    the 3-block SACK option of real TCP).
    """

    #: Maximum SACK ranges advertised per ACK.
    MAX_SACK_RANGES = 3

    def __init__(self, sim: Simulator, ack_path: AckSink) -> None:
        self._sim = sim
        self._ack_path = ack_path
        self.rcv_nxt = 0
        self._ranges: list[list[int]] = []  # disjoint, sorted [start, end)
        self.data_packets = 0
        self.data_bytes = 0
        self.duplicates = 0
        self.corrupt_dropped = 0

    @property
    def sack_ranges(self) -> tuple[tuple[int, int], ...]:
        """Current out-of-order ranges (for tests)."""
        return tuple((r[0], r[1]) for r in self._ranges)

    def receive(self, packet: Packet) -> None:
        """Absorb one data packet and send its ACK down the ACK path as one
        record, the six fields of :meth:`TcpSender.receive_ack`.

        The SACK scan is skipped while no out-of-order ranges exist.
        """
        if packet.corrupt:
            # Failed checksum: drop without acknowledging.
            self.corrupt_dropped += 1
            return
        self.data_packets += 1
        self.data_bytes += packet.size
        seq = packet.seq
        rcv_nxt = self.rcv_nxt
        if seq == rcv_nxt:
            rcv_nxt += 1
            ranges = self._ranges
            if ranges and ranges[0][0] == rcv_nxt:
                rcv_nxt = ranges.pop(0)[1]
            self.rcv_nxt = rcv_nxt
        elif seq > rcv_nxt:
            self._insert(seq)
        else:
            self.duplicates += 1
        sack = () if not self._ranges else self._sack_blocks(seq)
        self._ack_path.receive_ack(self.rcv_nxt, packet.sent_at,
                                   packet.retransmit, sack, packet.ce, False)

    def _sack_blocks(self, seq: int) -> tuple[tuple[int, int], ...]:
        """Up to three SACK blocks, the one containing the segment that
        triggered this ACK first (RFC 2018 — without this, a sender draining
        a large loss episode cannot see that later ACKs report progress)."""
        ranges = self._ranges
        if not ranges:
            return ()
        # [seq + 1] sorts after every [start, end] with start <= seq and
        # before the rest, so this is the last range starting at or below
        # seq: the only one that can hold it.
        i = bisect_left(ranges, [seq + 1]) - 1
        lowest = ranges[: self.MAX_SACK_RANGES]
        if i < 0 or ranges[i][1] <= seq:
            return tuple([(r[0], r[1]) for r in lowest])
        triggering = ranges[i]
        blocks = [(triggering[0], triggering[1])]
        for r in lowest:
            if r is not triggering:
                blocks.append((r[0], r[1]))
        return tuple(blocks[: self.MAX_SACK_RANGES])

    def _insert(self, seq: int) -> None:
        """Insert ``seq`` into the disjoint range list, merging neighbours."""
        ranges = self._ranges
        # Number of ranges starting at or below seq (see _sack_blocks).
        i = bisect_left(ranges, [seq + 1])
        # Check the range before (could contain or abut seq).
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


class FlowDemux:
    """Routes packets to per-flow sinks by :class:`FlowId`."""

    def __init__(self) -> None:
        self._sinks: dict[FlowId, PacketSink] = {}
        self.unroutable = 0

    def register(self, flow: FlowId, sink: PacketSink) -> None:
        """Route ``flow``'s packets to ``sink`` (later wins)."""
        self._sinks[flow] = sink

    def unregister(self, flow: FlowId) -> None:
        """Stop routing ``flow``; unknown flows are ignored."""
        self._sinks.pop(flow, None)

    def receive(self, packet: Packet) -> None:
        sink = self._sinks.get(packet.flow)
        if sink is None:
            self.unroutable += 1
            return
        sink.receive(packet)
