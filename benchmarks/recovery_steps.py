#!/usr/bin/env python3
"""Step counts of the TCP endpoint's four per-ACK recovery loops.

    python benchmarks/recovery_steps.py [WORKLOAD ...] [--seed 1] [--seconds 8]
                                         [--try-send]

Runs the suite's closed-loop cells (``sat_shaper``, ``lossy_churn``,
``sat_bcpqp`` by default; same inputs as ``suite/run.py --seed N
--seconds S``) with counting stand-ins put in from outside -- ``set``,
``dict`` and ``list`` subclasses in place of ``TcpSender._sacked`` /
``_retx_out`` / ``_send_info`` / ``_sack_starts`` and
``TcpReceiver._ranges`` -- and prints
one JSON object per workload.  Nothing under ``src/`` knows it exists, so
the same file counts the tree it is copied into (DESIGN.md, "TCP endpoint:
recovery cost", was filled in by running it on this commit and its parent).
The counts repeat exactly; the run is several times slower than an
unprobed one and its timings mean nothing.

``--try-send`` counts something else with the same method: every entry
of ``TcpSender._try_send`` by caller (``ack`` = the tail of
``_process_ack``, ``pacing`` = the sender's pacing wake, ``rto``,
``start``), by how many packets it sent, and by the check that ended it
(``idle``, ``no_data``, ``cwnd``, ``budget``, ``pacing`` — read off the
sender's state on return, which is what the last check saw), plus the
entries an "already waiting for the pacing wake" early return would skip.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "suite")]

from repro.cc.endpoint import TcpReceiver, TcpSender  # noqa: E402

COUNTS: Counter = Counter()
#: Which sender method is running, innermost last ("ack", "sack", ...).
_where: list[str] = []


class _Sacked(set):
    """``_sacked``: the seqs ``_apply_sack`` tests for membership (the walk
    this commit's parent made) and the ones it adds."""

    def __contains__(self, seq):
        if _where and _where[-1] == "sack":
            COUNTS["apply_sack.seq_probes"] += 1
        return set.__contains__(self, seq)

    def add(self, seq):
        if _where and _where[-1] == "sack":
            COUNTS["apply_sack.seq_adds"] += 1
        set.add(self, seq)


class _SackStarts(list):
    """``_sack_starts`` (absent at the parent): run starts ``_apply_sack``
    reads by index while it looks for the part of a block that is news."""

    def __getitem__(self, index):
        if _where and _where[-1] == "sack":
            COUNTS["apply_sack.run_reads"] += 1
        return list.__getitem__(self, index)


class _RetxOut(dict):
    """``_retx_out``: entries the stale sweep reads and the ones it expires."""

    def items(self):
        for item in dict.items(self):
            COUNTS["sweep.visits"] += 1
            yield item

    def __delitem__(self, seq):
        COUNTS["sweep.expired"] += 1
        dict.__delitem__(self, seq)


class _SendInfo(dict):
    """``_send_info``: records the RACK head probe reads (``get`` calls made
    from ``_process_ack`` / ``_detect_losses`` themselves)."""

    def get(self, seq, default=None):
        if _where and _where[-1] in ("ack", "detect"):
            COUNTS["head_probe.reads"] += 1
        return dict.get(self, seq, default)


class _Ranges(list):
    """``TcpReceiver._ranges``: entries read by index, slice or iteration."""

    def __getitem__(self, index):
        got = list.__getitem__(self, index)
        COUNTS["receiver.range_reads"] += (
            len(got) if isinstance(index, slice) else 1
        )
        return got

    def __iter__(self):
        for item in list.__iter__(self):
            COUNTS["receiver.range_reads"] += 1
            yield item


def _scoped(cls, name, tag, before=None, after=None):
    original = getattr(cls, name)

    def wrapper(self, *args):
        if before is not None:
            before(self, *args)
        _where.append(tag)
        try:
            result = original(self, *args)
        finally:
            _where.pop()
        if after is not None:
            after(self, result)
        return result

    setattr(cls, name, wrapper)


def install() -> None:
    sender_init = TcpSender.__init__
    receiver_init = TcpReceiver.__init__

    def init_sender(self, *args, **kwargs):
        sender_init(self, *args, **kwargs)
        self._sacked = _Sacked()
        self._retx_out = _RetxOut()
        self._send_info = _SendInfo()
        if hasattr(self, "_sack_starts"):
            self._sack_starts = _SackStarts()

    def init_receiver(self, *args, **kwargs):
        receiver_init(self, *args, **kwargs)
        self._ranges = _Ranges()

    TcpSender.__init__ = init_sender
    TcpReceiver.__init__ = init_receiver

    def ack_before(self, ack, echo_ts, echo_retransmit, sack, ecn_echo):
        COUNTS["acks"] += 1
        if sack:
            COUNTS["acks_with_sack"] += 1
            COUNTS["apply_sack.blocks"] += len(sack)

    def sack_before(self, ranges):
        self._probe_sacked = len(self._sacked)

    def sack_after(self, result):
        COUNTS["apply_sack.newly_sacked"] += result
        assert len(self._sacked) - self._probe_sacked == result

    def detect_before(self, now):
        self._probe_sweep = (COUNTS["sweep.visits"], COUNTS["sweep.expired"])

    def detect_after(self, result):
        visits = COUNTS["sweep.visits"] - self._probe_sweep[0]
        expired = COUNTS["sweep.expired"] - self._probe_sweep[1]
        COUNTS["sweep.calls"] += 1
        if visits - expired > COUNTS["sweep.max_visits_beyond_expired"]:
            COUNTS["sweep.max_visits_beyond_expired"] = visits - expired

    def rate_after(self, result):
        # BBR's pruning rebuilds the dict; put the stand-in back.
        if type(self._send_info) is dict:
            self._send_info = _SendInfo(self._send_info)

    def data_before(self, packet):
        COUNTS["receiver.data_packets"] += 1
        if self._ranges:
            COUNTS["receiver.data_packets_with_ranges"] += 1
            COUNTS["receiver.ranges_seen"] += len(self._ranges)

    _scoped(TcpSender, "_process_ack", "ack", before=ack_before)
    _scoped(TcpSender, "_apply_sack", "sack", sack_before, sack_after)
    _scoped(TcpSender, "_detect_losses", "detect", detect_before, detect_after)
    _scoped(TcpSender, "_take_rate_sample", "rate", after=rate_after)
    _scoped(TcpSender, "_try_send", "send")
    _scoped(TcpSender, "_advance_una", "una")
    _scoped(TcpReceiver, "receive", "data", before=data_before)


def install_try_send() -> None:
    """Count ``_try_send`` entries by caller, packets sent and exit."""
    try_send = TcpSender._try_send
    arm_timer = TcpSender._arm_pacing_timer
    armed: list[bool] = [False]

    def exit_of(self) -> str:
        if self.completed_at is not None or not self.started:
            return "idle"
        total = self._total
        if not self._lost_heap and not (total is None or self.snd_nxt < total):
            return "no_data"
        pipe = ((self.snd_nxt - self.snd_una) - len(self._sacked)
                - len(self._lost_set) + len(self._retx_out))
        if max(pipe, 0) + 1 > self.cc.cwnd:
            return "cwnd"
        if self._in_recovery and self._recovery_budget < 1.0:
            return "budget"
        assert armed[0], "no exit check explains this return"
        return "pacing"

    def counted(self):
        caller = _where[-1] if _where else "pacing"
        waiting = (
            self.started and self.completed_at is None
            and self._pacing_armed
            and self._sim.now < self._next_send_time - 1e-12
        )
        sent = self.packets_sent
        armed[0] = False
        try_send(self)
        sent = self.packets_sent - sent
        exit_ = exit_of(self)
        COUNTS["try_send.entries"] += 1
        COUNTS[f"try_send.by_caller.{caller}"] += 1
        COUNTS[f"try_send.sent_{'2+' if sent > 1 else sent}"] += 1
        COUNTS["try_send.packets"] += sent
        COUNTS[f"try_send.exit.{exit_}.sent_{'some' if sent else 'none'}"] += 1
        if waiting:
            assert sent == 0
            COUNTS["try_send.entered_while_waiting_for_pacing"] += 1

    def arm(self):
        armed[0] = True
        arm_timer(self)

    TcpSender._try_send = counted
    TcpSender._arm_pacing_timer = arm
    _scoped(TcpSender, "_process_ack", "ack",
            before=lambda self, *ack: COUNTS.update(acks=1))
    _scoped(TcpSender, "_on_rto", "rto")
    _scoped(TcpSender, "_start", "start")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=["sat_shaper", "lossy_churn", "sat_bcpqp"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--try-send", action="store_true",
                        help="count _try_send entries by caller and exit "
                             "instead of the recovery loops")
    args = parser.parse_args()

    import estimate
    import repeat

    if args.try_send:
        install_try_send()
    else:
        install()
    scale = args.seconds / estimate.MANIFEST["run_seconds"]
    for name in args.workloads:
        COUNTS.clear()
        result = repeat.run_repeat(name, args.seed, scale, False)
        print(json.dumps({
            "workload": name, "seed": args.seed,
            "sim_digest": result["sim_digest"], **dict(sorted(COUNTS.items())),
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
