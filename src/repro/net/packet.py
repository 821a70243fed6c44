"""Packet and flow-identity types.

Data packets carry one MSS of payload; sequence numbers count packets (not
bytes), which matches the paper's MSS-granularity analysis and keeps TCP
bookkeeping simple.  ACKs are 40 bytes and carry a cumulative ``ack_next``
(the next packet number the receiver expects).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.units import ACK_SIZE, MSS


class PacketKind(Enum):
    """Whether a packet carries data or a pure acknowledgement."""

    DATA = "data"
    ACK = "ack"


@dataclass(frozen=True, slots=True)
class FlowId:
    """Identity of one transport flow.

    ``aggregate`` names the rate-limited traffic aggregate (e.g. one ISP
    subscriber); ``slot`` is a stable index within the aggregate used for
    queue classification (an on-off flow that restarts keeps its slot);
    ``incarnation`` distinguishes successive flows in the same slot.
    """

    aggregate: int
    slot: int
    incarnation: int = 0
    #: Cached hash — flow ids key every per-packet dict lookup
    #: (classifier, demux, middlebox), so the tuple-hash is paid once at
    #: construction instead of per lookup.  Same formula as the
    #: dataclass-generated hash (compare fields only), so dict iteration
    #: orders are unchanged.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.aggregate, self.slot, self.incarnation))
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"agg{self.aggregate}.s{self.slot}.i{self.incarnation}"


_packet_ids = itertools.count()

# An Enum member lookup costs about a third of building a packet (0.11
# of 0.31 us), so the per-packet code below reads these instead.
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK

#: The fields ``repr`` shows and ``==`` compares, in constructor order:
#: everything wire-visible plus the uid, not ``corrupt`` (a checksum
#: verdict, not content).
_COMPARED = (
    "flow", "kind", "seq", "size", "sent_at", "ack_next", "echo_ts",
    "echo_retransmit", "retransmit", "ecn_capable", "ce", "ecn_echo",
    "sack", "uid",
)


class Packet:
    """One simulated packet: a plain value.

    A packet belongs to nobody: whoever holds a reference may keep it
    (a trace, a test, a reordering buffer) and the fields it read stay
    what they were; dropping a packet means forgetting it.  The only
    in-flight writes are the marks ``ce`` (an AQM) and ``corrupt`` (an
    impairment gate), which is why
    :class:`~repro.net.impair.Duplicator` forwards a copy.  This module
    is the only one that knows a packet's field list: build packets
    with :meth:`data` and :meth:`ack`.  A TCP flow sends its ACKs as
    records (``TcpSender.receive_ack``); :meth:`ack` is for hand-built ones.

    Attributes
    ----------
    flow:
        Owning flow identity.
    kind:
        DATA or ACK.
    seq:
        For DATA: packet number within the flow.  For ACK: unused (0).
    size:
        Wire size in bytes (MSS for data, 40 for ACKs).
    sent_at:
        Time the packet was (last) transmitted by the sender; echoed back in
        ACKs for RTT sampling.
    ack_next:
        For ACK packets: cumulative next-expected packet number.
    echo_ts:
        For ACK packets: ``sent_at`` of the data packet that triggered this
        ACK (Karn-friendly RTT sampling uses it only for non-retransmits).
    echo_retransmit:
        For ACK packets: ``retransmit`` of the triggering data packet.
    retransmit:
        True if this transmission is a retransmission.
    ecn_capable:
        Data packets: sender negotiated ECN (ECT codepoint).
    ce:
        Data packets: Congestion Experienced mark set by an AQM.
    ecn_echo:
        ACK packets: the receiver saw CE on the triggering segment.
    sack:
        For ACK packets: up to three SACK ranges ``(start, end)`` (end
        exclusive, in packet numbers) above ``ack_next``, lowest first —
        the receiver's out-of-order blocks, as Linux TCP reports them.
    corrupt:
        Set by an impairment channel (:mod:`repro.net.impair`) to model
        a failed checksum: a corrupted DATA packet is dropped by the
        receiver (no ACK), a corrupted ACK by the sender.  Not part of
        ``repr``/``==``.
    uid:
        Globally unique packet id, drawn at construction; handy for
        tracing.
    """

    __slots__ = _COMPARED + ("corrupt",)

    def __init__(
        self,
        flow: FlowId,
        kind: PacketKind,
        seq: int,
        size: int,
        sent_at: float,
        ack_next: int = 0,
        echo_ts: float = 0.0,
        echo_retransmit: bool = False,
        retransmit: bool = False,
        ecn_capable: bool = False,
        ce: bool = False,
        ecn_echo: bool = False,
        sack: tuple[tuple[int, int], ...] = (),
        corrupt: bool = False,
    ) -> None:
        self.flow = flow
        self.kind = kind
        self.seq = seq
        self.size = size
        self.sent_at = sent_at
        self.ack_next = ack_next
        self.echo_ts = echo_ts
        self.echo_retransmit = echo_retransmit
        self.retransmit = retransmit
        self.ecn_capable = ecn_capable
        self.ce = ce
        self.ecn_echo = ecn_echo
        self.sack = sack
        self.corrupt = corrupt
        self.uid = next(_packet_ids)

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in _COMPARED)
        return f"Packet({', '.join(fields)})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in _COMPARED
        )

    @classmethod
    def data(
        cls,
        flow: FlowId,
        seq: int,
        sent_at: float,
        *,
        size: int = MSS,
        retransmit: bool = False,
        ecn_capable: bool = False,
    ) -> "Packet":
        """Construct a data packet."""
        # Positional (constructor order) because this runs once per packet.
        return cls(
            flow, _DATA, seq, size, sent_at,
            0, 0.0, False, retransmit, ecn_capable,
        )

    @classmethod
    def ack(
        cls,
        flow: FlowId,
        ack_next: int,
        sent_at: float,
        *,
        echo_ts: float,
        echo_retransmit: bool,
        sack: tuple[tuple[int, int], ...] = (),
        ecn_echo: bool = False,
    ) -> "Packet":
        """Construct a pure ACK for ``flow`` (sent receiver → sender)."""
        return cls(
            flow, _ACK, 0, ACK_SIZE, sent_at,
            ack_next, echo_ts, echo_retransmit, False, False, False,
            ecn_echo, sack,
        )

    @property
    def is_data(self) -> bool:
        """True for data packets."""
        return self.kind is _DATA

    @property
    def is_ack(self) -> bool:
        """True for pure ACKs."""
        return self.kind is _ACK
