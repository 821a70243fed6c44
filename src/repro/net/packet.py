"""Packet and flow-identity types.

Data packets carry one MSS of payload; sequence numbers count packets (not
bytes), which matches the paper's MSS-granularity analysis and keeps TCP
bookkeeping simple.  A :class:`Packet` is always a data segment: ACKs
return to the sender as records, never as packets (``cc/endpoint.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import MSS


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


#: The fields ``repr`` shows and ``==`` compares, in constructor order:
#: all but ``corrupt`` (a checksum verdict, not content).
_COMPARED = (
    "flow", "seq", "size", "sent_at", "retransmit", "ecn_capable", "ce",
)


class Packet:
    """One simulated data segment: a plain value.

    A packet belongs to nobody: whoever holds a reference may keep it
    (a trace, a test, a reordering buffer) and the fields it read stay
    what they were; dropping a packet means forgetting it.  The only
    in-flight writes are the marks ``ce`` (an AQM) and ``corrupt`` (an
    impairment gate), which is why
    :class:`~repro.net.impair.Duplicator` forwards a copy.  Build packets
    with :meth:`data`.  ACKs are not packets: a TCP flow sends each one as
    a record of six fields (``TcpSender.receive_ack``).

    Attributes
    ----------
    flow:
        Owning flow identity.
    seq:
        Packet number within the flow.
    size:
        Wire size in bytes (one MSS unless given).
    sent_at:
        Time the packet was (last) transmitted by the sender; echoed back
        in its ACK for RTT sampling.
    retransmit:
        True if this transmission is a retransmission.
    ecn_capable:
        Sender negotiated ECN (ECT codepoint).
    ce:
        Congestion Experienced mark set by an AQM.
    corrupt:
        Set by an impairment channel (:mod:`repro.net.impair`) to model
        a failed checksum: the receiver drops a corrupted packet without
        acknowledging it.  Not part of ``repr``/``==``.
    """

    __slots__ = _COMPARED + ("corrupt",)

    def __init__(
        self,
        flow: FlowId,
        seq: int,
        size: int,
        sent_at: float,
        retransmit: bool = False,
        ecn_capable: bool = False,
        ce: bool = False,
        corrupt: bool = False,
    ) -> None:
        self.flow = flow
        self.seq = seq
        self.size = size
        self.sent_at = sent_at
        self.retransmit = retransmit
        self.ecn_capable = ecn_capable
        self.ce = ce
        self.corrupt = corrupt

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
        return cls(flow, seq, size, sent_at, retransmit, ecn_capable)
