"""The packet-sink protocol every forwarding element implements.

Elements hand packets on one at a time through ``receive``; no sink
takes a list.  The ACK path hands on records through ``receive_ack``.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.net.packet import Packet


@runtime_checkable
class PacketSink(Protocol):
    """Anything that can accept a packet right now."""

    def receive(self, packet: Packet) -> None:
        """Accept ``packet`` at the current simulation time."""
        ...  # pragma: no cover - protocol definition


class AckSink(Protocol):
    """Anything on the ACK path: one record per call, the six fields of
    :meth:`repro.cc.endpoint.TcpSender.receive_ack`."""

    def receive_ack(self, *record: Any) -> None: ...  # pragma: no cover


class NullSink:
    """Swallows packets; useful as a default downstream in unit tests."""

    def __init__(self) -> None:
        self.count = 0
        self.bytes = 0

    def receive(self, packet: Packet) -> None:
        self.count += 1
        self.bytes += packet.size


class CallbackSink:
    """Adapts a plain callable into a :class:`PacketSink`."""

    def __init__(self, callback: Callable[[Packet], None]) -> None:
        self._callback = callback

    def receive(self, packet: Packet) -> None:
        self._callback(packet)


class TeeSink:
    """Duplicates packets to several sinks (e.g. a trace plus the next hop)."""

    def __init__(self, *sinks: PacketSink) -> None:
        self._sinks = sinks

    def receive(self, packet: Packet) -> None:
        for sink in self._sinks:
            sink.receive(packet)
