"""The packet-sink protocol every forwarding element implements."""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.net.packet import Packet


@runtime_checkable
class PacketSink(Protocol):
    """Anything that can accept a packet right now."""

    def receive(self, packet: Packet) -> None:
        """Accept ``packet`` at the current simulation time."""
        ...  # pragma: no cover - protocol definition


class BatchSink(Protocol):
    """A sink that additionally accepts same-instant batches.

    ``receive_batch(packets)`` must be equivalent to calling ``receive``
    on each packet in order.  The sequence handed in may be a reused
    scratch buffer owned by the caller — implementations must not retain
    it past the call (copy the packets out if they need to).
    """

    def receive(self, packet: Packet) -> None:
        ...  # pragma: no cover - protocol definition

    def receive_batch(self, packets: list[Packet]) -> None:
        ...  # pragma: no cover - protocol definition


class _PerPacketAdapter:
    """Wraps a plain :class:`PacketSink` so a batching limiter can feed it."""

    __slots__ = ("_sink",)

    def __init__(self, sink: PacketSink) -> None:
        self._sink = sink

    def receive(self, packet: Packet) -> None:
        self._sink.receive(packet)

    def receive_batch(self, packets: list[Packet]) -> None:
        receive = self._sink.receive
        for packet in packets:
            receive(packet)


def batch_capable(sink: PacketSink) -> "BatchSink":
    """Return ``sink`` itself when it accepts batches, else a per-packet
    adapter.  The returned object is looked up dynamically at dispatch
    time, so instance-level ``receive_batch`` wrappers installed later
    (the invariant checker's) still shadow the class method."""
    if hasattr(sink, "receive_batch"):
        return sink  # type: ignore[return-value]
    return _PerPacketAdapter(sink)


class NullSink:
    """Swallows packets; useful as a default downstream in unit tests."""

    def __init__(self) -> None:
        self.count = 0
        self.bytes = 0

    def receive(self, packet: Packet) -> None:
        self.count += 1
        self.bytes += packet.size

    def receive_batch(self, packets: list[Packet]) -> None:
        self.count += len(packets)
        total = 0
        for packet in packets:
            total += packet.size
        self.bytes += total


class CallbackSink:
    """Adapts a plain callable into a :class:`PacketSink`."""

    def __init__(self, callback: Callable[[Packet], None]) -> None:
        self._callback = callback

    def receive(self, packet: Packet) -> None:
        self._callback(packet)

    def receive_batch(self, packets: list[Packet]) -> None:
        callback = self._callback
        for packet in packets:
            callback(packet)


class TeeSink:
    """Duplicates packets to several sinks (e.g. a trace plus the next hop)."""

    def __init__(self, *sinks: PacketSink) -> None:
        self._sinks = sinks

    def receive(self, packet: Packet) -> None:
        for sink in self._sinks:
            sink.receive(packet)

    def receive_batch(self, packets: list[Packet]) -> None:
        # Per-packet across all sinks: a sink that reserves seqs (a
        # downstream pipe) must consume them in exactly the
        # packet-by-packet order.
        sinks = self._sinks
        for packet in packets:
            for sink in sinks:
                sink.receive(packet)
