"""Network substrate: packets, links, pipes, traces and topology wiring."""

from repro.net.packet import FlowId, Packet
from repro.net.link import Link
from repro.net.pipe import Pipe
from repro.net.sink import CallbackSink, NullSink, PacketSink, TeeSink
from repro.net.trace import PacketRecord, Trace

__all__ = [
    "CallbackSink",
    "FlowId",
    "Link",
    "NullSink",
    "Packet",
    "PacketRecord",
    "PacketSink",
    "Pipe",
    "Trace",
]
