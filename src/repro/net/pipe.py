"""An infinite-bandwidth, fixed-delay pipe.

Used for per-flow propagation delays (the reproduction's stand-in for
``netem`` latency injection) and for the ACK return path, which in the
paper's testbed does not traverse the rate-limiting middlebox.

Delivery is **coalesced**: because the delay is constant, arrivals leave
in arrival order, so the pipe keeps one internal FIFO and at most one
outstanding simulator event, re-armed for the new head after each drain.
N in-flight packets cost 1 heap entry instead of N.

Byte-identity with the per-packet-event engine is preserved by sequence
reservation: every arrival claims a global insertion seq (exactly where
the old engine consumed one by scheduling), the armed event carries the
head packet's reserved seq, and the drain loop hands delivery back to
the heap whenever another event's (time, seq) would have interleaved —
so the global firing order is bit-for-bit the old engine's.
"""

from __future__ import annotations

from collections import deque

from repro.net.fastpath import drain_coalesced
from repro.net.packet import Packet
from repro.net.sink import PacketSink, batch_capable
from repro.sim.simulator import SimulationError, Simulator

import heapq


class Pipe:
    """Delivers every packet to ``sink`` exactly ``delay`` seconds later."""

    def __init__(
        self, sim: Simulator, delay: float, sink: PacketSink, *, name: str = "pipe"
    ) -> None:
        if delay < 0:
            raise ValueError(f"pipe delay must be non-negative, got {delay!r}")
        self._sim = sim
        self._delay = delay
        self._sink = sink
        self.name = name
        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        #: In-flight packets as (deliver_time, reserved_seq, packet);
        #: arrival order == delivery order (constant delay).
        self._pending: deque[tuple[float, int, Packet]] = deque()
        self._armed = False
        # A sink guaranteed to accept batches, and the reusable scratch
        # list the drain hands it.
        self._batch_sink = batch_capable(sink)
        self._scratch: list[Packet] = []

    @property
    def delay(self) -> float:
        """One-way delay in seconds."""
        return self._delay

    @property
    def in_flight(self) -> int:
        """Packets currently traversing the pipe."""
        return len(self._pending)

    def receive(self, packet: Packet) -> None:
        """Accept one packet: reserve its delivery seq, append it to the
        FIFO and arm the drain if it is idle."""
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        if self._delay > 0:
            sim = self._sim
            time = sim._now + self._delay
            pending = self._pending
            if pending and time < pending[-1][0]:
                raise SimulationError(
                    f"pipe {self.name!r}: non-monotone delivery time "
                    f"{time!r} after {pending[-1][0]!r} — the coalesced "
                    "FIFO assumes arrival order == delivery order"
                )
            seq = sim._seq
            sim._seq = seq + 1
            pending.append((time, seq, packet))
            if not self._armed:
                self._armed = True
                # call_at_reserved inlined (identical bookkeeping).
                heap = sim._heap
                heapq.heappush(heap, (time, seq, self.deliver_batch, ()))
                sim._heap_pushes += 1
                if len(heap) > sim._peak_heap:
                    sim._peak_heap = len(heap)
        else:
            self._sink.receive(packet)

    def receive_batch(self, packets: list[Packet]) -> None:
        """Accept a same-instant batch: :meth:`receive` on each packet in
        order.  Nothing between two packets of a batch consumes a seq
        (the stages upstream of a pipe reserve none while forwarding),
        so each draws the seq it would have drawn alone and only the
        first arms the drain."""
        receive = self.receive
        for packet in packets:
            receive(packet)

    def deliver_batch(self) -> None:
        """The drain event: hand guarded same-instant prefixes of the
        FIFO to the sink in single ``receive_batch`` calls (see
        :func:`repro.net.fastpath.drain_coalesced`)."""
        if drain_coalesced(
            self._sim, self._pending, self._batch_sink, self.deliver_batch,
            self._scratch,
        ):
            self._armed = False
