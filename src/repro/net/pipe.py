"""An infinite-bandwidth, fixed-delay pipe.

Used for per-flow propagation delays (the reproduction's stand-in for
``netem`` latency injection) and for the ACK return path, which in the
paper's testbed does not traverse the rate-limiting middlebox.

Every in-flight packet is one simulator event: an arrival pushes
``(now + delay, seq, sink.receive, (packet,))`` on the simulator heap
and the run loop calls the sink directly; an ACK record pushes
``(now + delay, seq, sink.receive_ack, record)``.
"""

from __future__ import annotations

import heapq

from repro.net.packet import Packet
from repro.net.sink import PacketSink
from repro.sim.simulator import SimulationError, Simulator
from repro.units import ACK_SIZE

_INF = float("inf")


class Pipe:
    """Delivers every packet and ACK record ``delay`` seconds later."""

    def __init__(
        self, sim: Simulator, delay: float, sink: PacketSink, *, name: str = "pipe"
    ) -> None:
        if not 0 <= delay < _INF:
            raise ValueError(
                f"pipe delay must be finite and non-negative, got {delay!r}"
            )
        self._sim = sim
        self._delay = delay
        self._sink = sink
        self.name = name
        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        #: Delivery time of the latest arrival: a constant-delay pipe
        #: never reorders, so a later arrival may not deliver earlier.
        self._last_delivery = -_INF

    @property
    def delay(self) -> float:
        """One-way delay in seconds."""
        return self._delay

    def receive(self, packet: Packet) -> None:
        """Accept one packet and schedule its delivery to the sink."""
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        delay = self._delay
        if delay > 0:
            sim = self._sim
            time = sim._now + delay
            if time < self._last_delivery:
                raise SimulationError(
                    f"pipe {self.name!r}: non-monotone delivery time "
                    f"{time!r} after {self._last_delivery!r} — a "
                    "constant-delay pipe delivers in arrival order"
                )
            self._last_delivery = time
            # sim.schedule(delay, sink.receive, packet), inlined (same
            # bookkeeping; the delay was checked at construction).  The
            # sink's method is looked up per packet so an instance-level
            # wrapper installed after wiring (the invariant checker's)
            # sees every delivery.
            seq = sim._seq
            sim._seq = seq + 1
            heap = sim._heap
            heapq.heappush(heap, (time, seq, self._sink.receive, (packet,)))
            sim._heap_pushes += 1
            if len(heap) > sim._peak_heap:
                sim._peak_heap = len(heap)
        else:
            self._sink.receive(packet)

    def receive_ack(self, *record) -> None:
        """:meth:`receive` for an ACK record of ``ACK_SIZE`` bytes, repeated
        inline on purpose: a shared helper would cost every ACK a frame."""
        self.forwarded_packets += 1
        self.forwarded_bytes += ACK_SIZE
        delay = self._delay
        if delay > 0:
            sim = self._sim
            time = sim._now + delay
            if time < self._last_delivery:
                raise SimulationError(
                    f"pipe {self.name!r}: non-monotone delivery time "
                    f"{time!r} after {self._last_delivery!r} — a "
                    "constant-delay pipe delivers in arrival order"
                )
            self._last_delivery = time
            seq = sim._seq
            sim._seq = seq + 1
            heap = sim._heap
            heapq.heappush(heap, (time, seq, self._sink.receive_ack, record))
            sim._heap_pushes += 1
            if len(heap) > sim._peak_heap:
                sim._peak_heap = len(heap)
        else:
            self._sink.receive_ack(*record)
