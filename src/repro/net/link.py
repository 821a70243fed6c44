"""A serializing link with propagation delay and a drop-tail buffer."""

from __future__ import annotations

from collections import deque

from repro.net.packet import Packet
from repro.net.sink import PacketSink
from repro.sim.simulator import SimulationError, Simulator

_INF = float("inf")


class Link:
    """A point-to-point link.

    Packets are serialized one at a time at ``rate`` bytes/second, then
    delivered to ``sink`` after ``delay`` seconds of propagation.  While the
    transmitter is busy, arrivals wait in a drop-tail buffer of
    ``buffer_bytes`` (``None`` = unbounded, the default, used for fast
    "infrastructure" hops that should never be the bottleneck).

    This is the element used to model secondary bottlenecks (e.g. the 8.5
    Mbps RAN hop in Figure 3).
    """

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        delay: float,
        sink: PacketSink,
        *,
        buffer_bytes: float | None = None,
        name: str = "link",
    ) -> None:
        if not 0 < rate < _INF:
            raise ValueError(
                f"link rate must be finite and positive, got {rate!r}"
            )
        if not 0 <= delay < _INF:
            raise ValueError(
                f"link delay must be finite and non-negative, got {delay!r}"
            )
        if buffer_bytes is not None and not 0 <= buffer_bytes < _INF:
            raise ValueError(
                "link buffer_bytes must be finite and non-negative (None = "
                f"unbounded), got {buffer_bytes!r}"
            )
        self._sim = sim
        self._rate = rate
        self._delay = delay
        self._sink = sink
        self._buffer_limit = buffer_bytes
        self.name = name

        self._queue: deque[Packet] = deque()
        self._queued_bytes = 0
        self._busy = False
        #: Far-end exit time of the latest transmission: serialization
        #: is sequential and the delay constant, so exits never reorder.
        self._last_exit = -_INF

        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0

    @property
    def rate(self) -> float:
        """Serialization rate in bytes/second."""
        return self._rate

    @property
    def delay(self) -> float:
        """One-way propagation delay in seconds."""
        return self._delay

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently waiting (not counting the packet in service)."""
        return self._queued_bytes

    def receive(self, packet: Packet) -> None:
        """Accept a packet: transmit now, queue, or drop."""
        if not self._busy:
            self._transmit(packet)
            return
        if (
            self._buffer_limit is not None
            and self._queued_bytes + packet.size > self._buffer_limit
        ):
            self.dropped_packets += 1
            self.dropped_bytes += packet.size
            return
        self._queue.append(packet)
        self._queued_bytes += packet.size

    def _transmit(self, packet: Packet) -> None:
        self._busy = True
        tx_time = packet.size / self._rate
        self._sim.schedule(tx_time, self._on_tx_done, packet)

    def _on_tx_done(self, packet: Packet) -> None:
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        # Propagation: the packet pops out of the far end after `delay`.
        if self._delay > 0:
            sim = self._sim
            time = sim.now + self._delay
            if time < self._last_exit:
                raise SimulationError(
                    f"link {self.name!r}: non-monotone delivery time "
                    f"{time!r} after {self._last_exit!r} — a link "
                    "delivers in serialization order"
                )
            self._last_exit = time
            # One event per packet in flight; the sink's method is looked
            # up per packet so a wrapper installed after wiring sees it.
            sim.schedule_at(time, self._sink.receive, packet)
        else:
            self._sink.receive(packet)
        if self._queue:
            nxt = self._queue.popleft()
            self._queued_bytes -= nxt.size
            self._transmit(nxt)
        else:
            self._busy = False
