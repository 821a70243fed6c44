"""Impairment channels: lossy, bursty, jittery and trace-driven links.

Every element in the reproduction's clean topology is a serializing
FIFO; these composable, ``Pipe``-compatible wrappers put loss recovery
(SACK/RACK/TLP/RTO) under hostile conditions:

* :class:`LossGate` — i.i.d. random loss.
* :class:`GilbertElliottGate` — two-state bursty loss (good/bad Markov
  chain with per-state loss probabilities).
* :class:`Duplicator` — forwards a *clone* alongside the original with
  some probability (never the same object twice: ``ce`` and ``corrupt``
  are set in flight, and a mark on one copy must not appear on the
  other).
* :class:`Corrupter` — marks packets ``corrupt``; a corrupted data
  packet is dropped by the receiver (no ACK), a corrupted ACK record by
  the sender.
* :class:`JitterPipe` — a delay element whose per-packet delay is drawn
  at arrival (uniform jitter plus an exponential extra-delay tail for
  reordering); each packet is its own simulator event.
* :class:`TraceLink` — a Mahimahi-style variable-rate bottleneck whose
  service rate follows a looping :class:`CapacityTrace`.

Determinism: every random decision draws from a caller-supplied
``random.Random`` seeded from the simulator's root seed (per flow, in
the scenario layer), and draws happen per packet in arrival order —
which is the same however a fleet is sharded — so impaired runs are
byte-identical across shard counts and phantom engines.
With all impairments disabled no wrapper is constructed and no draw is
made, so clean runs stay byte-identical to the unimpaired code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.pipe import Pipe
from repro.net.sink import AckSink, PacketSink
from repro.sim.simulator import Simulator
from repro.units import ACK_SIZE, MSS, mbps

__all__ = [
    "CapacityTrace",
    "Corrupter",
    "Duplicator",
    "GilbertElliottGate",
    "ImpairmentSpec",
    "JitterPipe",
    "LossGate",
    "TraceLink",
    "build_ack_path",
    "build_data_path",
]

#: Floor applied to trace-file rates so an outage interval serializes in
#: finite (if very long) time instead of dividing by zero.
_MIN_TRACE_RATE = float(MSS)


@dataclass(frozen=True)
class ImpairmentSpec:
    """Declarative impairment configuration, JSON-friendly primitives.

    Frozen and hashable so it can ride on
    :class:`~repro.runner.aggregate.AggregateConfig` (cache token,
    pickling) and round-trip through the fuzzer's ``--case`` JSON.
    All fields default to "disabled"; :attr:`enabled` is False for the
    default instance, in which case the wiring layer constructs no
    wrapper objects at all.
    """

    #: i.i.d. loss probability on the data path.
    loss: float = 0.0
    #: Gilbert-Elliott bursty loss: ``(p_gb, p_bg, loss_good, loss_bad)``
    #: — transition probabilities good->bad / bad->good and the per-state
    #: loss probabilities.  ``None`` disables the gate.
    ge: tuple[float, float, float, float] | None = None
    #: i.i.d. loss probability on the ACK return path.
    ack_loss: float = 0.0
    #: Uniform extra delay in ``[0, jitter)`` seconds per data packet.
    jitter: float = 0.0
    #: Probability a data packet draws an extra-delay tail (reordering).
    reorder: float = 0.0
    #: Mean of the exponential extra-delay tail, seconds (required > 0
    #: when ``reorder`` > 0).
    reorder_extra: float = 0.0
    #: Probability a data packet is duplicated (a clone follows it).
    duplicate: float = 0.0
    #: Probability a data packet is corrupted (dropped at the receiver).
    corrupt: float = 0.0
    #: Variable-rate bottleneck: ``(duration_s, rate_bytes_per_s)``
    #: segments, looping (see :class:`CapacityTrace`).  ``None`` disables
    #: the :class:`TraceLink`.
    trace_rates: tuple[tuple[float, float], ...] | None = None
    #: Drop-tail buffer of the trace link (``None`` = unbounded).
    trace_buffer: float | None = None
    #: Propagation delay of the trace link, seconds.
    trace_delay: float = 0.0

    def __post_init__(self) -> None:
        # JSON round-trips tuples as lists; normalize back so the spec
        # stays hashable and `--case` lines reproduce exactly.
        if self.ge is not None and not isinstance(self.ge, tuple):
            object.__setattr__(self, "ge", tuple(self.ge))
        if self.trace_rates is not None:
            object.__setattr__(
                self,
                "trace_rates",
                tuple(tuple(seg) for seg in self.trace_rates),
            )
        for name in ("loss", "ack_loss", "reorder", "duplicate", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")
        # ``nan < 0.0`` is false: test for the legal range, not against it.
        lengths = {"jitter": self.jitter, "reorder_extra": self.reorder_extra,
                   "trace_delay": self.trace_delay}
        if self.trace_buffer is not None:
            lengths["trace_buffer"] = self.trace_buffer
        for name, value in lengths.items():
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        if self.reorder > 0.0 and self.reorder_extra <= 0.0:
            raise ValueError("reorder needs a positive reorder_extra")
        if self.ge is not None:
            p_gb, p_bg, loss_g, loss_b = self.ge
            for name, value in (
                ("p_gb", p_gb), ("p_bg", p_bg),
                ("loss_good", loss_g), ("loss_bad", loss_b),
            ):
                if not 0.0 <= value <= 1.0:
                    raise ValueError(
                        f"ge {name} must be a probability, got {value!r}"
                    )
        if self.trace_rates is not None:
            CapacityTrace.check_segments(self.trace_rates)

    @property
    def data_path_enabled(self) -> bool:
        """Any per-flow data-direction impairment active."""
        return (
            self.loss > 0.0
            or self.ge is not None
            or self.jitter > 0.0
            or self.reorder > 0.0
            or self.duplicate > 0.0
            or self.corrupt > 0.0
        )

    @property
    def ack_path_enabled(self) -> bool:
        """Any ACK-direction impairment active (corruption applies to
        both directions: a corrupted ACK is dropped by the sender)."""
        return self.ack_loss > 0.0 or self.corrupt > 0.0

    @property
    def flow_enabled(self) -> bool:
        """Any per-flow impairment active (either direction)."""
        return self.data_path_enabled or self.ack_path_enabled

    @property
    def trace_enabled(self) -> bool:
        """Variable-rate trace-driven bottleneck active."""
        return self.trace_rates is not None

    @property
    def enabled(self) -> bool:
        """Any impairment at all active."""
        return self.flow_enabled or self.trace_enabled


def _clone(packet: Packet) -> Packet:
    """A second packet object carrying the same content (``==`` the original).

    The twin must be a second object because ``ce`` and ``corrupt`` are
    set in flight: a :class:`Corrupter` or an AQM downstream marking one
    copy must leave the other clean.  Only the data path duplicates.
    """
    twin = Packet.data(
        packet.flow,
        packet.seq,
        packet.sent_at,
        size=packet.size,
        retransmit=packet.retransmit,
        ecn_capable=packet.ecn_capable,
    )
    twin.ce = packet.ce
    twin.corrupt = packet.corrupt
    return twin


class _Gate:
    """Shared shape of the per-packet impairment gates.

    Gates take and forward one packet (or ACK record) per call, so the
    RNG draws — and therefore every downstream seq — follow arrival order.
    """

    __slots__ = ("_sink", "_rng", "forwarded_packets", "dropped_packets",
                 "dropped_bytes")

    def __init__(self, sink: PacketSink, rng: Random) -> None:
        self._sink = sink
        self._rng = rng
        self.forwarded_packets = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0

    def receive(self, packet: Packet) -> None:  # pragma: no cover
        raise NotImplementedError

    def _drop(self, size: int) -> None:
        """Count a dropped packet of ``size`` bytes."""
        self.dropped_packets += 1
        self.dropped_bytes += size


class LossGate(_Gate):
    """Drops each packet independently with probability ``prob``."""

    __slots__ = ("_prob",)

    def __init__(self, prob: float, sink: PacketSink, rng: Random) -> None:
        super().__init__(sink, rng)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"loss probability out of range: {prob!r}")
        self._prob = prob

    def receive(self, packet: Packet) -> None:
        if self._rng.random() < self._prob:
            self._drop(packet.size)
            return
        self.forwarded_packets += 1
        self._sink.receive(packet)

    def receive_ack(self, *record) -> None:
        """:meth:`receive` for an ACK record: the same one draw."""
        if self._rng.random() < self._prob:
            self._drop(ACK_SIZE)
            return
        self.forwarded_packets += 1
        self._sink.receive_ack(*record)


class GilbertElliottGate(_Gate):
    """Two-state bursty loss (Gilbert-Elliott).

    The chain starts in the good state; each packet first advances the
    state (one draw), then tests the current state's loss probability
    (one draw) — always exactly two draws per packet, so the stream
    position is a pure function of the arrival count.

    Stationary loss rate: ``pi_B = p_gb / (p_gb + p_bg)`` and
    ``loss = (1 - pi_B) * loss_good + pi_B * loss_bad`` (pinned by a
    property test in ``tests/test_impair.py``).
    """

    __slots__ = ("_p_gb", "_p_bg", "_loss_good", "_loss_bad", "bad")

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        loss_good: float,
        loss_bad: float,
        sink: PacketSink,
        rng: Random,
    ) -> None:
        super().__init__(sink, rng)
        for name, value in (
            ("p_gb", p_gb), ("p_bg", p_bg),
            ("loss_good", loss_good), ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value!r}")
        self._p_gb = p_gb
        self._p_bg = p_bg
        self._loss_good = loss_good
        self._loss_bad = loss_bad
        self.bad = False

    @staticmethod
    def stationary_loss(
        p_gb: float, p_bg: float, loss_good: float, loss_bad: float
    ) -> float:
        """Long-run loss rate of the chain (good-state start forgotten)."""
        if p_gb + p_bg == 0.0:
            return loss_good  # chain never leaves the good state
        pi_bad = p_gb / (p_gb + p_bg)
        return (1.0 - pi_bad) * loss_good + pi_bad * loss_bad

    def receive(self, packet: Packet) -> None:
        rng = self._rng
        transition = rng.random()
        if self.bad:
            if transition < self._p_bg:
                self.bad = False
        elif transition < self._p_gb:
            self.bad = True
        prob = self._loss_bad if self.bad else self._loss_good
        if rng.random() < prob:
            self._drop(packet.size)
            return
        self.forwarded_packets += 1
        self._sink.receive(packet)


class Duplicator(_Gate):
    """Forwards every packet; with probability ``prob`` a clone follows.

    The clone is a *fresh* packet (see :func:`_clone`), so an in-flight
    mark on one copy never shows on the other.
    """

    __slots__ = ("_prob", "duplicated_packets")

    def __init__(self, prob: float, sink: PacketSink, rng: Random) -> None:
        super().__init__(sink, rng)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"duplicate probability out of range: {prob!r}")
        self._prob = prob
        self.duplicated_packets = 0

    def receive(self, packet: Packet) -> None:
        dup = self._rng.random() < self._prob
        self.forwarded_packets += 1
        self._sink.receive(packet)
        if dup:
            self.duplicated_packets += 1
            self._sink.receive(_clone(packet))


class Corrupter(_Gate):
    """Marks packets ``corrupt`` with probability ``prob``.

    Corruption is detected (checksum) at the endpoint: a corrupted DATA
    packet is dropped by the receiver without an ACK, a corrupted ACK is
    dropped by the sender — and the receiver trace skips corrupted
    packets so goodput excludes them.
    """

    __slots__ = ("_prob", "corrupted_packets")

    def __init__(self, prob: float, sink: PacketSink, rng: Random) -> None:
        super().__init__(sink, rng)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"corrupt probability out of range: {prob!r}")
        self._prob = prob
        self.corrupted_packets = 0

    def receive(self, packet: Packet) -> None:
        if self._rng.random() < self._prob:
            self.corrupted_packets += 1
            packet.corrupt = True
        self.forwarded_packets += 1
        self._sink.receive(packet)

    def receive_ack(self, *record) -> None:
        """:meth:`receive` for an ACK record: a hit sets its ``corrupt``."""
        if self._rng.random() < self._prob:
            self.corrupted_packets += 1
            record = record[:5] + (True,)
        self.forwarded_packets += 1
        self._sink.receive_ack(*record)


class JitterPipe:
    """A delay element with per-packet random delay.

    Each arrival draws its delay and schedules its own delivery event,
    so a packet that draws a shorter delay than its predecessor simply
    fires first: the simulator heap orders deliveries by
    ``(time, seq)`` and needs no arrival-order assumption.  The draws
    and the seq happen per packet in arrival order.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        sink: PacketSink,
        *,
        jitter: float = 0.0,
        reorder: float = 0.0,
        reorder_extra: float = 0.0,
        rng: Random,
        name: str = "jitter-pipe",
    ) -> None:
        for field_name, value in (
            ("base delay", delay), ("jitter", jitter),
            ("reorder_extra", reorder_extra),
        ):
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{field_name} must be finite and non-negative, "
                    f"got {value!r}"
                )
        if not 0.0 <= reorder <= 1.0:
            raise ValueError(f"reorder probability out of range: {reorder!r}")
        if reorder > 0.0 and reorder_extra <= 0.0:
            raise ValueError("reorder needs a positive reorder_extra")
        self._sim = sim
        self._base = delay
        self._jitter = jitter
        self._reorder = reorder
        self._reorder_extra = reorder_extra
        self._rng = rng
        self._sink = sink
        self.name = name
        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        self.reordered_packets = 0

    @property
    def delay(self) -> float:
        """Base one-way delay in seconds (before jitter draws)."""
        return self._base

    @property
    def in_flight(self) -> int:
        """Deliveries to this pipe's sink still on the simulator's heaps —
        an O(pending) scan for tests and debugging; pipes feeding the same
        sink are counted together."""
        deliver, lanes = self._sink.receive, self._sim.lanes
        return sum(event[2] == deliver for lane in lanes for event in lane)

    def receive(self, packet: Packet) -> None:
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        rng = self._rng
        delay = self._base
        if self._jitter > 0.0:
            delay += rng.random() * self._jitter
        if self._reorder > 0.0 and rng.random() < self._reorder:
            self.reordered_packets += 1
            delay += rng.expovariate(1.0 / self._reorder_extra)
        self._sim.schedule(delay, self._sink.receive, packet)


class CapacityTrace:
    """A looping piecewise-constant capacity schedule.

    ``segments`` are ``(duration_s, rate_bytes_per_s)`` pairs; the
    schedule repeats with period ``cycle``.  Used by :class:`TraceLink`
    to model Mahimahi-style cellular capacity traces.
    """

    __slots__ = ("segments", "cycle", "mean_rate")

    def __init__(self, segments) -> None:
        segs = self.check_segments(segments)
        self.segments = segs
        self.cycle = sum(d for d, _ in segs)
        self.mean_rate = sum(d * r for d, r in segs) / self.cycle

    @staticmethod
    def check_segments(segments) -> tuple[tuple[float, float], ...]:
        """``segments`` as float pairs, each duration and rate finite and
        positive; :class:`ValueError` otherwise."""
        segs = tuple((float(d), float(r)) for d, r in segments)
        if not segs:
            raise ValueError("capacity trace needs at least one segment")
        for duration, rate in segs:
            if not (0.0 < duration < math.inf and 0.0 < rate < math.inf):
                raise ValueError(
                    "trace segments need finite, positive duration and "
                    f"rate, got ({duration!r}, {rate!r})"
                )
        return segs

    @classmethod
    def from_file(cls, path: str) -> "CapacityTrace":
        """Parse a capacity trace file.

        Two formats are recognised (``#`` comments and blank lines are
        skipped):

        * **Two-column**: ``duration_seconds rate_mbps`` per line, each
          line one segment.
        * **Mahimahi single-column**: one integer millisecond timestamp
          per line, each marking the delivery opportunity of one
          1500-byte MTU (the ``mm-link`` packed-trace format).  The
          timestamps are binned into 100 ms intervals and each bin
          becomes a segment at its implied rate, floored at one MTU/s so
          outage bins stay serializable.

        A row that is short, not a finite number, or (single-column) a
        negative or decreasing timestamp raises :class:`ValueError`
        naming the file and the 1-based line.
        """
        two_col: list[tuple[float, float]] = []
        stamps: list[float] = []
        columns = 0
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                fields = text.split()
                if columns == 0:
                    columns = min(len(fields), 2)
                try:
                    values = [float(field) for field in fields[:columns]]
                except ValueError:
                    values = []
                finite = all(map(math.isfinite, values))
                if len(values) < columns or not finite:
                    raise ValueError(
                        f"capacity trace {path!r} line {lineno}: expected "
                        f"{columns} finite number(s), got {text!r}"
                    )
                if columns == 2:
                    two_col.append((values[0], mbps(values[1])))
                    continue
                if values[0] < (stamps[-1] if stamps else 0.0):
                    raise ValueError(
                        f"capacity trace {path!r} line {lineno}: timestamp "
                        f"{text!r} is negative or earlier than the one before"
                    )
                stamps.append(values[0])
        if columns == 2:
            return cls(two_col)
        if not stamps:
            raise ValueError(f"capacity trace {path!r} is empty")
        return cls(cls._bins_from_stamps(stamps))

    @staticmethod
    def _bins_from_stamps(
        stamps: list[float], *, bin_ms: float = 100.0
    ) -> list[tuple[float, float]]:
        """Mahimahi ms timestamps -> (duration, rate) segments."""
        span = max(stamps[-1], bin_ms)
        nbins = max(1, int(span / bin_ms + (1 if span % bin_ms else 0)))
        counts = [0] * nbins
        for stamp in stamps:
            index = min(int(stamp / bin_ms), nbins - 1)
            counts[index] += 1
        width = bin_ms / 1000.0
        return [
            (width, max(count * MSS / width, _MIN_TRACE_RATE))
            for count in counts
        ]

    def tx_time(self, start: float, size: float) -> float:
        """Seconds to serialize ``size`` bytes beginning at absolute
        time ``start``, integrating the rate across segment (and cycle)
        boundaries."""
        segments = self.segments
        position = start % self.cycle
        index = 0
        acc = 0.0
        for index, (duration, _rate) in enumerate(segments):
            if position < acc + duration:
                break
            acc += duration
        offset = position - acc
        remaining = float(size)
        total = 0.0
        while True:
            duration, rate = segments[index]
            window = duration - offset
            capacity = rate * window
            if capacity >= remaining:
                return total + remaining / rate
            remaining -= capacity
            total += window
            offset = 0.0
            index += 1
            if index == len(segments):
                index = 0


class TraceLink(Link):
    """A serializing link whose rate follows a :class:`CapacityTrace`.

    Identical to :class:`~repro.net.link.Link` (drop-tail buffer, one
    propagation event per packet) except that each packet's
    serialization time is integrated over the trace starting at its
    transmit instant.  Serialization stays strictly sequential, so
    propagation exit times remain monotone.
    """

    def __init__(
        self,
        sim: Simulator,
        trace: CapacityTrace,
        delay: float,
        sink: PacketSink,
        *,
        buffer_bytes: float | None = None,
        name: str = "trace-link",
    ) -> None:
        super().__init__(
            sim,
            trace.mean_rate,
            delay,
            sink,
            buffer_bytes=buffer_bytes,
            name=name,
        )
        self._trace = trace

    @property
    def trace(self) -> CapacityTrace:
        """The driving capacity schedule."""
        return self._trace

    def _transmit(self, packet: Packet) -> None:
        self._busy = True
        tx_time = self._trace.tx_time(self._sim.now, packet.size)
        self._sim.schedule(tx_time, self._on_tx_done, packet)


def build_data_path(
    sim: Simulator,
    delay: float,
    sink: PacketSink,
    spec: ImpairmentSpec,
    rng: Random,
    *,
    name: str = "impair",
) -> PacketSink:
    """The sender-side data chain for one flow.

    Composition (entry first): Gilbert-Elliott loss -> i.i.d. loss ->
    duplication -> corruption -> delay element (a :class:`JitterPipe`
    when jitter/reordering is on, else the plain
    :class:`~repro.net.pipe.Pipe`) -> ``sink``.  Gates the spec leaves
    disabled are not constructed at all.
    """
    entry: PacketSink
    if spec.jitter > 0.0 or spec.reorder > 0.0:
        entry = JitterPipe(
            sim,
            delay,
            sink,
            jitter=spec.jitter,
            reorder=spec.reorder,
            reorder_extra=spec.reorder_extra,
            rng=rng,
            name=f"{name}-jitter",
        )
    else:
        entry = Pipe(sim, delay, sink, name=f"{name}-pipe")
    if spec.corrupt > 0.0:
        entry = Corrupter(spec.corrupt, entry, rng)
    if spec.duplicate > 0.0:
        entry = Duplicator(spec.duplicate, entry, rng)
    if spec.loss > 0.0:
        entry = LossGate(spec.loss, entry, rng)
    if spec.ge is not None:
        entry = GilbertElliottGate(*spec.ge, entry, rng)
    return entry


def build_ack_path(
    sim: Simulator,
    delay: float,
    sink: AckSink,
    spec: ImpairmentSpec,
    rng: Random,
    *,
    name: str = "impair-ack",
) -> AckSink:
    """The receiver-side ACK return chain for one flow: i.i.d. ACK loss
    and corruption, acting on ACK records (``receive_ack``) one draw
    each, in front of the plain reverse delay pipe."""
    entry: AckSink = Pipe(sim, delay, sink, name=f"{name}-pipe")
    if spec.corrupt > 0.0:
        entry = Corrupter(spec.corrupt, entry, rng)
    if spec.ack_loss > 0.0:
        entry = LossGate(spec.ack_loss, entry, rng)
    return entry
