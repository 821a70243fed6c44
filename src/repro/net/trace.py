"""Packet traces: an opt-in per-packet tap for experiments and tests.

Runs measure through :class:`~repro.metrics.recorder.Recorder`, which
keeps bins, not packets.  A :class:`Trace` is for the caller that needs
the packets themselves — an application figure whose measurement interval
is only known after the run, a test comparing two runs' arrival times —
and wires one in by hand.  It stores its observations as parallel columns
(one plain list per field) instead of one :class:`PacketRecord` object per
packet; :attr:`Trace.records` and iteration build records on demand, which
is what :mod:`repro.metrics.throughput` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, overload

from repro.net.packet import FlowId, Packet
from repro.net.sink import PacketSink
from repro.sim.simulator import Simulator


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One observed packet: arrival time, flow, size and sequence number."""

    time: float
    flow: FlowId
    size: int
    seq: int


class TraceRecords:
    """Sequence view over a :class:`Trace`'s columns.

    Indexing and iteration materialize :class:`PacketRecord` objects on
    demand, so code written against the record-list API keeps working.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.times)

    @overload
    def __getitem__(self, index: int) -> PacketRecord: ...

    @overload
    def __getitem__(self, index: slice) -> list[PacketRecord]: ...

    def __getitem__(self, index):
        t = self._trace
        if isinstance(index, slice):
            rng = range(*index.indices(len(t.times)))
            return [self._make(t, i) for i in rng]
        return self._make(t, index)

    @staticmethod
    def _make(t: "Trace", i: int) -> PacketRecord:
        return PacketRecord(
            time=t.times[i],
            flow=t.flow_ids[i],
            size=t.sizes[i],
            seq=t.seqs[i],
        )

    def __iter__(self) -> Iterator[PacketRecord]:
        t = self._trace
        for time, flow, size, seq in zip(t.times, t.flow_ids, t.sizes, t.seqs):
            yield PacketRecord(time=time, flow=flow, size=size, seq=seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecords({len(self)} records of {self._trace.name!r})"


class Trace:
    """Records packets flowing through a point and forwards them downstream.

    The recorded columns are the raw material for windowed throughput
    series, fairness indices and burst measurements (see
    :mod:`repro.metrics`).  Every packet is forwarded; a corrupted one
    (failed checksum) is not recorded, so the columns hold goodput.
    """

    def __init__(
        self,
        sim: Simulator,
        sink: PacketSink | None = None,
        *,
        name: str = "trace",
    ) -> None:
        self._sim = sim
        self._sink = sink
        self.name = name
        self.times: list[float] = []
        self.flow_ids: list[FlowId] = []
        self.sizes: list[int] = []
        self.seqs: list[int] = []
        self._total_bytes = 0
        # Pre-bound appends keep receive() to plain calls on the hot path.
        self._append_time = self.times.append
        self._append_flow = self.flow_ids.append
        self._append_size = self.sizes.append
        self._append_seq = self.seqs.append

    def receive(self, packet: Packet) -> None:
        # Corrupted packets consume capacity upstream but fail their
        # checksum at the endpoint, so they never count toward goodput.
        if not packet.corrupt:
            size = packet.size
            self._append_time(self._sim.now)
            self._append_flow(packet.flow)
            self._append_size(size)
            self._append_seq(packet.seq)
            self._total_bytes += size
        if self._sink is not None:
            self._sink.receive(packet)

    @property
    def records(self) -> TraceRecords:
        """Compatibility record view (lazy :class:`PacketRecord` objects)."""
        return TraceRecords(self)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.records)

    @property
    def total_bytes(self) -> int:
        """Sum of recorded packet sizes (maintained incrementally)."""
        return self._total_bytes

    def flows(self) -> set[FlowId]:
        """Distinct flows observed."""
        return set(self.flow_ids)
