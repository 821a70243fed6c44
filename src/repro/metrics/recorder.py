"""The one online recorder: receiver goodput binned as it arrives.

The paper measures throughput at the receiver over fixed windows (§6.1),
so an outcome needs bytes per (flow slot, window) and nothing else.  A
:class:`Recorder` sits in front of the receivers' demux — one row for a
single :class:`~repro.scenario.AggregateScenario`, one row per aggregate
in a fleet shard — and adds each intact data packet's size to one cell of
a flat ``array('q')``: O(slots x bins) memory whatever the run length or
packet count.  Per-aggregate bins, goodput totals and throughput series
are sums over those cells, taken when a summary is asked for.

Binning is bit-identical to logging every packet in a
:class:`~repro.net.trace.Trace` and running
:mod:`repro.metrics.throughput` over it afterwards: the same
:func:`~repro.metrics.throughput.bin_layout`, the same in-range test
``warmup <= t < horizon``, the same last-bin clamp, the same
corrupt-packet exclusion — and packet sizes are integers, so the sums are
exact in any order.  ``tests/test_metrics.py`` holds the two equal,
float for float.
"""

from __future__ import annotations

from array import array

from repro.metrics.series import TimeSeries
from repro.metrics.throughput import bin_layout, rate_series
from repro.net.packet import Packet
from repro.net.sink import PacketSink
from repro.sim.simulator import Simulator

__all__ = ["Recorder"]

_INF = float("inf")


class Recorder:
    """Bytes per (bin, aggregate row, flow slot) over ``[warmup, horizon)``.

    Parameters
    ----------
    sink:
        Next hop; every packet, recorded or not, is forwarded to it.
    slot_counts:
        Flow-slot count per aggregate, in row order.
    lo:
        Aggregate id of row 0; ``row = flow.aggregate - lo``.
    """

    def __init__(
        self,
        sim: Simulator,
        sink: PacketSink,
        *,
        slot_counts: list[int],
        window: float,
        warmup: float,
        horizon: float,
        lo: int = 0,
        name: str = "recorder",
    ) -> None:
        nbins, last_width = bin_layout(window, warmup, horizon)
        self._sim = sim
        self._sink = sink
        self.name = name
        self.lo = lo
        self.window = window
        self.warmup = warmup
        self.horizon = horizon
        self.nbins = nbins
        self.last_width = last_width
        offsets = array("q", [0] * (len(slot_counts) + 1))
        for i, count in enumerate(slot_counts):
            offsets[i + 1] = offsets[i] + count
        #: Prefix sums of ``slot_counts``: row ``r`` owns the flat slots
        #: ``slot_offsets[r] .. slot_offsets[r + 1]``.
        self.slot_offsets = offsets
        self._nslots = offsets[-1]
        #: Bytes per (bin, flat slot), bin-major: the cells being written
        #: at any instant are contiguous, however many rows there are.
        #: Integers, so a packet costs an int add, not two boxed floats.
        self.cells = array("q", bytes(8 * nbins * offsets[-1]))
        #: Flat slots in order of their first recorded packet (the order
        #: post-hoc trace binning discovers them in, which float
        #: reductions over a slot dict depend on).
        self.seen: dict[int, None] = {}
        # The bin of the last packet: every instant in [_from, _until)
        # falls in the bin whose cells start at _base (-1: out of range).
        self._from = self._until = 0.0
        self._base = -1

    def _rebase(self, now: float) -> None:
        """Find ``now``'s bin and an interval of instants that share it.

        The index formula is monotone in ``t`` and ``_from`` computes to
        this bin, so every later instant does until one computes to the
        next.  Rounding moves that edge by ULPs; ``_until`` stops 1e-6 of
        a window short of it, and the instants in that sliver come back
        here.  Packets between two edges skip the arithmetic.
        """
        if now < self.warmup:
            self._from, self._until, self._base = -_INF, self.warmup, -1
        elif now >= self.horizon:
            self._from, self._until, self._base = self.horizon, _INF, -1
        else:
            # A record one ULP below the horizon, or in a trailing
            # partial window, divides past the last bin: clamp, as
            # trace binning does.
            index = int((now - self.warmup) * (1.0 / self.window))
            index = min(index, self.nbins - 1)
            self._from = now
            self._until = min(
                self.warmup + (index + 1 - 1e-6) * self.window, self.horizon
            )
            self._base = index * self._nslots

    def receive(self, packet: Packet) -> None:
        # A failed checksum consumed capacity upstream but is dropped by
        # the receiver: never goodput.
        if not packet.corrupt:
            now = self._sim._now
            if not self._from <= now < self._until:
                self._rebase(now)
            if self._base >= 0:
                flow = packet.flow
                slot = self.slot_offsets[flow.aggregate - self.lo] + flow.slot
                cell = self._base + slot
                held = self.cells[cell]
                self.cells[cell] = held + packet.size
                if not held:
                    self.seen[slot] = None
        self._sink.receive(packet)

    # -- summaries (integer sums, converted once: exact in any order) --

    def _row_bins(self, row: int) -> list[float]:
        lo, hi = self.slot_offsets[row], self.slot_offsets[row + 1]
        return [
            float(sum(self.cells[base + lo:base + hi]))
            for base in range(0, len(self.cells), self._nslots)
        ]

    def binned_bytes(self) -> array:
        """Bytes per (row, bin), row-major."""
        out = array("d")
        for row in range(len(self.slot_offsets) - 1):
            out.extend(self._row_bins(row))
        return out

    def slot_goodput(self) -> array:
        """In-range bytes per flat slot (ragged by ``slot_offsets``)."""
        return array("d", (
            sum(self.cells[slot::self._nslots])
            for slot in range(self._nslots)
        ))

    def goodput_bytes(self) -> array:
        """In-range bytes per row."""
        totals = self.slot_goodput()
        offsets = self.slot_offsets
        return array("d", (
            sum(totals[offsets[row]:offsets[row + 1]])
            for row in range(len(offsets) - 1)
        ))

    def aggregate_series(self, row: int = 0) -> TimeSeries:
        """Windowed throughput (bytes/s) of one row, all slots summed."""
        return rate_series(
            self._row_bins(row), self.window, self.warmup, self.last_width
        )

    def slot_series(self, row: int = 0) -> dict[int, TimeSeries]:
        """Windowed throughput per slot of one row: the slots that
        delivered in range, in first-delivery order."""
        lo, hi = self.slot_offsets[row], self.slot_offsets[row + 1]
        return {
            slot - lo: rate_series(
                array("d", self.cells[slot::self._nslots]),
                self.window, self.warmup, self.last_width,
            )
            for slot in self.seen
            if lo <= slot < hi
        }
