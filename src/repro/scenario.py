"""Single-aggregate scenario wiring.

Reproduces the paper's three-machine testbed for one traffic aggregate:

    senders --(per-flow delay pipes)--> rate limiter
        --> [optional secondary bottleneck link] --> recorder
        --> per-flow receivers --(per-flow delay pipes)--> ACKs back

Each :class:`~repro.workload.spec.FlowSpec` becomes a :class:`FlowRunner`
that launches successive TCP flows in its slot (one for backlogged/fixed
flows, many for on-off slots) and records completion times.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from repro.cc.endpoint import FlowDemux, TcpSender
from repro.limiters.base import RateLimiter
from repro.metrics.recorder import Recorder
from repro.metrics.throughput import MEASUREMENT_WINDOW, check_interval
from repro.net.impair import CapacityTrace, ImpairmentSpec, TraceLink
from repro.net.link import Link
from repro.net.packet import FlowId
from repro.sim.simulator import Simulator
from repro.wiring import wire_flow
from repro.workload.spec import FlowSpec


@dataclass(frozen=True)
class FlowRecord:
    """One completed flow: slot, incarnation, lifetime and size."""

    slot: int
    incarnation: int
    start: float
    end: float
    packets: int

    @property
    def duration(self) -> float:
        """Flow completion time in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class BottleneckSpec:
    """A secondary bottleneck after the limiter (Figure 3's 8.5 Mbps hop)."""

    rate: float
    buffer_bytes: float
    delay: float = 0.0


class FlowRunner:
    """Drives one flow slot: launches incarnations, tracks completions."""

    def __init__(
        self,
        sim: Simulator,
        spec: FlowSpec,
        *,
        aggregate: int,
        limiter_ingress: object,
        data_demux: FlowDemux,
        rng: Random,
        horizon: float,
        impair: ImpairmentSpec | None = None,
    ) -> None:
        self._sim = sim
        self.spec = spec
        self._aggregate = aggregate
        self._ingress = limiter_ingress
        self._demux = data_demux
        self._rng = rng
        self._horizon = horizon
        self._impair = impair
        self._incarnation = 0
        self._starts: dict[int, float] = {}
        self.records: list[FlowRecord] = []
        self.senders: list[TcpSender] = []
        self._launch(at=spec.start)

    def _launch(self, at: float) -> None:
        if at >= self._horizon:
            return
        spec = self.spec
        flow = FlowId(self._aggregate, spec.slot, self._incarnation)
        self._starts[self._incarnation] = at
        self._incarnation += 1

        packets: int | None
        if spec.on_off is not None:
            mean = spec.on_off.burst_packets_mean
            packets = max(
                spec.on_off.min_burst_packets, int(self._rng.expovariate(1.0 / mean))
            )
        else:
            packets = spec.packets

        # The impairment stream is drawn only when per-flow channels are
        # enabled: a disabled spec consumes no randomness, so clean runs
        # stay byte-identical to pre-impairment builds.
        impair = self._impair
        impair_rng = (
            Random(self._rng.getrandbits(64))
            if impair is not None and impair.flow_enabled
            else None
        )
        sender = wire_flow(
            self._sim,
            flow,
            cc=spec.cc,
            rtt=spec.rtt,
            ingress=self._ingress,
            demux=self._demux,
            packets=packets,
            start=at,
            on_complete=self._on_complete,
            ecn=spec.ecn,
            impair=impair,
            impair_rng=impair_rng,
        )
        self.senders.append(sender)

    def _on_complete(self, sender: TcpSender, now: float) -> None:
        total = sender.snd_una
        self.records.append(
            FlowRecord(
                slot=self.spec.slot,
                incarnation=sender.flow.incarnation,
                start=self._flow_start(sender),
                end=now,
                packets=total,
            )
        )
        if self.spec.on_off is not None:
            off = self._rng.expovariate(1.0 / self.spec.on_off.off_time_mean) \
                if self.spec.on_off.off_time_mean > 0 else 0.0
            self._launch(at=now + off)

    def _flow_start(self, sender: TcpSender) -> float:
        return self._starts[sender.flow.incarnation]


class AggregateScenario:
    """One rate-limited aggregate, end to end.

    Parameters
    ----------
    limiter:
        Any :class:`~repro.limiters.base.RateLimiter` (connected here).
    specs:
        Flow slots inside the aggregate.
    bottleneck:
        Optional secondary bottleneck between limiter and receiver.
    horizon:
        Run length in seconds — on-off slots stop relaunching past it.
    window, warmup:
        Receiver goodput is binned online into ``window``-wide bins over
        ``[warmup, horizon)`` (see ``recorder``); an interval that cannot
        be measured is rejected here, before anything is wired.
    impair:
        Optional :class:`~repro.net.impair.ImpairmentSpec`.  Per-flow
        channels (loss/jitter/reorder/duplicate/corrupt) wrap each
        flow's delay pipes; a capacity trace inserts a Mahimahi-style
        :class:`~repro.net.impair.TraceLink` between the limiter and
        the bottleneck/receiver.  ``None`` or an all-disabled spec
        changes nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        limiter: RateLimiter,
        specs: Sequence[FlowSpec],
        rng: Random,
        aggregate: int = 0,
        bottleneck: BottleneckSpec | None = None,
        horizon: float = 30.0,
        window: float = MEASUREMENT_WINDOW,
        warmup: float = 0.0,
        impair: ImpairmentSpec | None = None,
    ) -> None:
        if not specs:
            raise ValueError("need at least one flow spec")
        slots = [s.slot for s in specs]
        if len(set(slots)) != len(slots):
            raise ValueError("flow slots must be unique within an aggregate")
        check_interval(horizon, warmup, window)
        self.sim = sim
        self.limiter = limiter
        self.horizon = horizon

        self.demux = FlowDemux()
        #: The run's measurement: one row, a slot per flow slot.
        self.recorder = Recorder(
            sim,
            self.demux,
            lo=aggregate,
            slot_counts=[max(slots) + 1],
            window=window,
            warmup=warmup,
            horizon=horizon,
            name="receiver",
        )
        downstream: object = self.recorder
        if bottleneck is not None:
            self.bottleneck: Link | None = Link(
                sim,
                bottleneck.rate,
                bottleneck.delay,
                self.recorder,
                buffer_bytes=bottleneck.buffer_bytes,
                name="secondary-bottleneck",
            )
            downstream = self.bottleneck
        else:
            self.bottleneck = None
        if impair is not None and impair.trace_enabled:
            self.trace_link: TraceLink | None = TraceLink(
                sim,
                CapacityTrace(impair.trace_rates),
                impair.trace_delay,
                downstream,  # type: ignore[arg-type]
                buffer_bytes=impair.trace_buffer,
                name="trace-link",
            )
            downstream = self.trace_link
        else:
            self.trace_link = None
        limiter.connect(downstream)

        self.runners = [
            FlowRunner(
                sim,
                spec,
                aggregate=aggregate,
                limiter_ingress=limiter,
                data_demux=self.demux,
                rng=Random(rng.getrandbits(64)),
                horizon=horizon,
                impair=impair,
            )
            for spec in specs
        ]

    def run(self, until: float | None = None) -> None:
        """Run the simulation to ``until`` (default: the horizon)."""
        self.sim.run(until=self.horizon if until is None else until)

    @property
    def flow_records(self) -> list[FlowRecord]:
        """Completion records across all slots."""
        records: list[FlowRecord] = []
        for runner in self.runners:
            records.extend(runner.records)
        return records
