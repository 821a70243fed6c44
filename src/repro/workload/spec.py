"""Flow specifications consumed by the scenario builder."""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import require_positive


@dataclass(frozen=True)
class OnOffSpec:
    """An on-off flow: bursts of ``burst_packets_mean`` packets (exponential)
    separated by idle periods of ``off_time_mean`` seconds (exponential).

    Each burst is a fresh TCP flow (new incarnation in the same slot), like
    repeated short transfers from one application.
    """

    burst_packets_mean: float
    off_time_mean: float
    min_burst_packets: int = 5

    def __post_init__(self) -> None:
        if self.burst_packets_mean <= 0:
            raise ValueError("burst_packets_mean must be positive")
        if self.off_time_mean < 0:
            raise ValueError("off_time_mean must be non-negative")
        if self.min_burst_packets < 1:
            raise ValueError("min_burst_packets must be >= 1")


@dataclass(frozen=True)
class FlowSpec:
    """One flow slot inside an aggregate.

    Attributes
    ----------
    slot:
        Stable index within the aggregate; the classifier maps it to a
        queue, and on-off incarnations reuse it.
    cc:
        Congestion-control name (reno / cubic / bbr / vegas).
    rtt:
        Base round-trip propagation delay in seconds (the ``netem``-style
        injected latency).
    packets:
        Flow length in MSS packets; ``None`` = backlogged until the end.
    start:
        Absolute start time.
    on_off:
        If set, the slot runs repeated short flows per :class:`OnOffSpec`
        (``packets`` is ignored).
    weight:
        Share weight used by weighted policies.
    ecn:
        Negotiate ECN on this flow's connections.
    """

    slot: int
    cc: str = "reno"
    rtt: float = 0.05
    packets: int | None = None
    start: float = 0.0
    on_off: OnOffSpec | None = None
    weight: float = 1.0
    ecn: bool = False

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError("slot must be >= 0")
        require_positive("rtt", self.rtt)
        if self.packets is not None and self.packets < 1:
            raise ValueError("packets must be >= 1 when given")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
