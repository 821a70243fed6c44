"""Figure 7: real-world application QoE under rate enforcement (§6.4).

* **7a — video streaming**: a 3 Mbps subscriber rate shared between an ABR
  video session and the rest of the user's traffic (a bulk download).
  Status-quo enforcement (plain policer, single-queue shaper) either lets
  the video hog the rate or starves it; BC-PQP gives per-class fairness
  *and* high video quality.  Run per service profile: YouTube ≈ BBR,
  Netflix ≈ New Reno.
* **7b — web browsing**: 3 Mbps shared 4:1 (bulk download : web browsing)
  via weighted policies; page-load-time CDFs with BC-PQP and a DRR shaper
  versus the status-quo policer / single-queue shaper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cc.endpoint import FlowDemux
from repro.experiments.common import (
    MEASUREMENT_WINDOW,
    ResultCache,
    print_table,
    run_cells,
)
from repro.metrics.fairness import jain_index
from repro.metrics.stats import percentile
from repro.metrics.throughput import per_slot_throughput_series
from repro.net.packet import FlowId
from repro.net.trace import Trace
from repro.schemes import make_limiter
from repro.sim.simulator import Simulator
from repro.units import mbps, ms
from repro.wiring import wire_flow
from repro.workload.video import VideoConfig, VideoSession
from repro.workload.web import WebConfig, WebSession

#: The §6.4 enforcement schemes (status quo first).
SCHEMES = ("policer", "shaper-fifo", "shaper", "bcpqp")

#: Service transport profiles (§3.5: YouTube uses BBR, Netflix New Reno).
SERVICES = {"youtube": "bbr", "netflix": "reno"}


@dataclass
class Config:
    """§6.4 parameters (3 Mbps subscriber rate, as in the paper)."""

    rate: float = mbps(3)
    rtt: float = ms(40)
    video_chunks: int = 20
    web_pages: int = 15
    horizon: float = 120.0
    seed: int = 1
    #: 7b's bulk:web weighted split.
    bulk_web_weights: tuple[float, float] = (4.0, 1.0)
    #: 7b's bulk download transport.  BBR is the interesting regime: it
    #: does not yield to loss, so the status-quo schemes starve the web
    #: class entirely while weighted BC-PQP/DRR protect it.
    bulk_cc: str = "bbr"


@dataclass
class VideoOutcome:
    """7a: one (scheme, service) cell."""

    average_quality: float
    average_bitrate_mbps: float
    rebuffer_seconds: float
    fairness: float


@dataclass
class Result:
    """Figure 7 outputs."""

    # 7a: (scheme, service) -> outcome
    video: dict[tuple[str, str], VideoOutcome] = field(default_factory=dict)
    # 7b: scheme -> (p50 PLT, p90 PLT, pages completed)
    web: dict[str, tuple[float, float, int]] = field(default_factory=dict)


def _make_path(scheme: str, config: Config, *, weights=None):
    sim = Simulator()
    limiter = make_limiter(
        sim,
        scheme,
        rate=config.rate,
        num_queues=2,
        max_rtt=config.rtt,
        weights=list(weights) if weights else None,
    )
    demux = FlowDemux()
    trace = Trace(sim, demux)
    limiter.connect(trace)
    return sim, limiter, demux, trace


@dataclass(frozen=True)
class VideoCell:
    """One 7a simulation: ``scheme`` enforcing a ``cc`` video session."""

    scheme: str
    service: str
    cc: str
    config: Config


@dataclass(frozen=True)
class WebCell:
    """One 7b simulation: ``scheme`` enforcing the bulk/web split."""

    scheme: str
    config: Config


def simulate_video_cell(cell: VideoCell) -> VideoOutcome:
    """Worker entry for one 7a cell (picklable in and out)."""
    config = cell.config
    sim, limiter, demux, trace = _make_path(cell.scheme, config)
    video = VideoSession(
        sim,
        ingress=limiter,
        demux=demux,
        slot=0,
        config=VideoConfig(
            total_chunks=config.video_chunks, cc=cell.cc, rtt=config.rtt
        ),
    )
    # "The rest of the traffic": a backlogged bulk download.
    wire_flow(
        sim,
        FlowId(0, 1, 0),
        cc="cubic",
        rtt=config.rtt,
        ingress=limiter,
        demux=demux,
        packets=None,
        start=0.0,
    )
    sim.run(until=config.horizon)
    # Measure only while the video session is active (a finished
    # video would dilute the shares with download-only windows).
    video_end = max(
        (t for t, f in zip(trace.times, trace.flow_ids) if f.slot == 0),
        default=config.horizon,
    )
    slots = per_slot_throughput_series(
        trace,
        window=MEASUREMENT_WINDOW,
        start=5.0,
        end=max(video_end, 10.0),
    )
    shares = [slots[s].mean() if s in slots else 0.0 for s in (0, 1)]
    return VideoOutcome(
        average_quality=video.stats.average_quality(),
        average_bitrate_mbps=video.stats.average_bitrate(
            video.config.ladder_mbps
        ),
        rebuffer_seconds=video.stats.rebuffer_seconds,
        fairness=jain_index(shares),
    )


def simulate_web_cell(cell: WebCell) -> tuple[float, float, int]:
    """Worker entry for one 7b cell: (p50 PLT, p90 PLT, pages done)."""
    config = cell.config
    sim, limiter, demux, _trace = _make_path(
        cell.scheme, config, weights=config.bulk_web_weights
    )
    wire_flow(
        sim,
        FlowId(0, 0, 0),
        cc=config.bulk_cc,
        rtt=config.rtt,
        ingress=limiter,
        demux=demux,
        packets=None,
        start=0.0,
    )
    web = WebSession(
        sim,
        ingress=limiter,
        demux=demux,
        slot=1,
        rng=random.Random(config.seed),
        config=WebConfig(pages=config.web_pages, rtt=config.rtt),
    )
    sim.run(until=config.horizon)
    plts = web.stats.plts()
    if plts:
        return (percentile(plts, 50), percentile(plts, 90), len(plts))
    return (float("inf"), float("inf"), 0)


def video_grid(config: Config) -> list[VideoCell]:
    """7a cells in report order: service-major, scheme-minor."""
    return [
        VideoCell(scheme=scheme, service=service, cc=cc, config=config)
        for service, cc in SERVICES.items()
        for scheme in SCHEMES
    ]


def web_grid(config: Config) -> list[WebCell]:
    """7b cells: one per scheme."""
    return [WebCell(scheme=scheme, config=config) for scheme in SCHEMES]


def run_video(
    config: Config,
    result: Result,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> None:
    """7a: video session (slot 0) vs bulk download (slot 1)."""
    cells = video_grid(config)
    outcomes = run_cells(simulate_video_cell, cells, jobs=jobs, cache=cache)
    for cell, outcome in zip(cells, outcomes):
        result.video[(cell.scheme, cell.service)] = outcome


def run_web(
    config: Config,
    result: Result,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> None:
    """7b: bulk download (slot 0, weight 4) vs web browsing (slot 1)."""
    cells = web_grid(config)
    outcomes = run_cells(simulate_web_cell, cells, jobs=jobs, cache=cache)
    for cell, outcome in zip(cells, outcomes):
        result.web[cell.scheme] = outcome


def run(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Run both application studies."""
    config = config or Config()
    result = Result()
    run_video(config, result, jobs=jobs, cache=cache)
    run_web(config, result, jobs=jobs, cache=cache)
    return result


def main(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Print the Figure 7 tables."""
    config = config or Config()
    result = run(config, jobs=jobs, cache=cache)
    print("Figure 7a: video quality vs fairness at 3 Mbps")
    rows = []
    for (scheme, service), o in result.video.items():
        rows.append([
            scheme, service, f"{o.average_bitrate_mbps:.2f}",
            f"{o.average_quality:.2f}", f"{o.rebuffer_seconds:.1f}",
            f"{o.fairness:.3f}",
        ])
    print_table(
        ["scheme", "service", "avg Mbps", "avg rung", "rebuffer s", "jain"],
        rows,
    )
    print()
    print("Figure 7b: page load times, bulk:web shared 4:1 at 3 Mbps "
          "(bulk uses BBR)")
    print_table(
        ["scheme", "p50 PLT (s)", "p90 PLT (s)", "pages done"],
        [
            [s, f"{p50:.2f}", f"{p90:.2f}", str(n)]
            for s, (p50, p90, n) in result.web.items()
        ],
    )
    return result


if __name__ == "__main__":
    main()
