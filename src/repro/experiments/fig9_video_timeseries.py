"""Figure 9 (Appendix B): one video stream's throughput over time.

A BBR-driven (YouTube-like) video shares a 3 Mbps enforced rate with other
traffic under each scheme.  Through a plain policer the BBR video hogs most
of the bandwidth; through (single-queue or DRR) shapers it yields — BBR and
the ABR controller both back off under queueing delay; BC-PQP holds it at
its fair share without queueing delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cc.endpoint import FlowDemux
from repro.experiments.common import ResultCache, print_table, run_cells
from repro.metrics.series import TimeSeries
from repro.metrics.throughput import per_slot_throughput_series
from repro.net.packet import FlowId
from repro.net.trace import Trace
from repro.schemes import make_limiter
from repro.sim.simulator import Simulator
from repro.units import mbps, ms, to_mbps
from repro.wiring import wire_flow
from repro.workload.video import VideoConfig, VideoSession

SCHEMES = ("policer", "shaper-fifo", "shaper", "bcpqp")


@dataclass
class Config:
    """Figure 9 parameters."""

    rate: float = mbps(3)
    rtt: float = ms(40)
    chunks: int = 25
    horizon: float = 150.0
    window: float = 1.0
    seed: int = 1


@dataclass
class Result:
    """Per-scheme video/cross-traffic series and summary shares."""

    video_series: dict[str, TimeSeries] = field(default_factory=dict)
    video_share: dict[str, float] = field(default_factory=dict)
    rebuffer_seconds: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SchemeCell:
    """One Figure 9 simulation: a scheme enforcing the video/bulk mix."""

    scheme: str
    config: Config


def simulate_scheme_cell(
    cell: SchemeCell,
) -> tuple[TimeSeries, float, float]:
    """Worker entry: (video series, video share, rebuffer seconds)."""
    config = cell.config
    sim = Simulator()
    limiter = make_limiter(sim, cell.scheme, rate=config.rate, num_queues=2,
                           max_rtt=config.rtt)
    demux = FlowDemux()
    trace = Trace(sim, demux)
    limiter.connect(trace)
    video = VideoSession(
        sim, ingress=limiter, demux=demux, slot=0,
        config=VideoConfig(total_chunks=config.chunks, cc="bbr",
                           rtt=config.rtt))
    wire_flow(sim, FlowId(0, 1, 0), cc="cubic", rtt=config.rtt,
              ingress=limiter, demux=demux, packets=None, start=0.0)
    sim.run(until=config.horizon)
    video_end = max(
        (t for t, f in zip(trace.times, trace.flow_ids) if f.slot == 0),
        default=config.horizon,
    )
    slots = per_slot_throughput_series(
        trace, window=config.window, start=0.0,
        end=max(video_end, 10.0))
    video_series = slots.get(0, TimeSeries())
    other_series = slots.get(1, TimeSeries())
    video_total = sum(video_series.values)
    other_total = sum(other_series.values)
    denom = video_total + other_total
    share = video_total / denom if denom else 0.0
    return video_series, share, video.stats.rebuffer_seconds


def grid(config: Config) -> list[SchemeCell]:
    """One cell per enforcement scheme."""
    return [SchemeCell(scheme=scheme, config=config) for scheme in SCHEMES]


def run(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Run the video-vs-cross-traffic time series for each scheme."""
    config = config or Config()
    result = Result()
    cells = grid(config)
    outcomes = run_cells(simulate_scheme_cell, cells, jobs=jobs, cache=cache)
    for cell, (series, share, rebuffer) in zip(cells, outcomes):
        result.video_series[cell.scheme] = series
        result.video_share[cell.scheme] = share
        result.rebuffer_seconds[cell.scheme] = rebuffer
    return result


def main(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Print the Figure 9 summary plus a coarse time series."""
    config = config or Config()
    result = run(config, jobs=jobs, cache=cache)
    print("Figure 9: BBR video vs cross traffic at 3 Mbps")
    print_table(
        ["scheme", "video share", "rebuffer s"],
        [
            [s, f"{result.video_share[s]:.3f}",
             f"{result.rebuffer_seconds[s]:.1f}"]
            for s in SCHEMES
        ],
    )
    print()
    print("Video throughput (Mbps), 10 s buckets:")
    for scheme in SCHEMES:
        series = result.video_series[scheme]
        buckets = []
        for start in range(0, int(config.horizon), 10):
            vals = [v for t, v in series if start <= t < start + 10]
            buckets.append(sum(vals) / len(vals) if vals else 0.0)
        print(f"  {scheme:12s} " +
              " ".join(f"{to_mbps(b):4.1f}" for b in buckets))
    return result


if __name__ == "__main__":
    main()
