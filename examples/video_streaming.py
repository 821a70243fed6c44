"""Cellular-style video rate limiting (the paper's §6.4.1 scenario).

A carrier limits a user to 3 Mbps.  The user watches a video (BBR
transport, like YouTube) while a bulk download runs in the background.
With the status-quo policer the BBR video starves or hogs depending on the
competition; with BC-PQP the 3 Mbps is split fairly between the video and
the rest — and the video still streams at good quality because there is
no queueing delay.

Run:  python examples/video_streaming.py
"""

from repro import Simulator, make_limiter
from repro.cc.endpoint import FlowDemux
from repro.metrics import jain_index, per_slot_throughput_series
from repro.net.packet import FlowId
from repro.net.trace import Trace
from repro.units import mbps, ms, to_mbps
from repro.wiring import wire_flow
from repro.workload.video import VideoConfig, VideoSession

RATE = mbps(3)
RTT = ms(40)
HORIZON = 100.0


def run(scheme: str) -> None:
    sim = Simulator()
    limiter = make_limiter(sim, scheme, rate=RATE, num_queues=2, max_rtt=RTT)
    demux = FlowDemux()
    trace = Trace(sim, demux)
    limiter.connect(trace)

    video = VideoSession(
        sim, ingress=limiter, demux=demux, slot=0,
        config=VideoConfig(total_chunks=18, cc="bbr", rtt=RTT))
    wire_flow(sim, FlowId(0, 1, 0), cc="cubic", rtt=RTT, ingress=limiter,
              demux=demux, packets=None, start=0.0)  # background download
    sim.run(until=HORIZON)

    # Measure shares only while the video session is active.
    video_end = max((r.time for r in trace.records if r.flow.slot == 0),
                    default=HORIZON)
    slots = per_slot_throughput_series(trace.records, window=0.25,
                                       start=5.0, end=max(video_end, 10.0))
    shares = [slots[s].mean() if s in slots else 0.0 for s in (0, 1)]
    stats = video.stats
    print(f"\n{scheme}:")
    print(f"  video    {to_mbps(shares[0]):5.2f} Mbps, avg quality rung "
          f"{stats.average_quality():.1f}, rebuffered "
          f"{stats.rebuffer_seconds:.1f} s")
    print(f"  download {to_mbps(shares[1]):5.2f} Mbps")
    print(f"  fairness {jain_index(shares):.3f}")


def main() -> None:
    for scheme in ("policer", "shaper-fifo", "bcpqp"):
        run(scheme)


if __name__ == "__main__":
    main()
