"""The estimator: a run driven as segments of simulated time.

Between segments the :class:`~calibrate.Calibrator` runs one burst, so
every segment's CPU-us per packet can be divided by the host speed
measured right next to it (mean of the burst before and the burst
after).  The harness owns the loop through the public
``run(until=t)`` entry points; a segmented run is byte-identical to the
one-shot run (pinned by ``test_suite.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from calibrate import Calibrator

#: Raw spans are kept for the segments that carry the first this-many
#: post-warm-up packets of a traced run.
RAW_SPAN_PACKETS = 2000


@dataclass
class Segment:
    end: float          # simulated end time of the segment
    cpu_us: float       # CPU microseconds spent inside the segment
    packets: int        # packets that arrived at the limiter(s) in it
    cal_us: float       # adjacent calibration, us per iteration
    wall_ns: int        # perf_counter span (the traced run's clock)


def boundaries(horizon: float, step: float) -> list[float]:
    """Segment end times ``step, 2*step, ...`` capped at ``horizon``;
    multiples are computed, not accumulated, so traced, untraced and
    repeated runs cut at bit-identical instants."""
    ends = []
    k = 1
    while True:
        t = k * step
        if t >= horizon - 1e-12:
            ends.append(horizon)
            return ends
        ends.append(t)
        k += 1


class SegmentDriver:
    """Runs ``advance(t)`` over the boundaries, timing each segment."""

    def __init__(self, calibrator: Calibrator, recorder=None) -> None:
        self.calibrator = calibrator
        self.recorder = recorder
        self.rows: list[Segment] = []
        self.warmup = 0.0
        #: CPU seconds since interpreter start at the first ``run`` entry,
        #: calibration excluded -- the repeat's ``setup_s``.
        self.setup_cpu: float | None = None
        #: Recorder snapshot at the warm-up boundary (traced runs).
        self.warm_snapshot: dict | None = None

    def drive(
        self,
        advance: Callable[[float], None],
        *,
        horizon: float,
        step: float,
        warmup: float,
        packets: Callable[[], int],
        at_boundary: Callable[[float], None] | None = None,
    ) -> None:
        cal = self.calibrator
        recorder = self.recorder
        self.warmup = warmup
        raw_budget = RAW_SPAN_PACKETS
        previous = cal.burst()
        if self.setup_cpu is None:
            self.setup_cpu = time.process_time() - cal.cpu_seconds
        if at_boundary is not None:
            at_boundary(0.0)
        for end in boundaries(horizon, step):
            arrived = packets()
            wall = time.perf_counter_ns()
            cpu = time.process_time()
            advance(end)
            cpu = time.process_time() - cpu
            wall = time.perf_counter_ns() - wall
            arrived = packets() - arrived
            following = cal.burst()
            self.rows.append(
                Segment(end, cpu * 1e6, arrived,
                        (previous + following) / 2.0, wall)
            )
            previous = following
            if recorder is not None:
                if recorder.raw_on:
                    raw_budget -= arrived
                    if raw_budget <= 0:
                        recorder.raw_on = False
                elif self.warm_snapshot is None and end >= warmup - 1e-12:
                    self.warm_snapshot = recorder.snapshot()
                    recorder.raw_on = True
            if at_boundary is not None:
                at_boundary(end)

    def measured(self) -> list[Segment]:
        """Post-warm-up segments that carried packets."""
        first = self.warmup + 1e-12
        return [s for s in self.rows if s.end > first and s.packets > 0]
