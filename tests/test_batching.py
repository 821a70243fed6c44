"""Delivery order: one heap event per packet in flight.

These tests drive randomized workloads of packet arrivals and competing
timer events through a :class:`~repro.net.pipe.Pipe` and require the
observed delivery/timer log to be *identical* for every
``Simulator(batch_limit=)`` — the argument is accepted for the frozen
benchmark suite and selects nothing, so the relation pins that it stays
inert.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import FlowId, Packet
from repro.net.pipe import Pipe
from repro.sim.simulator import Simulator

pytestmark = pytest.mark.batch

#: Batch limits under test: the two extremes plus boundary-forcing caps
#: (a cap of 2 or 3 splits every burst into multiple drains).
BATCH_LIMITS = (1, 2, 3, None)

FLOW = FlowId(aggregate=0, slot=0)


class _Recorder:
    """Terminal sink logging each delivery as ("pkt", time, seq)."""

    def __init__(self, sim: Simulator, log: list) -> None:
        self._sim = sim
        self._log = log

    def receive(self, packet: Packet) -> None:
        self._log.append(("pkt", self._sim.now, packet.seq))


def _run_scenario(batch, arrivals, timers, delay):
    """One simulation: ``arrivals`` are (time, count) packet bursts into a
    pipe, ``timers`` are competing pure events; returns the merged log."""
    sim = Simulator(batch_limit=batch)
    log: list = []
    pipe = Pipe(sim, delay, _Recorder(sim, log))
    seq = 0
    for time, count in arrivals:
        # Unique seq per packet, stable across batch limits.
        burst = [seq + i for i in range(count)]
        seq += count

        def fire(t=time, burst=tuple(burst)):
            for s in burst:
                pipe.receive(Packet.data(FLOW, seq=s, sent_at=t))

        sim.call_at(time, fire)
    for time in timers:
        sim.call_at(time, lambda t=time: log.append(("timer", t)))
    sim.run()
    return log


@given(
    arrivals=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=8,
    ),
    timers=st.lists(
        st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
        max_size=6,
    ),
    delay=st.sampled_from((0.0, 0.001, 0.0042)),
)
@settings(max_examples=40, deadline=None)
def test_batch_boundaries_preserve_global_event_order(arrivals, timers, delay):
    """Property: for random bursts of pipe arrivals interleaved with
    competing timer events — including exact time ties, where ordering
    falls to reserved seqs — every batch limit yields the identical
    globally-ordered log."""
    reference = _run_scenario(1, arrivals, timers, delay)
    for batch in BATCH_LIMITS[1:]:
        assert _run_scenario(batch, arrivals, timers, delay) == reference


def test_batch_one_delivers_singletons():
    """``batch=1`` caps every hand-off at one packet: the drain delivers
    in order and no multi-packet delivery is ever counted."""
    sim = Simulator(batch_limit=1)
    log: list = []
    pipe = Pipe(sim, 0.001, _Recorder(sim, log))
    for i in range(10):
        pipe.receive(Packet.data(FLOW, seq=i, sent_at=0.0))
    sim.run()
    assert [entry[2] for entry in log] == list(range(10))
    assert sim.batched_deliveries == 0
