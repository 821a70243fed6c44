"""The packet path takes one packet per call downstream of a limiter.

A policer decides each packet of a same-instant batch and forwards it at
once; no sink, pipe, link, gate, recorder, trace or demux accepts a list.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.cc.endpoint import TcpSender
from repro.core.bcpqp import BCPQP
from repro.core.pqp import PQP
from repro.limiters.base import RateLimiter
from repro.limiters.token_bucket import TokenBucketPolicer
from repro.net.packet import FlowId, Packet
from repro.schemes import make_limiter
from repro.sim.simulator import Simulator


def _classes():
    """Every class defined at module level anywhere under ``repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == info.name:
                yield value


def test_only_limiters_and_the_sender_take_a_list():
    # RateLimiter's per-packet loop, the three fused policers, and the
    # sender's entry the frozen benchmark suite names.
    takers = {cls for cls in _classes() if "receive_batch" in vars(cls)}
    assert takers == {RateLimiter, PQP, BCPQP, TokenBucketPolicer, TcpSender}


class _Probe:
    """Downstream sink that checks the limiter's forward counts on every
    call against its own running count."""

    def __init__(self, limiter: RateLimiter) -> None:
        self._stats = limiter.stats
        self.seen: list[int] = []
        self.bytes = 0

    def receive(self, packet: Packet) -> None:
        self.seen.append(packet.seq)
        self.bytes += packet.size
        assert self._stats.forwarded_packets == len(self.seen)
        assert self._stats.forwarded_bytes == self.bytes


@pytest.mark.parametrize("scheme", ["pqp", "bcpqp", "policer"])
def test_policers_forward_each_packet_as_decided(scheme):
    limiter = make_limiter(Simulator(), scheme, rate=1e6, num_queues=4,
                           max_rtt=0.01, queue_bytes=6000.0)
    assert type(limiter).receive_batch is not RateLimiter.receive_batch
    probe = _Probe(limiter)
    limiter.connect(probe)
    burst = [Packet.data(FlowId(0, seq % 4), seq, 0.0, size=1500)
             for seq in range(32)]
    limiter.receive_batch(burst)
    stats = limiter.stats
    assert 0 < stats.forwarded_packets < 32  # it admitted and it dropped
    assert stats.forwarded_packets + stats.dropped_packets == 32
    # Arrival order, admitted packets only.
    assert probe.seen == sorted(probe.seen)
