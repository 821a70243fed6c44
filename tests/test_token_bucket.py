"""Tests for the token-bucket policer."""

import pytest

from repro.limiters.token_bucket import TokenBucketPolicer
from repro.net.packet import FlowId, Packet
from repro.net.sink import NullSink
from repro.schemes import make_limiter
from repro.sim.simulator import Simulator

FLOW = FlowId(0, 0)


def make(sim, rate=10_000.0, bucket=3000.0, full=True):
    tb = TokenBucketPolicer(sim, rate=rate, bucket_bytes=bucket,
                            initially_full=full)
    tb.connect(NullSink())
    return tb


def pkt(seq=0, size=1500):
    return Packet.data(FLOW, seq, 0.0, size=size)


class TestTokenBucket:
    def test_burst_up_to_bucket_then_drop(self):
        sim = Simulator()
        tb = make(sim)  # bucket = 2 packets
        tb.receive(pkt(0))
        tb.receive(pkt(1))
        tb.receive(pkt(2))
        assert tb.stats.forwarded_packets == 2
        assert tb.stats.dropped_packets == 1

    def test_tokens_refill_over_time(self):
        sim = Simulator()
        tb = make(sim, rate=1500.0, bucket=1500.0)
        tb.receive(pkt(0))
        assert tb.tokens == pytest.approx(0.0)
        sim.schedule(1.0, lambda: tb.receive(pkt(1)))
        sim.run()
        assert tb.stats.forwarded_packets == 2

    def test_refill_capped_at_bucket(self):
        sim = Simulator()
        tb = make(sim, rate=1e6, bucket=3000.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert tb.tokens == pytest.approx(3000.0)

    def test_long_run_rate_enforced(self):
        """A saturating arrival process passes exactly rate x time bytes."""
        sim = Simulator()
        rate = 15_000.0
        tb = make(sim, rate=rate, bucket=3000.0, full=False)

        def arrive(i=[0]):
            tb.receive(pkt(i[0]))
            i[0] += 1
            sim.schedule(0.01, arrive)  # 150 kB/s demand, 10x the rate

        sim.schedule(0.0, arrive)
        sim.run(until=20.0)
        assert tb.stats.forwarded_bytes == pytest.approx(rate * 20.0, rel=0.02)

    def test_initially_empty(self):
        sim = Simulator()
        tb = make(sim, full=False)
        tb.receive(pkt())
        assert tb.stats.dropped_packets == 1

    def test_small_packets_pass_when_large_wont(self):
        sim = Simulator()
        tb = make(sim, rate=1000.0, bucket=1500.0)
        tb.receive(pkt(0))  # drains bucket
        tb.receive(pkt(1, size=1500))
        assert tb.stats.dropped_packets == 1
        sim.schedule(0.2, lambda: tb.receive(pkt(2, size=100)))
        sim.run()
        assert tb.stats.forwarded_packets == 2

    def test_requires_downstream(self):
        sim = Simulator()
        tb = TokenBucketPolicer(sim, rate=100.0, bucket_bytes=2000.0)
        with pytest.raises(RuntimeError,
                           match="^policer: no downstream connected$"):
            tb.receive(pkt())

    @pytest.mark.parametrize("scheme", ["pqp", "bcpqp", "fairpolicer"])
    def test_requires_downstream_every_policer(self, scheme):
        # The fused policers forward inline and FairPolicer through
        # _forward; an unconnected one raises the same typed error.  The
        # packet arrives late enough for FairPolicer's empty per-flow
        # bucket to have filled.
        sim = Simulator()
        limiter = make_limiter(sim, scheme, rate=1e6, num_queues=1,
                               max_rtt=0.05)
        sim.schedule(1.0, limiter.receive, pkt())
        with pytest.raises(RuntimeError,
                           match=f"^{scheme}: no downstream connected$"):
            sim.run()

    def test_invalid_params(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TokenBucketPolicer(sim, rate=0, bucket_bytes=1)
        with pytest.raises(ValueError):
            TokenBucketPolicer(sim, rate=1, bucket_bytes=0)

    def test_cost_is_alu_only(self):
        sim = Simulator()
        tb = make(sim)
        for i in range(10):
            tb.receive(pkt(i))
        snapshot = tb.cost.snapshot()
        assert snapshot["alu"] > 0
        assert snapshot["pkt_store"] == 0
        assert snapshot["pkt_fetch"] == 0
        assert snapshot["timer"] == 0
