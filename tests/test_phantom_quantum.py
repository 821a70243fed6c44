"""Tests for the quantum (batched DRR) phantom service discipline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.phantom import PhantomQueueSet
from repro.policy.tree import Policy


def make(service, n=2, rate=1500.0, cap=1e6, policy=None):
    return PhantomQueueSet(policy or Policy.fair(n), rate, [cap] * n,
                           service=service)


class TestQuantumService:
    def test_drains_at_configured_rate(self):
        q = make("quantum", n=1, rate=1000.0)
        q.try_enqueue(0, 5000)
        q.advance(2.0)
        assert q.length(0) == pytest.approx(3000.0)

    def test_no_service_accrues_while_idle(self):
        """A policer holds no tokens beyond the queues themselves: service
        budget must not pile up across idle periods."""
        q = make("quantum", n=1, rate=1000.0)
        q.advance(100.0)  # long idle
        q.try_enqueue(0, 5000)
        q.advance(100.5)
        assert q.length(0) == pytest.approx(4500.0)

    def test_fair_long_run_split(self):
        q = make("quantum", n=2, rate=3000.0)
        q.try_enqueue(0, 60_000)
        q.try_enqueue(1, 60_000)
        q.advance(20.0)
        assert q.length(0) == pytest.approx(30_000.0, rel=0.1)
        assert q.length(1) == pytest.approx(30_000.0, rel=0.1)

    def test_weighted_split(self):
        # DRR converges to the weight ratio as the drain lengthens (each
        # scheduler cycle serves whole weight-scaled quanta).
        q = PhantomQueueSet(Policy.weighted([3, 1]), 4000.0, [1e7] * 2,
                            service="quantum")
        q.try_enqueue(0, 1_000_000)
        q.try_enqueue(1, 1_000_000)
        q.advance(100.0)
        drained0 = 1_000_000 - q.length(0)
        drained1 = 1_000_000 - q.length(1)
        assert drained0 / drained1 == pytest.approx(3.0, rel=0.05)

    def test_priority_serves_high_first(self):
        q = PhantomQueueSet(Policy.prioritized([0, 1]), 1000.0, [1e6] * 2,
                            service="quantum")
        q.try_enqueue(0, 2000)
        q.try_enqueue(1, 2000)
        q.advance(2.0)
        assert q.length(0) == pytest.approx(0.0, abs=1.0)
        assert q.length(1) == pytest.approx(2000.0, abs=1.0)

    def test_magic_clamps_like_fluid(self):
        q = make("quantum", n=1, rate=1000.0, cap=5000.0)
        q.try_enqueue(0, 1000)
        q.fill_with_magic(0)
        q.advance(2.0)
        assert q.magic_bytes(0) == pytest.approx(3000.0)

    def test_unknown_service_rejected(self):
        with pytest.raises(ValueError):
            make("turbo")


class TestFluidQuantumEquivalence:
    @settings(deadline=None, max_examples=30)
    @given(
        weights=st.lists(st.floats(min_value=0.5, max_value=5),
                         min_size=2, max_size=4),
        fills=st.lists(st.floats(min_value=5_000, max_value=100_000),
                       min_size=2, max_size=4),
    )
    def test_long_run_drain_shares_match(self, weights, fills):
        """Property: over a long backlogged drain, quantum DRR service
        removes (nearly) the same bytes per queue as the fluid GPS."""
        n = min(len(weights), len(fills))
        weights, fills = weights[:n], fills[:n]
        policy = Policy.weighted(weights)
        results = {}
        for service in ("fluid", "quantum"):
            q = PhantomQueueSet(policy, 5000.0, [1e9] * n, service=service)
            for i, f in enumerate(fills):
                q.try_enqueue(i, f)
            q.advance(5.0)
            results[service] = [fills[i] - q.length(i) for i in range(n)]
        for a, b in zip(results["fluid"], results["quantum"]):
            assert a == pytest.approx(b, abs=3 * 1500.0)

    def test_total_drain_identical(self):
        for service in ("fluid", "quantum"):
            q = make(service, n=3, rate=3000.0)
            for i in range(3):
                q.try_enqueue(i, 50_000)
            q.advance(10.0)
            assert q.drained_bytes == pytest.approx(30_000.0, abs=1500.0)
