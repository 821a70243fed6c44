"""Tests for the phantom-queue set and its fluid drain."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.phantom import PhantomQueueSet
from repro.policy.tree import Leaf, Policy


def make(n=2, rate=1000.0, cap=10_000.0, policy=None):
    return PhantomQueueSet(policy or Policy.fair(n), rate, [cap] * n)


class TestEnqueue:
    def test_accepts_until_capacity(self):
        q = make(n=1, cap=3000.0)
        assert q.try_enqueue(0, 1500)
        assert q.try_enqueue(0, 1500)
        assert not q.try_enqueue(0, 1500)

    def test_length_and_remaining(self):
        q = make(n=1, cap=5000.0)
        q.try_enqueue(0, 2000)
        assert q.length(0) == 2000
        assert q.remaining(0) == 3000

    def test_active_flags(self):
        q = make(n=3)
        q.try_enqueue(1, 100)
        assert q.active_flags() == [False, True, False]

    @pytest.mark.parametrize("service", ["turbo", "quantum"])
    def test_unknown_service_rejected(self, service):
        with pytest.raises(ValueError) as excinfo:
            PhantomQueueSet(Policy.fair(2), 1500.0, [1e6] * 2, service=service)
        assert str(PhantomQueueSet.SERVICES) in str(excinfo.value)


class TestRootLeafPolicy:
    """A one-queue policy whose root *is* the leaf (no class above it)."""

    @pytest.mark.parametrize("service", ["fluid", "fluid-ref"])
    def test_root_leaf_takes_the_whole_rate(self, service):
        # The leaf's own weight is irrelevant without siblings.
        q = PhantomQueueSet(
            Policy(Leaf(0, weight=3.0)), 1e6, [3000.0], service=service
        )
        q.advance(0.0)
        assert q.try_enqueue(0, 1500)
        q.advance(0.001)
        assert q.length(0) == 500.0
        assert q.fluid_rate_of(0) == 1e6
        q.advance(0.01)
        assert q.length(0) == 0.0
        assert q.fluid_rate_of(0) == 0.0


class TestFluidDrain:
    def test_single_queue_drains_at_rate(self):
        q = make(n=1, rate=1000.0, cap=1e6)
        q.try_enqueue(0, 5000)
        q.advance(2.0)
        assert q.length(0) == pytest.approx(3000.0)

    def test_drains_to_zero_and_stops(self):
        q = make(n=1, rate=1000.0, cap=1e6)
        q.try_enqueue(0, 500)
        q.advance(10.0)
        assert q.length(0) == 0.0
        assert q.drained_bytes == pytest.approx(500.0)

    def test_fair_split_between_occupied(self):
        q = make(n=2, rate=1000.0, cap=1e6)
        q.try_enqueue(0, 4000)
        q.try_enqueue(1, 4000)
        q.advance(2.0)
        assert q.length(0) == pytest.approx(3000.0)
        assert q.length(1) == pytest.approx(3000.0)

    def test_share_reallocates_when_queue_empties(self):
        # q0 holds 500 B, q1 holds 4000 B, rate 1000 B/s fair.
        # Piece 1: both served at 500 B/s until q0 empties at t=1.
        # Piece 2: q1 alone at 1000 B/s.
        q = make(n=2, rate=1000.0, cap=1e6)
        q.try_enqueue(0, 500)
        q.try_enqueue(1, 4000)
        q.advance(2.0)
        assert q.length(0) == 0.0
        assert q.length(1) == pytest.approx(4000 - 500 - 1000)

    def test_priority_drains_high_first(self):
        policy = Policy.prioritized([0, 1])
        q = PhantomQueueSet(policy, 1000.0, [1e6, 1e6])
        q.try_enqueue(0, 1000)
        q.try_enqueue(1, 1000)
        q.advance(1.0)
        assert q.length(0) == 0.0
        assert q.length(1) == pytest.approx(1000.0)

    def test_time_cannot_go_backwards(self):
        q = make()
        q.advance(1.0)
        with pytest.raises(ValueError):
            q.advance(0.5)

    def test_idle_advance_is_cheap(self):
        q = make()
        q.advance(100.0)
        assert q.drain_recomputes == 0


class TestMagic:
    def test_fill_tops_queue(self):
        q = make(n=1, cap=10_000.0)
        q.try_enqueue(0, 2000)
        added = q.fill_with_magic(0)
        assert added == pytest.approx(8000.0)
        assert q.length(0) == pytest.approx(10_000.0)
        assert q.magic_bytes(0) == pytest.approx(8000.0)

    def test_fill_full_queue_adds_nothing(self):
        q = make(n=1, cap=3000.0)
        q.try_enqueue(0, 3000)
        assert q.fill_with_magic(0) == 0.0

    def test_reclaim_removes_magic_keeps_real(self):
        q = make(n=1, cap=10_000.0)
        q.try_enqueue(0, 2000)
        q.fill_with_magic(0)
        reclaimed = q.reclaim_magic(0)
        assert reclaimed == pytest.approx(8000.0)
        assert q.length(0) == pytest.approx(2000.0)
        assert q.magic_bytes(0) == 0.0

    def test_magic_clamps_as_queue_drains(self):
        # Footnote 5: draining can consume magic before it is reclaimed.
        q = make(n=1, rate=1000.0, cap=5000.0)
        q.try_enqueue(0, 1000)
        q.fill_with_magic(0)  # magic = 4000
        q.advance(2.0)  # drained 2000, length 3000 => magic clamps to 3000
        assert q.magic_bytes(0) == pytest.approx(3000.0)
        assert q.reclaim_magic(0) == pytest.approx(3000.0)
        assert q.length(0) == 0.0

    @pytest.mark.parametrize("service", PhantomQueueSet.SERVICES)
    def test_watermark_is_the_low_water_mark_on_every_engine(self, service):
        # The watermark is clamped when the length is next *read*, not as
        # the queue drains.  Nothing reads it between the drain to 1500
        # and the offer that stacks real bytes on top, so the offer's own
        # read has to clamp it - or the reclaim would take real bytes.
        q = PhantomQueueSet(Policy.fair(1), 1500.0, [6000.0], service=service)
        assert q.offer(0, 1500.0) >= 0.0
        assert q.fill_with_magic(0) == 4500.0
        q.advance(3.0)                        # 4500 drained, 1500 left
        assert q.offer(0, 3000.0) >= 0.0      # real bytes on top
        assert q.raw_magic(0) == 1500.0
        q.advance(4.0)                        # 1500 more drained
        assert q.reclaim_magic(0) == 1500.0
        assert q.length(0) == 1500.0
        assert q.magic_bytes(0) == 0.0

    def test_reclaim_without_magic_is_zero(self):
        q = make(n=1)
        q.try_enqueue(0, 500)
        assert q.reclaim_magic(0) == 0.0
        assert q.length(0) == 500


@pytest.mark.parametrize("service", PhantomQueueSet.SERVICES)
class TestEveryService:
    """The §3.2 service contract, checked on each drain engine
    ``service`` can select: every one computes the same GPS process."""

    def test_drains_at_configured_rate(self, service):
        q = PhantomQueueSet(Policy.fair(1), 1000.0, [1e6], service=service)
        q.try_enqueue(0, 5000)
        q.advance(2.0)
        assert q.length(0) == pytest.approx(3000.0)

    def test_no_service_accrues_while_idle(self, service):
        """A policer holds no tokens beyond the queues themselves: service
        budget must not pile up across idle periods."""
        q = PhantomQueueSet(Policy.fair(1), 1000.0, [1e6], service=service)
        q.advance(100.0)  # long idle
        q.try_enqueue(0, 5000)
        q.advance(100.5)
        assert q.length(0) == pytest.approx(4500.0)

    def test_fair_long_run_split(self, service):
        q = PhantomQueueSet(Policy.fair(2), 3000.0, [1e6] * 2,
                            service=service)
        q.try_enqueue(0, 60_000)
        q.try_enqueue(1, 60_000)
        q.advance(20.0)
        assert q.length(0) == pytest.approx(30_000.0)
        assert q.length(1) == pytest.approx(30_000.0)

    def test_weighted_split(self, service):
        q = PhantomQueueSet(Policy.weighted([3, 1]), 4000.0, [1e7] * 2,
                            service=service)
        q.try_enqueue(0, 1_000_000)
        q.try_enqueue(1, 1_000_000)
        q.advance(100.0)
        drained0 = 1_000_000 - q.length(0)
        drained1 = 1_000_000 - q.length(1)
        assert drained0 == pytest.approx(300_000.0)
        assert drained1 == pytest.approx(100_000.0)

    def test_priority_serves_high_first(self, service):
        q = PhantomQueueSet(Policy.prioritized([0, 1]), 1000.0, [1e6] * 2,
                            service=service)
        q.try_enqueue(0, 2000)
        q.try_enqueue(1, 2000)
        q.advance(2.0)
        assert q.length(0) == 0.0
        assert q.length(1) == pytest.approx(2000.0)

    def test_magic_clamps_as_queue_drains(self, service):
        q = PhantomQueueSet(Policy.fair(1), 1000.0, [5000.0], service=service)
        q.try_enqueue(0, 1000)
        q.fill_with_magic(0)  # magic = 4000
        q.advance(2.0)  # drained 2000, length 3000 => magic clamps to 3000
        assert q.magic_bytes(0) == pytest.approx(3000.0)

    def test_total_drain_is_rate_times_time(self, service):
        q = PhantomQueueSet(Policy.fair(3), 3000.0, [1e6] * 3,
                            service=service)
        for i in range(3):
            q.try_enqueue(i, 50_000)
        q.advance(10.0)
        assert q.drained_bytes == pytest.approx(30_000.0)
        assert q.total_length() == pytest.approx(120_000.0)

    @settings(deadline=None, max_examples=50)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),      # queue
                st.floats(min_value=1, max_value=5000),     # size
                st.floats(min_value=0, max_value=0.5),      # dt before op
            ),
            min_size=1, max_size=40,
        )
    )
    def test_bytes_conserved(self, service, ops):
        """enqueued == drained + still-queued, for any op sequence."""
        q = PhantomQueueSet(Policy.fair(3), 2000.0, [20_000.0] * 3,
                            service=service)
        now = 0.0
        enqueued = 0.0
        for queue, size, dt in ops:
            now += dt
            q.advance(now)
            if q.try_enqueue(queue, size):
                enqueued += size
        assert enqueued == pytest.approx(
            q.drained_bytes + q.total_length(), rel=1e-6, abs=1e-3
        )


class TestValidation:
    def test_capacity_count_checked(self):
        with pytest.raises(ValueError):
            PhantomQueueSet(Policy.fair(2), 100.0, [1.0])

    def test_positive_rate_required(self):
        with pytest.raises(ValueError):
            PhantomQueueSet(Policy.fair(1), 0.0, [1.0])

    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            PhantomQueueSet(Policy.fair(1), 1.0, [0.0])


class TestConservation:
    @settings(deadline=None, max_examples=50)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),      # queue
                st.floats(min_value=1, max_value=5000),     # size
                st.floats(min_value=0, max_value=0.5),      # dt before op
            ),
            min_size=1, max_size=40,
        )
    )
    def test_bytes_conserved(self, ops):
        """enqueued == drained + still-queued, for any op sequence."""
        q = PhantomQueueSet(Policy.fair(3), 2000.0, [20_000.0] * 3)
        now = 0.0
        enqueued = 0.0
        for queue, size, dt in ops:
            now += dt
            q.advance(now)
            if q.try_enqueue(queue, size):
                enqueued += size
        assert enqueued == pytest.approx(
            q.drained_bytes + q.total_length(), rel=1e-6, abs=1e-3
        )

    @settings(deadline=None, max_examples=50)
    @given(
        dts=st.lists(st.floats(min_value=0.001, max_value=1.0),
                     min_size=1, max_size=20)
    )
    def test_drain_rate_never_exceeds_service_rate(self, dts):
        q = PhantomQueueSet(Policy.fair(2), 1500.0, [1e9, 1e9])
        q.try_enqueue(0, 5e8)
        q.try_enqueue(1, 5e8)
        now = 0.0
        for dt in dts:
            before = q.drained_bytes
            now += dt
            q.advance(now)
            assert q.drained_bytes - before <= 1500.0 * dt * (1 + 1e-9)
