"""Tests for the multi-queue traffic shaper."""

import pytest

from repro.churn import PolicyUpdate
from repro.classify.classifier import SlotClassifier
from repro.limiters.shaper import Shaper
from repro.net.packet import FlowId, Packet
from repro.net.sink import CallbackSink, NullSink
from repro.policy.tree import Policy
from repro.sim.simulator import Simulator


def make(sim, *, rate=15_000.0, n=2, queue_bytes=15_000.0, policy=None,
         sink=None):
    shaper = Shaper(
        sim,
        rate=rate,
        policy=policy or Policy.fair(n),
        classifier=SlotClassifier(n),
        queue_bytes=queue_bytes,
    )
    shaper.connect(sink or NullSink())
    return shaper


def pkt(slot, seq=0, size=1500):
    return Packet.data(FlowId(0, slot), seq, 0.0, size=size)


class TestShaping:
    def test_releases_at_configured_rate(self):
        sim = Simulator()
        sink = NullSink()
        shaper = make(sim, rate=15_000.0, queue_bytes=1e6, sink=sink)
        for i in range(100):
            shaper.receive(pkt(0, i))
        sim.run(until=5.0)
        # 15 kB/s x 5 s = 75 kB = 50 packets
        assert sink.count == pytest.approx(50, abs=2)

    def test_buffers_do_not_drop_within_capacity(self):
        sim = Simulator()
        shaper = make(sim, queue_bytes=15_000.0)
        for i in range(10):
            shaper.receive(pkt(0, i))
        assert shaper.stats.dropped_packets == 0
        assert shaper.backlog_bytes() > 0

    def test_drop_tail_when_full(self):
        sim = Simulator()
        shaper = make(sim, queue_bytes=4500.0)
        for i in range(10):
            shaper.receive(pkt(0, i))
        # 1 in service + 3 buffered = 4; rest dropped.
        assert shaper.stats.dropped_packets == 6
        assert shaper.stats.per_queue_drops[0] == 6

    def test_fair_service_between_queues(self):
        sim = Simulator()
        served = {0: 0, 1: 0}

        class _Sink:
            def receive(self, p):
                served[p.flow.slot] += 1

        shaper = make(sim, queue_bytes=1e6, sink=_Sink())
        for i in range(100):
            shaper.receive(pkt(0, i))
            shaper.receive(pkt(1, i))
        sim.run(until=10.0)
        assert served[0] == pytest.approx(served[1], abs=2)
        assert served[0] + served[1] == pytest.approx(100, abs=2)

    def test_weighted_service(self):
        sim = Simulator()
        served = {0: 0, 1: 0}

        class _Sink:
            def receive(self, p):
                served[p.flow.slot] += 1

        shaper = make(sim, queue_bytes=1e6, sink=_Sink(),
                      policy=Policy.weighted([3, 1]))
        for i in range(200):
            shaper.receive(pkt(0, i))
            shaper.receive(pkt(1, i))
        sim.run(until=10.0)
        assert served[0] / served[1] == pytest.approx(3.0, rel=0.15)

    def test_priority_service(self):
        sim = Simulator()
        order = []

        class _Sink:
            def receive(self, p):
                order.append(p.flow.slot)

        shaper = make(sim, queue_bytes=1e6, sink=_Sink(),
                      policy=Policy.prioritized([0, 1]))
        for i in range(20):
            shaper.receive(pkt(1, i))
        for i in range(20):
            shaper.receive(pkt(0, i))
        sim.run(until=10.0)
        # After the first (already in service) packet, all high-priority
        # packets leave before the remaining low-priority ones.
        tail = order[1:21]
        assert all(slot == 0 for slot in tail)

    def test_work_conserving_when_one_queue_empty(self):
        sim = Simulator()
        sink = NullSink()
        shaper = make(sim, rate=15_000.0, queue_bytes=1e6, sink=sink)
        for i in range(40):
            shaper.receive(pkt(1, i))
        sim.run(until=2.0)
        assert sink.count == pytest.approx(20, abs=2)

    def test_cost_includes_store_fetch_timer(self):
        sim = Simulator()
        shaper = make(sim, queue_bytes=1e6)
        for i in range(20):
            shaper.receive(pkt(0, i))
        sim.run(until=5.0)
        snap = shaper.cost.snapshot()
        assert snap["pkt_store"] == 20
        assert snap["pkt_fetch"] == 20
        assert snap["timer"] == 20

    def test_classifier_policy_mismatch_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Shaper(sim, rate=1.0, policy=Policy.fair(2),
                   classifier=SlotClassifier(3), queue_bytes=1.0)

    def test_max_backlog_tracked(self):
        sim = Simulator()
        shaper = make(sim, queue_bytes=1e6)
        for i in range(10):
            shaper.receive(pkt(0, i))
        assert shaper.max_backlog_bytes >= 9 * 1500


def conserved(shaper):
    """Packet and byte books of a shaper, as the validator reads them."""
    stats = shaper.stats
    buffered = sum(len(q) for q in shaper._queues)
    in_service = 1 if shaper._busy else 0
    assert stats.arrived_packets == (
        stats.forwarded_packets + stats.dropped_packets + buffered + in_service
    )
    assert shaper.backlog_bytes() == sum(
        shaper.backlog_bytes(q) for q in range(shaper.num_queues)
    )
    assert shaper.backlog_bytes() == sum(
        p.size for q in shaper._queues for p in q
    )
    assert shaper._heads == [q[0].size if q else None for q in shaper._queues]


class TestRunningState:
    def test_policy_swap_and_capacity_shrink_keep_the_books_exact(self):
        sim = Simulator()
        sink = NullSink()
        shaper = make(sim, rate=15_000.0, n=4, queue_bytes=6000.0, sink=sink)
        for slot, count, size in ((0, 10, 300), (1, 10, 300), (2, 3, 1500),
                                  (3, 5, 300)):
            for i in range(count):
                shaper.receive(pkt(slot, i, size=size))
        assert shaper.stats.dropped_packets == 0
        # The first arrival went straight into service.
        assert shaper.max_backlog_bytes == shaper.backlog_bytes() == 11_700.0
        conserved(shaper)

        # Policy swap 4 -> 3 queues: queue 3 drops whole.
        shaper.apply_update(PolicyUpdate(policy=Policy.weighted([1, 2, 3])))
        assert shaper.stats.per_queue_drops == {3: 5}
        assert shaper.backlog_bytes() == 10_200.0
        conserved(shaper)

        # Capacity shrink below one 1500 B packet: queue 2 empties, queues
        # 0 and 1 keep four 300 B packets each.  The scheduler is *not*
        # rebuilt here, so it has to hear that queue 2 went idle.
        shaper.apply_update(PolicyUpdate(capacities=1200.0))
        assert shaper.backlog_bytes(2) == 0.0
        assert shaper.backlog_bytes() == 2400.0
        assert shaper.stats.per_queue_drops == {3: 5, 2: 3, 0: 5, 1: 6}
        assert shaper.max_backlog_bytes == 11_700.0
        conserved(shaper)

        # Service resumes over the survivors and drains them all.
        sim.run(until=5.0)
        assert sink.count == 1 + 8
        assert shaper.backlog_bytes() == 0.0 and not shaper._busy
        stats = shaper.stats
        assert stats.arrived_bytes == stats.forwarded_bytes + stats.dropped_bytes
        conserved(shaper)

        # ... and the emptied queue is served again when it refills.
        for i in range(3):  # one into service, one stored, one over 1200 B
            shaper.receive(pkt(2, 99 + i, size=900))
        sim.run(until=10.0)
        assert sink.count == 11 and shaper.stats.per_queue_drops[2] == 4
        conserved(shaper)

    def test_overflow_trim_and_removed_queue_drop_the_tail(self):
        # Arrival overflow, churn tail-trims and removed-queue drops each
        # take the newest packets of a queue; what was stored ahead of
        # them is still forwarded, unchanged.
        sim = Simulator()
        served: list[Packet] = []
        shaper = make(sim, rate=15_000.0, n=2, queue_bytes=3000.0,
                      sink=CallbackSink(served.append))
        packets = [pkt(slot, i) for slot in (0, 1) for i in range(4)]
        for packet in packets:
            shaper.receive(packet)
        # Queue 0: one in service, two stored, one overflowed; queue 1:
        # two stored, two overflowed.
        assert shaper.stats.per_queue_drops == {0: 1, 1: 2}
        shaper.apply_update(PolicyUpdate(capacities=1500.0))
        assert shaper.stats.per_queue_drops == {0: 2, 1: 3}
        shaper.apply_update(
            PolicyUpdate(policy=Policy.fair(1), capacities=1500.0)
        )
        assert shaper.stats.dropped_packets == 6  # queue 1 removed, one left
        sim.run()
        assert [id(p) for p in served] == [id(packets[0]), id(packets[1])]
