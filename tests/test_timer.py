"""Tests for the soft-reschedule :class:`repro.sim.Timer`.

The timer's contract has two halves: the usual one-shot semantics
(fires at the deadline, cancellable, reschedulable) and the ordering
guarantee that makes the engine overhaul byte-identical — the callback
executes at exactly the heap position ``(deadline, seq)`` that the
*latest* reschedule reserved, so same-instant ties interleave with other
events precisely as the old cancel+push engine did.
"""

import pytest
from hypothesis import given, strategies as st

from repro.sim import SimulationError, Simulator, Timer


class TestBasicSemantics:
    def test_fires_at_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule_after(1.5)
        assert timer.active
        assert timer.deadline == 1.5
        sim.run()
        assert fired == [1.5]
        assert not timer.active

    def test_schedule_at_absolute(self):
        sim = Simulator(start_time=3.0)
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule_at(4.0)
        sim.run()
        assert fired == [4.0]

    def test_cancel_prevents_fire(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule_after(1.0)
        timer.cancel()
        assert not timer.active
        sim.run()
        assert fired == []

    def test_cancel_inactive_is_noop(self):
        sim = Simulator()
        Timer(sim, lambda: None).cancel()

    def test_callback_may_reschedule(self):
        sim = Simulator()
        fired = []

        def tick() -> None:
            fired.append(sim.now)
            if len(fired) < 3:
                timer.schedule_after(1.0)

        timer = Timer(sim, tick)
        timer.schedule_after(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_rejects_bad_delay(self, bad):
        timer = Timer(Simulator(), lambda: None)
        with pytest.raises(SimulationError):
            timer.schedule_after(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_time(self, bad):
        timer = Timer(Simulator(), lambda: None)
        with pytest.raises(SimulationError):
            timer.schedule_at(bad)


class TestSoftReschedule:
    def test_reschedule_later_never_fires_stale(self):
        # The per-ACK pattern: push the deadline out on every tick.  The
        # timer must fire exactly once, at the final deadline.
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule_after(1.0)
        for i in range(20):
            sim.schedule(0.04 * (i + 1), timer.schedule_after, 1.0)
        sim.run()
        assert fired == [0.8 + 1.0]

    def test_reschedule_later_is_heap_free(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.schedule_after(1.0)
        pushes = sim.heap_pushes
        for _ in range(100):
            timer.schedule_after(1.0)  # deadline moves, heap untouched
        assert sim.heap_pushes == pushes
        sim.run()

    def test_reschedule_earlier_fires_at_new_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule_after(5.0)
        timer.schedule_after(1.0)
        sim.run()
        assert fired == [1.0]

    def test_cancel_then_reschedule_reuses_stale_wake(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule_after(1.0)
        timer.cancel()
        timer.schedule_after(2.0)  # old wake re-arms lazily at t=1
        sim.run()
        assert fired == [2.0]

    def test_stale_wake_discarded_after_cancel(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule_after(1.0)
        timer.schedule_after(3.0)
        timer.cancel()
        sim.run()
        assert fired == []


class TestTieOrdering:
    def test_same_instant_insertion_order_with_events(self):
        # A timer scheduled between two plain events at the same instant
        # fires between them — the old cancel+push engine's order.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "before")
        timer = Timer(sim, lambda: fired.append("timer"))
        timer.schedule_at(1.0)
        sim.schedule(1.0, fired.append, "after")
        sim.run()
        assert fired == ["before", "timer", "after"]

    def test_reschedule_moves_timer_to_back_of_tie(self):
        # Rescheduling to the *same* deadline must re-seat the timer at
        # the reschedule point: an event scheduled in between now fires
        # first.  This is the tie the RTO/TLP constant-PTO clamp hits.
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append("timer"))
        timer.schedule_at(1.0)
        sim.schedule(1.0, fired.append, "event")

        def resched() -> None:
            timer.schedule_at(1.0)  # same deadline, later seq

        sim.schedule(0.5, resched)
        sim.run()
        assert fired == ["event", "timer"]

    def test_two_timers_tie_in_latest_reschedule_order(self):
        sim = Simulator()
        fired = []
        a = Timer(sim, lambda: fired.append("a"))
        b = Timer(sim, lambda: fired.append("b"))
        a.schedule_at(1.0)
        b.schedule_at(1.0)

        def resched_a() -> None:
            a.schedule_at(1.0)  # a now reserved *after* b

        sim.schedule(0.5, resched_a)
        sim.run()
        assert fired == ["b", "a"]

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 9)),
            min_size=1,
            max_size=30,
        )
    )
    def test_timer_order_matches_cancel_push_reference(self, ops):
        """Property: N timers driven by an arbitrary reschedule script
        fire in exactly the order a cancel+push implementation would."""

        def drive(schedule_timer, cancel_timer, sim, fired):
            # Replay the script at t in {1, 2, ...}; every op targets a
            # shared deadline instant t=100 so everything ties there.
            for step, (tid, action) in enumerate(ops):
                if action == 0:
                    sim.schedule(float(step + 1), cancel_timer, tid)
                else:
                    sim.schedule(float(step + 1), schedule_timer, tid)
            sim.run()
            return fired

        # Reference: plain cancel+push.  A heap event cannot be cancelled,
        # so each push carries a token and fires only while it is still
        # its timer's live one — one seq per push, exactly what a
        # cancellable handle per push consumed.
        ref_sim = Simulator()
        ref_fired = []
        live = {}

        def ref_fire(tid, token):
            if live.get(tid) is token:
                ref_fired.append(tid)

        def ref_schedule(tid):
            live[tid] = token = object()
            ref_sim.schedule_at(100.0, ref_fire, tid, token)

        def ref_cancel(tid):
            live.pop(tid, None)

        drive(ref_schedule, ref_cancel, ref_sim, ref_fired)

        # Subject: soft-reschedule timers.
        sim = Simulator()
        fired = []
        timers = {
            tid: Timer(sim, (lambda t: lambda: fired.append(t))(tid))
            for tid in range(4)
        }
        drive(
            lambda tid: timers[tid].schedule_at(100.0),
            lambda tid: timers[tid].cancel(),
            sim,
            fired,
        )
        assert fired == ref_fired
