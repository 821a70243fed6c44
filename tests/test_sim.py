"""Tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import EventHandle
from repro.sim.rng import RngFactory
from repro.sim.simulator import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "latest")
        sim.run()
        assert fired == ["early", "late", "latest"]

    def test_same_time_events_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=5.0)
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, fired.append, "chained"))
        sim.run()
        assert fired == ["chained"]
        assert sim.now == 2.0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(5.0, fired.append, "out")
        sim.run(until=2.0)
        assert fired == ["in"]
        assert sim.now == 2.0  # clock advanced to the until mark

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(3.0, fired.append, 3)
        sim.run(until=2.0)
        sim.run()
        assert fired == [1, 3]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_max_events_stop_does_not_advance_clock_to_until(self):
        # Pinned semantics: a run stopped by its max_events budget leaves
        # the clock at the last fired event even when `until` was given,
        # so the caller can resume exactly where it left off.
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(until=10.0, max_events=2)
        assert fired == [0, 1]
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == 10.0

    def test_max_events_zero_never_touches_clock(self):
        # The budget is checked before the heap: nothing fires and the
        # clock does not move, even with `until` set.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.run(until=5.0, max_events=0)
        assert fired == []
        assert sim.now == 0.0

    def test_until_stop_advances_clock_exactly_to_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.5)
        assert sim.now == 2.5

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert sim.events_processed == 0

    def test_cancel_via_simulator_none_safe(self):
        sim = Simulator()
        sim.cancel(None)  # no-op

    def test_double_cancel_is_safe(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_cancelled_event_releases_callback(self):
        sim = Simulator()
        handle = sim.schedule(1.0, print, "payload")
        handle.cancel()
        assert handle.args == ()


class TestNonFiniteRejection:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
    def test_schedule_rejects_bad_delay(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError) as exc:
            sim.schedule(bad, lambda: None)
        assert repr(bad) in str(exc.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_schedule_at_rejects_bad_time(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError) as exc:
            sim.schedule_at(bad, lambda: None)
        assert repr(bad) in str(exc.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_call_after_rejects_bad_delay(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_after(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_call_at_rejects_bad_time(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_at(bad, lambda: None)

    def test_nan_does_not_slip_past_negative_guard(self):
        # NaN fails every comparison, so a plain `delay < 0` guard lets
        # it through and poisons the heap; the chained guard rejects it.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.heap_size == 0


class TestPendingAccounting:
    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        doomed = sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        doomed.cancel()
        assert sim.pending == 1
        assert sim.cancelled_backlog == 1
        assert sim.heap_size == sim.pending + sim.cancelled_backlog
        assert keep.active
        sim.run()
        assert sim.pending == 0
        assert sim.cancelled_backlog == 0

    def test_cancelled_backlog_hwm(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i, lambda: None) for i in range(5)]
        for h in handles[:3]:
            h.cancel()
        assert sim.cancelled_backlog_hwm == 3
        sim.run()
        # HWM is sticky; the live backlog has drained.
        assert sim.cancelled_backlog_hwm == 3
        assert sim.cancelled_backlog == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.cancelled_backlog == 1
        assert sim.pending == 0

    def test_late_cancel_of_fired_handle_is_inert(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # already fired: counters must not move
        assert sim.pending == 0
        assert sim.cancelled_backlog == 0

    def test_peek_time_drains_backlog_counter(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0
        assert sim.cancelled_backlog == 0
        assert sim.heap_size == 1


class TestFireAndForget:
    def test_call_after_fires(self):
        sim = Simulator()
        fired = []
        assert sim.call_after(1.0, fired.append, "x") is None
        sim.run()
        assert fired == ["x"]

    def test_call_at_fires(self):
        sim = Simulator(start_time=2.0)
        fired = []
        sim.call_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_mixed_tiers_preserve_insertion_order_at_ties(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.call_after(1.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "c")
        sim.call_at(1.0, fired.append, "d")
        sim.run()
        assert fired == ["a", "b", "c", "d"]

    def test_handles_recycled_through_pool(self):
        sim = Simulator()
        for _ in range(10):
            sim.call_after(1.0, lambda: None)
        sim.run()
        assert sim.handle_pool_size == 10
        # A fresh burst reuses the pooled handles instead of growing it.
        for _ in range(10):
            sim.call_after(1.0, lambda: None)
        assert sim.handle_pool_size == 0
        sim.run()
        assert sim.handle_pool_size == 10

    def test_recycled_handle_bumps_generation(self):
        sim = Simulator()
        sim.call_after(1.0, lambda: None)
        sim.run()
        [handle] = sim._handle_pool
        gen = handle.generation
        sim.call_after(1.0, lambda: None)
        assert handle.generation == gen + 1
        sim.run()

    def test_pooled_handle_never_resurrects_consumed_callback(self):
        # After firing, a pooled handle's callback is cleared; reissue
        # must install the new callback, never replay the consumed one.
        sim = Simulator()
        fired = []
        sim.call_after(1.0, fired.append, "first")
        sim.run()
        sim.call_after(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]


class TestReservedSequences:
    def test_reserve_seq_is_monotone(self):
        sim = Simulator()
        a, b = sim.reserve_seq(), sim.reserve_seq()
        assert b == a + 1

    def test_call_at_reserved_orders_by_reservation_point(self):
        # A packet that reserved its seq before another event was
        # scheduled must fire before it at the same instant, even though
        # the heap push happens later — the coalescing guarantee.
        sim = Simulator()
        fired = []
        early_seq = sim.reserve_seq()
        sim.schedule(1.0, fired.append, "scheduled-later")
        sim.call_at_reserved(1.0, early_seq, fired.append, "reserved-earlier")
        sim.run()
        assert fired == ["reserved-earlier", "scheduled-later"]

    def test_reserved_seq_counts_as_live_when_armed(self):
        sim = Simulator()
        seq = sim.reserve_seq()
        assert sim.pending == 0  # reservation alone schedules nothing
        sim.call_at_reserved(2.0, seq, lambda: None)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0


class TestEventHandleOrdering:
    def test_ordering_by_time_then_seq(self):
        a = EventHandle(1.0, 0, lambda: None, ())
        b = EventHandle(1.0, 1, lambda: None, ())
        c = EventHandle(0.5, 2, lambda: None, ())
        assert c < a < b


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


class TestRngFactory:
    def test_same_stream_reproducible(self):
        a = RngFactory(42).stream("flows", 1)
        b = RngFactory(42).stream("flows", 1)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_differ(self):
        f = RngFactory(42)
        assert f.stream("a").random() != f.stream("b").random()

    def test_different_seeds_differ(self):
        assert RngFactory(1).stream("x").random() != RngFactory(2).stream("x").random()

    def test_derive_namespaces(self):
        f = RngFactory(7)
        child = f.derive("agg", 3)
        assert child.stream("flows").random() != f.stream("flows").random()

    def test_seed_property(self):
        assert RngFactory(9).seed == 9
