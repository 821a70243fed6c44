"""Tests for the discrete-event simulator core."""

from contextlib import nullcontext

import pytest
from hypothesis import given, strategies as st

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

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 7


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
            sim.schedule(bad, lambda: None)

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
        assert sim.pending == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_run_rejects_non_finite_until(self, bad):
        # `next_time > nan` is always false, so a NaN horizon used to spin
        # for as long as any event chain sustained itself.  The heap here
        # drains, so without the guard this fails instead of hanging.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x")
        with pytest.raises(SimulationError) as exc:
            sim.run(until=bad)
        assert repr(bad) in str(exc.value)
        assert fired == [] and sim.now == 0.0
        sim.run()  # the refused call left the simulator usable
        assert fired == ["x"]


class TestPendingAccounting:
    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.run(until=1.5)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert sim.cancelled_backlog_hwm == 0


class TestFireAndForget:
    # Every event is fire-and-forget now; the test names predate that and
    # are kept so ids stay comparable across commits.
    def test_call_after_fires(self):
        sim = Simulator()
        fired = []
        assert sim.schedule(1.0, fired.append, "x") is None
        assert sim.schedule_at(1.0, fired.append, "y") is None
        sim.run()
        assert fired == ["x", "y"]

    def test_call_at_fires(self):
        sim = Simulator(start_time=2.0)
        fired = []
        sim.call_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_call_at_is_schedule_at(self):
        # One absolute entry point; the second name is only an alias the
        # frozen benchmark suite still calls.
        assert Simulator.call_at is Simulator.schedule_at

    def test_mixed_tiers_preserve_insertion_order_at_ties(self):
        # Every entry point draws from the one seq counter, so a tie
        # fires in the order the seqs were taken, not the pushes made.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        reserved = sim.reserve_seq()
        sim.schedule_at(1.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "d")
        sim.call_at_reserved(1.0, reserved, fired.append, "b")
        sim.call_at(1.0, fired.append, "e")
        sim.run()
        assert fired == ["a", "b", "c", "d", "e"]


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


class TestLanes:
    def test_lanes_drain_in_creation_order_each_in_time_order(self):
        sim = Simulator()
        fired = []

        def note(tag):
            fired.append((tag, sim.lane, sim.now))

        sim.schedule(2.0, note, "a2")
        sim.schedule(1.0, note, "a1")
        sim.new_lane()
        sim.schedule(0.5, note, "b")
        assert (sim.lane, sim.pending) == (1, 3)
        assert [len(lane) for lane in sim.lanes] == [2, 1]
        sim.run()
        assert fired == [("a1", 0, 1.0), ("a2", 0, 2.0), ("b", 1, 0.5)]
        # Drained with no bound: the clock reads the latest event fired.
        assert sim.now == 2.0
        assert (sim.pending, sim.peak_heap_size) == (0, 2)

    def test_an_event_schedules_into_its_own_lane(self):
        sim = Simulator()
        fired = []

        def chain(tag, left):
            fired.append((tag, sim.lane, sim.now))
            if left:
                sim.schedule(1.0, chain, tag, left - 1)

        sim.schedule(0.0, chain, "a", 2)
        sim.new_lane()
        sim.schedule(0.5, chain, "b", 1)
        sim.run(until=1.0)
        assert fired == [("a", 0, 0.0), ("a", 0, 1.0), ("b", 1, 0.5)]
        assert sim.now == 1.0
        assert [len(lane) for lane in sim.lanes] == [1, 1]
        # Between runs the builder is back in the last lane it opened.
        assert sim.lane == 1
        sim.run(until=2.0)
        assert fired[3:] == [("a", 0, 2.0), ("b", 1, 1.5)]
        assert sim.now == 2.0 and sim.events_processed == 5

    def test_an_empty_current_lane_is_reused(self):
        sim = Simulator()
        sim.new_lane()
        sim.new_lane()
        assert (sim.lane, len(sim.lanes)) == (0, 1)
        sim.schedule(1.0, lambda: None)
        sim.new_lane()
        sim.new_lane()
        assert (sim.lane, len(sim.lanes)) == (1, 2)

    def test_new_lane_from_inside_an_event_is_an_error(self):
        sim = Simulator()
        sim.schedule(1.0, sim.new_lane)
        with pytest.raises(SimulationError, match="new_lane"):
            sim.run()
        assert len(sim.lanes) == 1

    def test_max_events_needs_a_single_non_empty_lane(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.new_lane()
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(3.0, fired.append, "c")
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=1)
        assert fired == [] and sim.now == 0.0
        sim.run(until=1.0)
        # One non-empty lane left: the single-lane semantics, unchanged.
        sim.run(until=10.0, max_events=1)
        assert fired == ["a", "b"] and sim.now == 2.0
        assert sim.lane == 1
        sim.run(max_events=1)
        assert fired == ["a", "b", "c"]


class TestEventsProcessedIsDerived:
    """The run loop counts nothing per event: ``events_processed`` is
    ``heap_pushes - pending``, which holds because every pushed event
    fires, however a run stops."""

    @staticmethod
    def _three_lanes():
        sim = Simulator()
        fired = []

        def chain(tag, left):
            fired.append(tag)
            if tag == "boom":
                raise RuntimeError("boom")
            if left:
                sim.schedule(0.5, chain, tag, left - 1)

        sim.schedule(0.0, chain, "a", 3)
        sim.new_lane()
        sim.schedule(0.2, chain, "b", 1)
        sim.schedule(0.7, chain, "boom", 0)
        sim.new_lane()
        sim.schedule(0.1, chain, "c", 6)
        return sim, fired

    @staticmethod
    def _agrees(sim, fired):
        assert sim.events_processed == len(fired)
        assert sim.events_processed == sim.heap_pushes - sim.pending

    def test_one_shot_and_sliced_runs(self):
        sim, fired = self._three_lanes()
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        self._agrees(sim, fired)
        sim.run()
        self._agrees(sim, fired)
        assert sim.pending == 0 and len(fired) == 4 + 3 + 7

        sliced, sliced_fired = self._three_lanes()
        for until in (0.1, 0.5, 0.65, 0.7):
            # The slice ending at 0.7 reaches "boom".
            raises = pytest.raises(RuntimeError) if until == 0.7 else nullcontext()
            with raises:
                sliced.run(until=until)
            self._agrees(sliced, sliced_fired)
        sliced.run(until=10.0)
        self._agrees(sliced, sliced_fired)
        assert sorted(sliced_fired) == sorted(fired)

    def test_max_events_stop(self):
        sim, fired = self._three_lanes()
        with pytest.raises(RuntimeError):
            sim.run(until=1.0)
        self._agrees(sim, fired)
        sim.run(until=2.0)
        # Lanes 0 and 1 drained; "c" has three events left.
        assert [len(lane) for lane in sim.lanes] == [0, 0, 1]
        for budget in (0, 1, 2):
            before = len(fired)
            sim.run(max_events=budget)
            assert len(fired) == before + budget
            self._agrees(sim, fired)
        assert sim.pending == 0


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
