"""Tests for metrics: fairness, stats, series, throughput extraction."""

import math
import statistics

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.metrics.fairness import jain_index, weighted_jain_index
from repro.metrics.recorder import Recorder
from repro.metrics.series import TimeSeries
from repro.metrics.stats import cdf_points, mean, percentile, summarize
from repro.metrics.throughput import (
    aggregate_throughput_series,
    binned_bytes,
    burst_factor,
    flow_bytes,
    per_flow_throughput_series,
    per_slot_throughput_series,
)
from repro.net.packet import FlowId, Packet
from repro.net.sink import NullSink
from repro.net.trace import PacketRecord, Trace
from repro.sim.simulator import Simulator


class TestJain:
    def test_perfect_fairness(self):
        assert jain_index([5, 5, 5]) == pytest.approx(1.0)

    def test_total_unfairness(self):
        assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=50))
    def test_bounds(self, values):
        idx = jain_index(values)
        assert 0.0 <= idx <= 1.0 + 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1,
                    max_size=20),
           st.floats(min_value=0.1, max_value=100))
    def test_scale_invariance(self, values, k):
        assert jain_index(values) == pytest.approx(
            jain_index([v * k for v in values]), rel=1e-6)

    def test_weighted_perfect(self):
        assert weighted_jain_index([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_weighted_detects_violation(self):
        # Equal throughput with weights 1:3 is unfair in weighted terms.
        assert weighted_jain_index([2, 2], [1, 3]) < 0.9

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            weighted_jain_index([1], [1, 2])
        with pytest.raises(ValueError):
            weighted_jain_index([1], [0])


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_mean_empty_is_nan(self):
        # A mean of nothing is not 0.0 — an empty sample must poison
        # downstream arithmetic, not silently read as "zero throughput".
        assert math.isnan(mean([]))

    def test_percentile_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        assert percentile([1, 2, 3, 4], 0) == 1
        assert percentile([1, 2, 3, 4], 100) == 4

    def test_percentile_single(self):
        assert percentile([7], 99) == 7

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=100),
           st.floats(min_value=0, max_value=100))
    def test_percentile_within_range(self, values, p):
        result = percentile(values, p)
        assert min(values) <= result <= max(values)

    def test_cdf_points(self):
        assert cdf_points([3, 1]) == [(1, 0.5), (3, 1.0)]

    def test_summarize(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s["mean"] == 3.0
        assert s["max"] == 5.0

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=60),
           st.floats(min_value=0, max_value=100),
           st.floats(min_value=0, max_value=100))
    def test_percentile_monotone_in_p(self, values, p1, p2):
        lo, hi = sorted((p1, p2))
        span = max(abs(v) for v in values) + 1.0
        assert percentile(values, lo) <= percentile(values, hi) + 1e-9 * span

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                    max_size=60),
           st.integers(min_value=1, max_value=99))
    def test_percentile_matches_statistics_quantiles(self, values, p):
        expected = statistics.quantiles(values, n=100, method="inclusive")
        span = max(abs(v) for v in values) + 1.0
        assert percentile(values, p) == pytest.approx(
            expected[p - 1], abs=1e-9 * span)


class TestTimeSeries:
    def test_append_and_iterate(self):
        ts = TimeSeries()
        ts.append(0.0, 1.0)
        ts.append(1.0, 2.0)
        assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(ts) == 2

    def test_monotonic_times_enforced(self):
        ts = TimeSeries()
        ts.append(1.0, 1.0)
        with pytest.raises(ValueError):
            ts.append(0.5, 1.0)

    def test_window_and_aggregates(self):
        ts = TimeSeries()
        for i in range(10):
            ts.append(float(i), float(i))
        w = ts.window(2.0, 5.0)
        assert w.times == [2.0, 3.0, 4.0]
        assert ts.max() == 9.0
        assert ts.mean() == 4.5

    def test_empty_aggregates(self):
        ts = TimeSeries()
        assert ts.max() == 0.0
        assert ts.mean() == 0.0


def rec(t, slot=0, size=1500, incarnation=0):
    return PacketRecord(time=t, flow=FlowId(0, slot, incarnation),
                        size=size, seq=0)


class TestThroughputExtraction:
    def test_aggregate_series(self):
        records = [rec(0.1), rec(0.2), rec(1.1)]
        series = aggregate_throughput_series(records, window=1.0,
                                             start=0.0, end=2.0)
        assert series.values == [3000.0, 1500.0]

    def test_zero_windows_present(self):
        records = [rec(0.1)]
        series = aggregate_throughput_series(records, window=1.0,
                                             start=0.0, end=3.0)
        assert series.values == [1500.0, 0.0, 0.0]

    def test_per_flow_split(self):
        records = [rec(0.1, slot=0), rec(0.2, slot=1), rec(0.3, slot=1)]
        by_flow = per_flow_throughput_series(records, window=1.0,
                                             start=0.0, end=1.0)
        assert by_flow[FlowId(0, 0)].values == [1500.0]
        assert by_flow[FlowId(0, 1)].values == [3000.0]

    def test_per_slot_merges_incarnations(self):
        records = [rec(0.1, slot=0, incarnation=0),
                   rec(0.2, slot=0, incarnation=1)]
        by_slot = per_slot_throughput_series(records, window=1.0,
                                             start=0.0, end=1.0)
        assert by_slot[0].values == [3000.0]

    def test_records_outside_interval_ignored(self):
        records = [rec(5.0)]
        series = aggregate_throughput_series(records, window=1.0,
                                             start=0.0, end=2.0)
        assert sum(series.values) == 0.0

    def test_flow_bytes(self):
        records = [rec(0.1, slot=0), rec(0.2, slot=0), rec(0.3, slot=1)]
        totals = flow_bytes(records)
        assert totals[FlowId(0, 0)] == 3000
        assert totals[FlowId(0, 1)] == 1500

    def test_burst_factor(self):
        ts = TimeSeries()
        for i in range(99):
            ts.append(float(i), 100.0)
        ts.append(99.0, 500.0)
        assert burst_factor(ts, rate=100.0, p=50) == pytest.approx(1.0)
        assert burst_factor(ts, rate=100.0, p=100) == pytest.approx(5.0)

    def test_burst_factor_validation(self):
        with pytest.raises(ValueError):
            burst_factor(TimeSeries(), rate=0.0)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            aggregate_throughput_series([], window=1.0, start=2.0, end=1.0)
        with pytest.raises(ValueError):
            aggregate_throughput_series([], window=0.0, start=0.0, end=1.0)


class TestBinBoundaryClamp:
    """Regression: a timestamp one ULP below the binning limit can still
    divide to index ``nbins`` after FP rounding (e.g. window 0.1 over
    [0, 0.9): nextafter(0.9, 0) * (1/0.1) == 9.0).  The binners must
    clamp it into the last bin instead of raising IndexError."""

    WINDOW = 0.1
    END = 0.9
    T = math.nextafter(0.9, 0.0)

    def test_timestamp_is_adversarial(self):
        # The premise of the regression: in range, but dividing to nbins.
        assert self.T < self.END
        assert int(self.T * (1.0 / self.WINDOW)) == 9

    def test_generic_fallback_clamps_into_last_bin(self):
        series = aggregate_throughput_series(
            [rec(self.T)], window=self.WINDOW, start=0.0, end=self.END)
        assert len(series.values) == 9
        assert series.values[-1] == pytest.approx(1500 / self.WINDOW)
        assert sum(series.values[:-1]) == 0.0

    def test_column_fast_path_clamps_into_last_bin(self):
        trace = Trace(Simulator())
        trace.times.append(self.T)
        trace.flow_ids.append(FlowId(0, 0))
        trace.sizes.append(1500)
        trace.seqs.append(0)
        agg = aggregate_throughput_series(
            trace, window=self.WINDOW, start=0.0, end=self.END)
        assert agg.values[-1] == pytest.approx(1500 / self.WINDOW)
        by_flow = per_flow_throughput_series(
            trace, window=self.WINDOW, start=0.0, end=self.END)
        assert by_flow[FlowId(0, 0)].values[-1] == pytest.approx(
            1500 / self.WINDOW)
        by_slot = per_slot_throughput_series(
            trace, window=self.WINDOW, start=0.0, end=self.END)
        assert by_slot[0].values[-1] == pytest.approx(1500 / self.WINDOW)

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=1e-3, max_value=2.0))
    def test_in_range_timestamps_never_raise(self, t, window):
        end = 10.0 + window  # at least one full bin
        # The record lands in exactly one bin — never an IndexError, and
        # (since the partial-window fold) never silently excluded either.
        assert sum(binned_bytes(
            [rec(t)], window=window, start=0.0, end=end)) == 1500


class TestAwkwardExtents:
    """Regression: ``nbins = int((end - start) / window)`` FP-truncated.

    0.7 / 0.1 computes to 6.999...9, so an extent that is exactly seven
    windows silently produced six bins; and a genuinely fractional extent
    (e.g. 0.6 / 0.25) silently excluded every record in the trailing
    partial window."""

    def test_whole_multiple_rounds_up(self):
        # 0.7/0.1 is one ULP below 7.0 — must yield 7 bins, not 6.
        series = aggregate_throughput_series(
            [], window=0.1, start=0.0, end=0.7)
        assert len(series.values) == 7
        assert series.times[-1] == pytest.approx(0.6)

    @pytest.mark.parametrize("window,start,end,expected", [
        (0.1, 0.0, 0.7, 7),
        (0.1, 0.0, 0.9, 9),
        (0.25, 0.5, 2.0, 6),      # fig extents: exact multiples stay exact
        (0.1, 0.3, 1.0, 7),       # (1.0-0.3)/0.1 again one ULP below 7
        (0.25, 0.0, 0.6, 3),      # genuinely fractional: 2 whole + partial
        (0.3, 0.0, 1.0, 4),       # 3 whole + a 0.1-wide partial
    ])
    def test_bin_counts(self, window, start, end, expected):
        series = aggregate_throughput_series(
            [], window=window, start=start, end=end)
        assert len(series.values) == expected

    def test_partial_window_records_counted(self):
        # Records in [start + whole*window, end) used to vanish.
        series = aggregate_throughput_series(
            [rec(0.55)], window=0.25, start=0.0, end=0.6)
        assert len(series.values) == 3
        # The partial bin covers [0.5, 0.6): its rate divides by the true
        # 0.1 s width, not the nominal 0.25 s window.
        assert series.values[-1] == pytest.approx(1500 / 0.1)
        assert sum(binned_bytes(
            [rec(0.55)], window=0.25, start=0.0, end=0.6)) == 1500

    def test_partial_window_rate_uses_true_width(self):
        # A full-rate sender in the partial bin reads as its actual rate.
        records = [rec(0.5 + 0.01 * i, size=100) for i in range(10)]
        series = aggregate_throughput_series(
            records, window=0.25, start=0.0, end=0.6)
        assert series.values[-1] == pytest.approx(1000 / 0.1)

    @given(st.lists(st.tuples(
               st.floats(min_value=0.0, max_value=1.0),
               st.integers(min_value=1, max_value=9000)),
               max_size=40),
           st.floats(min_value=1e-3, max_value=0.5),
           st.floats(min_value=0.0, max_value=0.3),
           st.floats(min_value=0.31, max_value=1.5))
    def test_binned_bytes_conserved(self, packets, window, start, end):
        assume(end - start >= window)
        records = [rec(t, size=size) for t, size in packets]
        in_range = sum(size for t, size in packets if start <= t < end)
        acc = binned_bytes(records, window=window, start=start, end=end)
        # Integer packet sizes accumulate exactly in floats: conservation
        # is exact, for every window/extent combination.
        assert sum(acc) == in_range


#: (window, warmup, horizon) cases that have bitten before: 0.7/0.1 one
#: ULP below 7, a trailing partial window, a warm-up that is not a
#: multiple of the window, and the paper's own layout.
_AWKWARD_INTERVALS = [
    (0.1, 0.0, 0.7), (0.1, 0.3, 1.0), (0.25, 0.0, 0.6), (0.3, 0.0, 1.0),
    (0.25, 0.5, 2.0), (0.1, 0.0, 0.9),
]


def _nudged(t: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.inf if ulps > 0 else -math.inf)
    return max(t, 0.0)


@st.composite
def _interval_and_stream(draw):
    window, warmup, horizon = draw(
        st.sampled_from(_AWKWARD_INTERVALS)
        | st.tuples(st.floats(min_value=1e-3, max_value=0.5),
                    st.floats(min_value=0.0, max_value=0.3),
                    st.floats(min_value=0.31, max_value=1.5)))
    assume(horizon - warmup >= window)
    instant = (
        # The edges of the interval, and one ULP inside each of them.
        st.sampled_from([warmup, math.nextafter(warmup, math.inf),
                         math.nextafter(horizon, 0.0), horizon])
        # Mid-bin, and within a few ULPs or a millionth of a window of a
        # bin edge: where a recorder that remembers its last bin can go
        # stale.
        | st.builds(
            lambda k, ulps, frac: _nudged(
                warmup + (k + frac) * window, ulps),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=-3, max_value=3),
            st.sampled_from([0.0, 0.0, 1e-7, -1e-7, -2e-6, 0.5, 0.5]))
        | st.floats(min_value=0.0, max_value=horizon + 0.1))
    packet = st.tuples(
        st.integers(min_value=0, max_value=3),       # slot
        st.integers(min_value=0, max_value=5),       # seq: duplicates happen
        st.integers(min_value=1, max_value=9000),    # size
        st.sampled_from([False, False, False, True]))  # corrupt
    # One list per instant: what a limiter forwards at one instant.
    stream = draw(st.lists(
        st.tuples(instant, st.lists(packet, min_size=1, max_size=4)),
        max_size=30))
    # Unsorted: the recorder is held to any call order, not only a
    # simulator's non-decreasing clock.
    return window, warmup, horizon, stream


class TestOnlineEqualsPostHoc:
    """The recorder bins as packets arrive; logging them in a ``Trace``
    and binning afterwards must give the same series, float for float."""

    @settings(max_examples=300)
    @given(_interval_and_stream())
    def test_recorder_series_equal_trace_series(self, drawn):
        window, warmup, horizon, stream = drawn
        sim = Simulator()
        recorder = Recorder(sim, NullSink(), lo=7, slot_counts=[4],
                            window=window, warmup=warmup, horizon=horizon)
        trace = Trace(sim, recorder)
        for t, batch in stream:
            sim._now = t
            for slot, seq, size, corrupt in batch:
                packet = Packet.data(FlowId(7, slot), seq, t, size=size)
                packet.corrupt = corrupt
                trace.receive(packet)
        interval = dict(window=window, start=warmup, end=horizon)
        assert recorder.aggregate_series() == aggregate_throughput_series(
            trace, **interval)
        online = recorder.slot_series()
        posthoc = per_slot_throughput_series(trace, **interval)
        assert online == posthoc
        # Jain's index sums the slot dict in its own order.
        assert list(online) == list(posthoc)
        assert list(recorder.goodput_bytes()) == [
            sum(binned_bytes(trace, **interval))]
