"""Throughput extraction from packet records.

The paper measures per-flow throughput at the receiver over 250 ms windows
(§6.1), normalizes aggregate throughput by the enforced rate, and reports
bursts as the tail of that distribution.  These helpers turn any iterable
of :class:`~repro.net.trace.PacketRecord` (a :class:`~repro.net.trace.Trace`
is one) into exactly those series, in a single pass.  Runs measure online
through :class:`~repro.metrics.recorder.Recorder`, which shares
:func:`bin_layout` and :func:`rate_series` with this module; these
functions serve the opt-in packet taps and are the reference the recorder
is tested against.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Hashable, Iterable

from repro.metrics.series import TimeSeries
from repro.metrics.stats import percentile
from repro.net.packet import FlowId
from repro.net.trace import PacketRecord

Records = Iterable[PacketRecord]

#: Measurement window used throughout the paper's evaluation (250 ms).
MEASUREMENT_WINDOW = 0.25


def _validate(window: float, start: float, end: float) -> tuple[int, float]:
    """Bin layout for ``[start, end)``: ``(nbins, last_width)``.

    ``(end - start) / window`` FP-truncated used to decide the bin count:
    0.7 / 0.1 computes to 6.999...9, silently dropping the final 100 ms
    window the paper measures.  A quotient within a few ULP of an integer
    is that integer (the extent *is* a whole number of windows and the
    division merely rounded); a genuinely fractional extent gets one extra
    *partial* bin covering ``[start + whole x window, end)`` so no
    in-range record is ever excluded — its rate divides by the true
    partial width (``last_width``), not the full window.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window!r}")
    if end <= start:
        raise ValueError("end must be after start")
    quotient = (end - start) / window
    nearest = round(quotient)
    if nearest >= 1 and abs(quotient - nearest) <= 4.0 * math.ulp(nearest):
        return int(nearest), window
    whole = int(quotient)
    if whole < 1:
        raise ValueError("measurement interval shorter than one window")
    return whole + 1, (end - start) - whole * window


def check_interval(horizon: float, warmup: float, window: float) -> None:
    """Reject a run whose measurement interval ``[warmup, horizon)`` or
    bin width cannot be measured, naming the field and the value.

    The config dataclasses call this at construction: :func:`_validate`
    only sees these numbers after the whole simulation has been paid
    for, and a NaN horizon never ends it (``time > nan`` is false).
    """
    for name, value in (
        ("horizon", horizon), ("warmup", warmup), ("window", window)
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window!r}")
    if warmup >= horizon:
        raise ValueError(
            f"warmup must be before horizon={horizon!r}, got {warmup!r}"
        )


def bin_layout(window: float, start: float, end: float) -> tuple[int, float]:
    """Public bin layout for ``[start, end)``: ``(nbins, last_width)``.

    The exact layout every throughput series in this module uses —
    including the ULP-rounded whole-window detection and the trailing
    partial window (see :func:`_validate`).  Exposed so streaming
    accumulators (:class:`~repro.metrics.recorder.Recorder`) can bin
    bytes on the fly with semantics byte-identical to post-hoc binning.
    """
    return _validate(window, start, end)


def rate_series(
    acc: list[float], window: float, start: float, last_width: float
) -> TimeSeries:
    """Per-bin byte totals -> bytes/s, one point per bin of ``bin_layout``
    (the last bin divides by its true, possibly partial, width)."""
    values = [nbytes / window for nbytes in acc]
    if values and last_width != window:
        values[-1] = acc[-1] / last_width
    return TimeSeries(
        times=[start + i * window for i in range(len(acc))],
        values=values,
    )


def _binned(
    records: Records,
    window: float,
    start: float,
    end: float,
    key: Callable[[PacketRecord], Hashable],
) -> dict[Hashable, list[float]]:
    """Per-key byte totals over the bins of ``[start, end)``, in order of
    each key's first in-range record."""
    nbins, _last_width = _validate(window, start, end)
    inv_window = 1.0 / window
    last = nbins - 1
    bins: dict[Hashable, list[float]] = defaultdict(lambda: [0.0] * nbins)
    for rec in records:
        t = rec.time
        if start <= t < end:
            # A record one ULP below ``end`` can still divide to exactly
            # ``nbins`` after FP rounding, and records in a trailing
            # partial window divide to ``nbins - 1``; clamp to the last
            # bin either way.
            index = int((t - start) * inv_window)
            bins[key(rec)][index if index < last else last] += rec.size
    return bins


def _binned_rates(
    records: Records,
    window: float,
    start: float,
    end: float,
    key: Callable[[PacketRecord], Hashable],
) -> dict[Hashable, TimeSeries]:
    _nbins, last_width = _validate(window, start, end)
    return {
        k: rate_series(acc, window, start, last_width)
        for k, acc in _binned(records, window, start, end, key).items()
    }


def aggregate_throughput_series(
    records: Records,
    *,
    window: float,
    start: float,
    end: float,
) -> TimeSeries:
    """Total throughput (bytes/s) over fixed windows, all flows summed."""
    _nbins, last_width = _validate(window, start, end)
    acc = binned_bytes(records, window=window, start=start, end=end)
    return rate_series(acc, window, start, last_width)


def per_flow_throughput_series(
    records: Records,
    *,
    window: float,
    start: float,
    end: float,
) -> dict[FlowId, TimeSeries]:
    """Per-flow throughput series keyed by exact :class:`FlowId`."""
    return _binned_rates(records, window, start, end, key=lambda r: r.flow)  # type: ignore[return-value]


def per_slot_throughput_series(
    records: Records,
    *,
    window: float,
    start: float,
    end: float,
) -> dict[int, TimeSeries]:
    """Per-slot throughput series: on-off incarnations of a slot merge."""
    return _binned_rates(records, window, start, end, key=lambda r: r.flow.slot)  # type: ignore[return-value]


def flow_bytes(records: Records) -> dict[FlowId, int]:
    """Total received bytes per flow."""
    totals: dict[FlowId, int] = defaultdict(int)
    for rec in records:
        totals[rec.flow] += rec.size
    return dict(totals)


def burst_factor(series: TimeSeries, rate: float, *, p: float = 99.0) -> float:
    """Tail throughput deviation from the enforced rate.

    The paper quantifies burst as how far the tail of the windowed
    throughput distribution exceeds the desired rate ("up to 6x smaller
    burst (tail throughput deviation from desired value)").  Returns the
    ``p``-th percentile of windowed throughput normalized by ``rate``.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    if not series.values:
        return 0.0
    return percentile(series.values, p) / rate


def binned_bytes(
    records: Records,
    *,
    window: float,
    start: float,
    end: float,
) -> list[float]:
    """Raw per-bin byte totals for ``[start, end)``, all flows summed.

    The sum over bins equals the total bytes of in-range records exactly
    (integer packet sizes accumulate exactly in floats) — the conservation
    property the throughput series are derived from.
    """
    # Indexing the defaultdict yields the all-zero bins when nothing is
    # in range.
    return _binned(records, window, start, end, lambda _rec: None)[None]
