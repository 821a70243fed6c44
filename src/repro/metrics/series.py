"""Time-series containers for rate measurements."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class TimeSeries:
    """A plain (time, value) series with convenience accessors."""

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        """Add one point (times must be non-decreasing)."""
        if self.times and time < self.times[-1]:
            raise ValueError("TimeSeries times must be non-decreasing")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def window(self, start: float, end: float) -> "TimeSeries":
        """Points with ``start <= t < end``."""
        out = TimeSeries()
        for t, v in self:
            if start <= t < end:
                out.append(t, v)
        return out

    def max(self) -> float:
        """Largest value (0.0 for an empty series)."""
        return max(self.values, default=0.0)

    def mean(self) -> float:
        """Mean value (0.0 for an empty series)."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

