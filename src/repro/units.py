"""Unit helpers and protocol constants.

All internal quantities use a single convention:

* time        — seconds (float)
* data        — bytes (int for packet sizes, float for fluid counters)
* rates       — bytes per second (float)

The helpers below convert the human-facing units used throughout the paper
(Mbps, KB, ms) into that convention, so call sites read like the paper text:
``r = mbps(7.5)``, ``rtt = ms(100)``, ``B = kilobytes(1000)``.
"""

from __future__ import annotations

from math import inf

#: Maximum segment size used by all senders, in bytes.  The paper's analysis
#: works in MSS-sized packets; we model data packets as exactly one MSS on the
#: wire (headers folded in) which keeps the BDP arithmetic identical.
MSS = 1500

#: Wire size of a (simulated) pure ACK, in bytes.
ACK_SIZE = 40

#: Bits per byte, for rate conversions.
BITS_PER_BYTE = 8


def require_positive(name: str, value: float) -> float:
    """``value`` if it is a finite number above 0, else :class:`ValueError`
    naming ``name`` (``value <= 0`` passes nan, ``not value > 0`` inf)."""
    if not 0.0 < value < inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def mbps(value: float) -> float:
    """Convert megabits per second to bytes per second."""
    return value * 1e6 / BITS_PER_BYTE


def gbps(value: float) -> float:
    """Convert gigabits per second to bytes per second."""
    return value * 1e9 / BITS_PER_BYTE


def kbps(value: float) -> float:
    """Convert kilobits per second to bytes per second."""
    return value * 1e3 / BITS_PER_BYTE


def to_mbps(rate_bytes_per_s: float) -> float:
    """Convert bytes per second back to megabits per second."""
    return rate_bytes_per_s * BITS_PER_BYTE / 1e6


def kilobytes(value: float) -> float:
    """Convert kilobytes (1 KB = 1000 bytes, as in the paper) to bytes."""
    return value * 1e3


def megabytes(value: float) -> float:
    """Convert megabytes (1 MB = 1e6 bytes) to bytes."""
    return value * 1e6


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * 1e-3


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * 1e-6


def seconds(value: float) -> float:
    """Identity helper for symmetry at call sites."""
    return float(value)


def bdp_bytes(rate_bytes_per_s: float, rtt_s: float) -> float:
    """Bandwidth-delay product in bytes for rate ``r`` and round-trip ``rtt``."""
    return rate_bytes_per_s * rtt_s


def bdp_packets(rate_bytes_per_s: float, rtt_s: float, mss: int = MSS) -> float:
    """Bandwidth-delay product in MSS-sized packets."""
    return bdp_bytes(rate_bytes_per_s, rtt_s) / mss
