"""Soft-reschedule timers: the one way to cancel or move a deadline.

A heap event is a plain ``(time, seq, callback, args)`` tuple that fires
once pushed; the simulator has no cancel.  Everything that needs to take
a deadline back — RTO / TLP, the BC-PQP sweep, the churn driver — holds
a :class:`Timer`, which keeps the deadline in plain attributes:
rescheduling **later** just overwrites a float and an int, cancelling
clears the float, and the already-armed wake re-arms itself (or returns
at once) when it surfaces.  Retransmission machinery reschedules on
*every* ACK, so this is one push per fire epoch (plus one per
earlier-deadline move) instead of one per ACK, and the heap never holds
an entry the engine has to recognise as dead.

Byte-identity with a cancel+push engine is exact, not statistical:
every reschedule *reserves* a global insertion seq — the very seq
cancel+push would have consumed by scheduling — and the callback always
executes at heap position ``(deadline, deadline_seq)``.  A wake that
surfaces early or superseded either re-arms at that exact position or is
discarded, so even same-instant ties (common: RTO/TLP deadlines clamp to
constants like ``0.9 * MIN_RTO``) fire in cancel+push order
(``tests/test_timer.py`` drives both against one script).
"""

from __future__ import annotations

from typing import Callable

from repro.sim.simulator import SimulationError, Simulator

_INF = float("inf")


class Timer:
    """A cancellable, reschedulable one-shot timer — the only cancellable
    object in :mod:`repro.sim`.

    State machine:

    * ``schedule_at(t)`` / ``schedule_after(d)`` reserve a seq and set
      ``(deadline, deadline_seq)``.  A heap wake is pushed only when none
      is outstanding or the new deadline precedes the outstanding wake;
      otherwise the wake is left in place and re-armed lazily when it
      fires — the per-ACK fast path, zero heap ops.
    * ``cancel()`` clears the deadline.  The outstanding wake (if any)
      stays in the heap and returns at once when it surfaces — O(1), no
      heap traffic.
    * A surfacing wake acts only if it is the *armed* one (seq match);
      it then fires the callback iff it sits exactly at
      ``(deadline, deadline_seq)``, else re-arms there.  The timer
      deactivates itself before invoking the callback, so the callback
      may immediately reschedule (re-arming from an RTO handler).
    """

    __slots__ = (
        "_sim",
        "_callback",
        "_deadline",
        "_deadline_seq",
        "_armed_time",
        "_armed_seq",
    )

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._deadline: float | None = None
        self._deadline_seq = -1
        self._armed_time: float | None = None
        self._armed_seq = -1

    @property
    def active(self) -> bool:
        """True while the timer has a pending deadline."""
        return self._deadline is not None

    @property
    def deadline(self) -> float | None:
        """Absolute fire time, or ``None`` when inactive."""
        return self._deadline

    def schedule_after(self, delay: float) -> None:
        """(Re)schedule the timer ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"invalid timer delay {delay!r}: must be finite and non-negative"
            )
        self._set_deadline(self._sim._now + delay)

    def schedule_at(self, time: float) -> None:
        """(Re)schedule the timer at absolute simulation ``time``."""
        if not self._sim._now <= time < _INF:
            raise SimulationError(
                f"cannot schedule timer at t={time!r}, now is t={self._sim._now!r} "
                "(time must be finite and not in the past)"
            )
        self._set_deadline(time)

    def _set_deadline(self, time: float) -> None:
        sim = self._sim
        # Reserve the seq a cancel+push engine would have consumed
        # here — this pins tie-instant ordering bit-for-bit.
        seq = sim._seq
        sim._seq = seq + 1
        self._deadline = time
        self._deadline_seq = seq
        armed = self._armed_time
        if armed is None or time < armed:
            # No wake in flight, or the outstanding one fires too late to
            # notice an earlier deadline — push at the reserved position.
            self._armed_time = time
            self._armed_seq = seq
            sim.call_at_reserved(time, seq, self._fire, seq)
        # else: the outstanding wake fires at or before (time, seq) and
        # will re-arm lazily — the per-ACK fast path.

    def cancel(self) -> None:
        """Deactivate the timer; any in-flight wake is discarded on fire."""
        self._deadline = None

    def _fire(self, wake_seq: int) -> None:
        """Heap-wake entry point (called by the simulator)."""
        if wake_seq != self._armed_seq:
            return  # superseded by an earlier-deadline push
        self._armed_time = None
        self._armed_seq = -1
        deadline = self._deadline
        if deadline is None:
            return  # cancelled while the wake was in flight
        deadline_seq = self._deadline_seq
        if deadline_seq != wake_seq:
            # Soft-rescheduled since this wake was pushed: re-arm at the
            # exact (time, seq) that reschedule reserved, so the callback
            # fires precisely where cancel+push would have fired it.
            self._armed_time = deadline
            self._armed_seq = deadline_seq
            self._sim.call_at_reserved(
                deadline, deadline_seq, self._fire, deadline_seq
            )
            return
        self._deadline = None
        self._callback()
