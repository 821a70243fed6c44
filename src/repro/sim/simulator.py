"""The discrete-event simulator core."""

from __future__ import annotations

import heapq
from typing import Any, Callable

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on scheduling misuse (e.g. scheduling into the past)."""


class Simulator:
    """A minimal deterministic discrete-event simulator.

    Events scheduled for the same instant fire in insertion order, which
    makes runs bit-for-bit reproducible.  Time is a float in seconds and
    only moves forward.

    A pending event is the heap tuple ``(time, seq, callback, args)`` and
    nothing else: :meth:`run` pops it and calls ``callback(*args)``.
    Every push consumes (or uses a reserved) ``seq``, so ``(time, seq)``
    is unique and heap sift comparisons run on C-level float/int pairs —
    the callback itself is never compared.

    :meth:`schedule` / :meth:`schedule_at` are the relative / absolute
    entry points; they return ``None`` and a pushed event always fires.
    Nothing can reach into the heap to cancel it: the one cancellable,
    reschedulable thing is :class:`repro.sim.timer.Timer`, which cancels
    by clearing a deadline and lets its wake surface as a no-op.
    :meth:`reserve_seq` / :meth:`call_at_reserved` let a timer (or a
    sender's pacing wake) fire at a heap position claimed earlier.  A
    packet in flight on a pipe or a link is one such event whose callback
    is the sink's ``receive``.

    The heap is one of a list of **lanes** (:meth:`new_lane`; one by
    default), drained one after another.  A push lands in the current lane,
    so ``(time, seq)`` orders a lane's events and nothing orders two lanes.

    Engine telemetry: :attr:`heap_pushes` and :attr:`peak_heap_size` are
    counted on push, :attr:`pending` is the summed lane lengths, and
    :attr:`events_processed` is derived from the two (every pushed event
    fires), so the run loop counts nothing per event.  The event-engine
    gates compare them with the old engine's
    (``tests/test_scaling_smoke.py``).

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(1.0, fired.append, "a")
    >>> sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(
        self,
        start_time: float = 0.0,
        *,
        validate: Any = None,
        batch_limit: int | None = None,
    ) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._lanes = [self._heap]
        self._lane = 0
        self._seq = 0
        self._running = False
        if batch_limit is not None and batch_limit < 1:
            raise SimulationError(
                f"batch_limit must be None or >= 1, got {batch_limit!r}"
            )
        # Passed by the frozen benchmarks/suite/workloads.py:230; it
        # selects and caps nothing (every delivery is one event).
        self.batch_limit = batch_limit
        self._heap_pushes = 0
        self._peak_heap = 0
        #: Optional :class:`repro.validate.InvariantChecker`.  Components
        #: (limiters, senders, middleboxes) self-register with it at
        #: construction; when ``None`` (the default) nothing is wrapped
        #: and the event loop is untouched — validation has literally no
        #: disabled-path cost.
        self.validator = validate
        if validate is not None:
            attach = getattr(validate, "attach_simulator", None)
            if attach is not None:
                attach(self)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far: every pushed event
        fires, so the pushes less the ones still pending."""
        return self._heap_pushes - self.pending

    @property
    def pending(self) -> int:
        """Number of events awaiting their turn (the summed lane lengths:
        every pushed event fires)."""
        return sum(map(len, self._lanes))

    @property
    def lanes(self) -> tuple[list, ...]:
        """The lanes' heaps in drain order — to read, never to push on."""
        return tuple(self._lanes)

    @property
    def lane(self) -> int:
        """Index of the current lane: where a push lands now."""
        return self._lane

    def new_lane(self) -> None:
        """Declare what is scheduled from here on causally independent of
        everything before: neither side's events call into the other's
        components.  An empty current lane is reused."""
        if self._running:
            raise SimulationError("new_lane() called from within an event")
        if self._heap:
            self._heap = []
            self._lane = len(self._lanes)
            self._lanes.append(self._heap)

    # Read by the frozen benchmarks/suite/workloads.py:115 and nothing
    # else; nothing cancels a heap entry, so the backlog is always 0.
    cancelled_backlog_hwm = property(lambda self: 0)

    @property
    def heap_pushes(self) -> int:
        """Total heap pushes so far (the event engine's dominant cost)."""
        return self._heap_pushes

    @property
    def peak_heap_size(self) -> int:
        """Largest length any one lane's heap ever reached."""
        return self._peak_heap

    # Read by the frozen benchmarks/suite/workloads.py:102,116; nothing
    # advances the clock inline or hands a sink more than one packet.
    inline_advances = batched_deliveries = property(lambda self: 0)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"invalid delay {delay!r}: must be finite and non-negative"
            )
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heapq.heappush(heap, (self._now + delay, seq, callback, args))
        self._heap_pushes += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not self._now <= time < _INF:
            raise SimulationError(
                f"cannot schedule at t={time!r}, now is t={self._now!r} "
                "(time must be finite and not in the past)"
            )
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heapq.heappush(heap, (time, seq, callback, args))
        self._heap_pushes += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    # Called by the frozen benchmarks/suite/workloads.py:353,361 and by
    # nothing under src/.
    call_at = schedule_at

    def reserve_seq(self) -> int:
        """Claim the next insertion-sequence number without scheduling;
        :meth:`call_at_reserved` later pushes an event at that position
        (how a :class:`~repro.sim.timer.Timer` fires where a
        cancel-and-push engine would have fired it)."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def call_at_reserved(
        self, time: float, seq: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule at ``time`` with a previously :meth:`reserve_seq`-claimed
        sequence number.  The caller must use each reserved seq at most
        once (uniqueness keeps heap ordering total)."""
        heap = self._heap
        heapq.heappush(heap, (time, seq, callback, args))
        self._heap_pushes += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired in this call.

        Stop semantics (pinned by ``tests/test_sim.py``):

        * Stopped by ``until`` or by draining the heap: the clock is
          advanced to exactly ``until`` (when given) so that follow-up
          measurements read a consistent end time.
        * Stopped by ``max_events``: the clock is **left at the time of the
          last fired event** and is *not* advanced to ``until``.  The run
          is interrupted mid-schedule, so a caller single-stepping with
          ``max_events`` can resume exactly where it left off; advancing
          the clock would forbid rescheduling the very events that are
          still pending.  The ``max_events`` budget is checked before the
          heap, so ``max_events=0`` fires nothing and never touches the
          clock, even with ``until`` set.

        ``until`` must be finite (``None`` means "until drained"): a NaN
        bound compares false against every event time and would never
        stop a self-sustaining chain, so it raises
        :class:`SimulationError` like a non-finite delay does.

        Lanes drain in creation order, each up to ``until``.  A
        ``max_events`` stop is defined for one non-empty lane only: cut
        mid-lane, several lanes have no one clock to resume from.
        """
        if self._running:
            raise SimulationError("run() re-entered from within an event")
        if until is not None and not -_INF < until < _INF:
            raise SimulationError(
                f"invalid until {until!r}: must be finite (None runs until "
                "the heap drains)"
            )
        lanes = self._lanes
        if max_events is not None and sum(map(bool, lanes)) > 1:
            raise SimulationError("max_events with several non-empty lanes")
        self._running = True
        # Local-variable hot loop: no per-event method dispatch and, unless
        # max_events is given, no per-event counter either.
        pop = heapq.heappop
        limit = _INF if until is None else until
        end = self._now if until is None else until
        try:
            for lane, heap in enumerate(lanes):
                self._lane = lane
                self._heap = heap
                if max_events is None:
                    while heap and heap[0][0] <= limit:
                        self._now, _seq, callback, args = pop(heap)
                        callback(*args)
                else:
                    fired = 0
                    while fired < max_events and heap and heap[0][0] <= limit:
                        self._now, _seq, callback, args = pop(heap)
                        fired += 1
                        callback(*args)
                    if fired == max_events:
                        return
                end = max(end, self._now)  # each lane restarts the clock
            self._now = end
        finally:
            # Back to the builder's lane: the last one opened.
            self._heap = lanes[-1]
            self._lane = len(lanes) - 1
            self._running = False
