"""The discrete-event simulator core."""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.sim.events import EventHandle, _noop

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on scheduling misuse (e.g. scheduling into the past)."""


class Simulator:
    """A minimal deterministic discrete-event simulator.

    Events scheduled for the same instant fire in insertion order, which
    makes runs bit-for-bit reproducible.  Time is a float in seconds and
    only moves forward.

    The pending-event heap stores ``(time, seq, handle)`` tuples so heap
    sift comparisons run on C-level float/int pairs instead of calling
    :meth:`EventHandle.__lt__` — the single hottest comparison in a
    saturated run.  ``seq`` is unique, so the handle itself is never
    compared.

    Two scheduling tiers keep the hot path allocation-free:

    * :meth:`schedule` / :meth:`schedule_at` return a fresh cancellable
      :class:`EventHandle` the caller may retain — the general-purpose
      path.
    * :meth:`call_after` / :meth:`call_at` are **fire-and-forget**: they
      return nothing, cannot be cancelled, and draw their handles from a
      free-list pool that recycles each handle the moment its event has
      fired (per-packet link/pipe events use this path).  Reissued
      handles bump :attr:`EventHandle.generation` so a stale reference
      is detectable.

    Engine telemetry (all O(1) to maintain): :attr:`pending` counts only
    *live* events, :attr:`cancelled_backlog` /
    :attr:`cancelled_backlog_hwm` track lazily-deleted tuples still
    sinking through the heap, and :attr:`heap_pushes` /
    :attr:`peak_heap_size` are what the event-engine gates compare with
    the old engine's (``tests/test_scaling_smoke.py``).

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
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
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._events_processed = 0
        self._running = False
        if batch_limit is not None and batch_limit < 1:
            raise SimulationError(
                f"batch_limit must be None or >= 1, got {batch_limit!r}"
            )
        #: Cap on the same-instant batch a coalesced FIFO component
        #: (link/pipe) hands its sink per ``receive_batch`` call:
        #: ``None`` = unbounded (the default), ``K`` = at most K packets,
        #: ``1`` = every batch is a singleton.  It selects no code — one
        #: drain kernel (``net/fastpath.py``) runs at every setting — and
        #: by that module's reserved-seq argument every setting is the
        #: same simulation, pinned by ``tests/test_engine_equivalence.py``.
        self.batch_limit = batch_limit
        # Kernel-facing cap: 0 means unbounded (a batch of n packets
        # stops growing when ``n == cap``; n starts at 1 so 0 never hits).
        self._batch_cap = 0 if batch_limit is None else batch_limit
        #: While ``run()`` executes without a ``max_events`` budget, the
        #: clock may be advanced *inline* by a batched drain (up to this
        #: bound) whenever the drain's own next packet is provably the
        #: globally next event — saving a heap round-trip per packet.
        #: ``None`` disables inline advancement (the state
        #: outside ``run()`` and under ``max_events`` stepping).
        self._advance_bound: float | None = None
        self._inline_advances = 0
        self._batched_deliveries = 0
        # Live/cancelled accounting (see the class docstring).
        self._live = 0
        self._cancelled_backlog = 0
        self._cancelled_hwm = 0
        self._heap_pushes = 0
        self._peak_heap = 0
        # Free list for fire-and-forget handles (call_after/call_at and
        # soft-timer wakes).  Exactly one heap entry references a pooled
        # handle at any time, so recycling at pop is sound.
        self._handle_pool: list[EventHandle] = []
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
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of *live* events awaiting their turn (cancelled tuples
        still sinking through the heap are excluded; see
        :attr:`cancelled_backlog`)."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Raw heap length, live plus cancelled-but-undiscarded tuples."""
        return len(self._heap)

    @property
    def cancelled_backlog(self) -> int:
        """Cancelled events still occupying heap slots (lazy deletion)."""
        return self._cancelled_backlog

    @property
    def cancelled_backlog_hwm(self) -> int:
        """High-water mark of :attr:`cancelled_backlog` over the run —
        how badly cancel-churn ever bloated the heap."""
        return self._cancelled_hwm

    @property
    def heap_pushes(self) -> int:
        """Total heap pushes so far (the event engine's dominant cost)."""
        return self._heap_pushes

    @property
    def peak_heap_size(self) -> int:
        """Largest heap length ever reached."""
        return self._peak_heap

    @property
    def handle_pool_size(self) -> int:
        """Free-list depth of recycled fire-and-forget handles."""
        return len(self._handle_pool)

    @property
    def inline_advances(self) -> int:
        """Clock advances performed inline by link/pipe drains — each one
        replaced a heap push + pop + handle recycle."""
        return self._inline_advances

    @property
    def batched_deliveries(self) -> int:
        """Packets delivered through multi-packet batches (batch size
        >= 2); singleton batches are not counted."""
        return self._batched_deliveries

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`EventHandle.cancel`."""
        self._live -= 1
        backlog = self._cancelled_backlog + 1
        self._cancelled_backlog = backlog
        if backlog > self._cancelled_hwm:
            self._cancelled_hwm = backlog

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"invalid delay {delay!r}: must be finite and non-negative"
            )
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        heap = self._heap
        heapq.heappush(heap, (time, seq, handle))
        self._heap_pushes += 1
        self._live += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not self._now <= time < _INF:
            raise SimulationError(
                f"cannot schedule at t={time!r}, now is t={self._now!r} "
                "(time must be finite and not in the past)"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        heap = self._heap
        heapq.heappush(heap, (time, seq, handle))
        self._heap_pushes += 1
        self._live += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)
        return handle

    def _alloc_pooled(
        self, callback: Callable[..., None], args: tuple[Any, ...]
    ) -> EventHandle:
        pool = self._handle_pool
        if pool:
            handle = pool.pop()
            handle.generation += 1
            handle.callback = callback
            handle.args = args
            return handle
        handle = EventHandle(0.0, 0, callback, args, self)
        handle.pooled = True
        return handle

    def call_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is returned, the
        event cannot be cancelled, and its (pooled) handle is recycled
        the moment it fires.  The per-packet scheduling path."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"invalid delay {delay!r}: must be finite and non-negative"
            )
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = self._alloc_pooled(callback, args)
        handle.time = time
        handle.seq = seq
        heap = self._heap
        heapq.heappush(heap, (time, seq, handle))
        self._heap_pushes += 1
        self._live += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def call_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`call_after`)."""
        if not self._now <= time < _INF:
            raise SimulationError(
                f"cannot schedule at t={time!r}, now is t={self._now!r} "
                "(time must be finite and not in the past)"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = self._alloc_pooled(callback, args)
        handle.time = time
        handle.seq = seq
        heap = self._heap
        heapq.heappush(heap, (time, seq, handle))
        self._heap_pushes += 1
        self._live += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def reserve_seq(self) -> int:
        """Claim the next insertion-sequence number without scheduling.

        Coalesced FIFO components (link/pipe) reserve a seq per packet at
        entry — the exact point the pre-coalescing engine consumed one by
        scheduling a per-packet event — and later arm their single
        delivery event with the head packet's reserved seq via
        :meth:`call_at_reserved`.  Global (time, seq) firing order is
        therefore identical to scheduling one event per packet, while the
        heap holds at most one entry per component.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def call_at_reserved(
        self, time: float, seq: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget schedule at ``time`` with a previously
        :meth:`reserve_seq`-claimed sequence number.  The caller must use
        each reserved seq at most once (uniqueness keeps heap ordering
        total)."""
        handle = self._alloc_pooled(callback, args)
        handle.time = time
        handle.seq = seq
        heap = self._heap
        heapq.heappush(heap, (time, seq, handle))
        self._heap_pushes += 1
        self._live += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def cancel(self, handle: EventHandle | None) -> None:
        """Cancel a pending event; cancelling ``None`` or twice is a no-op."""
        if handle is not None:
            handle.cancel()

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the heap is drained."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_backlog -= 1
        if not heap:
            return None
        return heap[0][0]

    def _fire(self, event: EventHandle) -> None:
        """Invoke ``event`` and recycle its handle if pooled."""
        event.callback(*event.args)
        if event.pooled:
            event.callback = _noop
            event.args = ()
            self._handle_pool.append(event)
        else:
            # Mark consumed: a late cancel() on a fired handle must not
            # perturb the live/cancelled counters (and dropping the back
            # reference breaks the sim <-> handle cycle).
            event.owner = None

    def step(self) -> bool:
        """Fire the next live event.  Returns ``False`` when none remain."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _seq, event = pop(heap)
            if event.cancelled:
                self._cancelled_backlog -= 1
                continue
            self._now = time
            self._events_processed += 1
            self._live -= 1
            self._fire(event)
            return True
        return False

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
        """
        if self._running:
            raise SimulationError("run() re-entered from within an event")
        self._running = True
        # Batched drains may advance the clock inline, but only while an
        # un-budgeted run() is driving the loop: under ``max_events`` the
        # caller observes (and resumes from) every individual firing, so
        # inline advancement would change where the budget lands.
        if max_events is None:
            self._advance_bound = _INF if until is None else until
        # Local-variable hot loop: one pass per event, no peek_time/step
        # double scan of the heap head and no per-event method dispatch.
        heap = self._heap
        pool = self._handle_pool
        pop = heapq.heappop
        fired = 0
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    return
                while heap and heap[0][2].cancelled:
                    pop(heap)
                    self._cancelled_backlog -= 1
                if not heap:
                    break
                next_time = heap[0][0]
                if until is not None and next_time > until:
                    break
                _time, _seq, event = pop(heap)
                self._now = next_time
                self._events_processed += 1
                self._live -= 1
                event.callback(*event.args)
                if event.pooled:
                    event.callback = _noop
                    event.args = ()
                    pool.append(event)
                else:
                    event.owner = None
                fired += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self._advance_bound = None
