"""The paper's literal phantom dequeue: batched DRR over byte counters.

``service="quantum"`` drains the phantom queues the way §3.1-3.2 state
the mechanism - "phantom dequeues can be batched and done only when the
queue becomes full", MSS-sized phantom packets picked "from the occupied
phantom queues in a round-robin manner" - instead of the fluid (GPS)
idealization :mod:`repro.core.gps` computes.  Byte for byte it converges
to the fluid shares (property-tested); it exists as an ablation of the
idealization.

:class:`QuantumDrain` speaks the engine interface
:class:`~repro.core.phantom.PhantomQueueSet` drives
(:class:`~repro.core.gps.VirtualTimeGps` is the production speaker): the
counters are eager, so ``length`` and ``peek_length`` are the same read.
The scheduler tracks the occupied set incrementally
(:class:`repro.sched.drr.ActiveSetDrr`), so a phantom dequeue costs
O(depth); an *arrival* is still O(N), because ``r*_i`` comes from
:meth:`Policy.fluid_rate_of <repro.policy.tree.Policy.fluid_rate_of>`
over a rescanned occupancy mask.
"""

from __future__ import annotations

from repro.policy.tree import Policy
from repro.sched.drr import ActiveSetDrr
from repro.units import MSS

#: Counters below this many bytes are treated as empty (float hygiene);
#: mirrors :data:`repro.core.phantom._EPSILON`.
_EPSILON = 1e-6

#: Phantom-packet size: the paper dequeues in MSS units.
_QUANTUM = float(MSS)


class QuantumDrain:
    """Eager byte counters served in MSS-sized DRR dequeues at ``rate``."""

    def __init__(self, policy: Policy, rate: float, *, start_time: float) -> None:
        self._policy = policy
        self._rate = rate
        self._clock = start_time
        self._length = [0.0] * policy.num_queues
        self._total = 0.0
        #: Cumulative bytes drained by the service process.
        self.drained_bytes = 0.0
        #: Unspent service carried between drains, bytes.
        self._budget = 0.0
        self._drr = ActiveSetDrr(policy, head_of=self._head)

    def _head(self, queue: int) -> float:
        """Next phantom-packet size of an occupied queue (DRR peek)."""
        length = self._length[queue]
        return length if length < _QUANTUM else _QUANTUM

    @property
    def active_mask(self) -> int:
        """Occupancy bitmask (bit ``i`` set when queue ``i`` holds data)."""
        mask = 0
        for i, length in enumerate(self._length):
            if length > _EPSILON:
                mask |= 1 << i
        return mask

    def length(self, queue: int) -> float:
        """Current bytes in ``queue``."""
        return self._length[queue]

    peek_length = length

    def total(self) -> float:
        """Total bytes across all queues (running total, O(1))."""
        return self._total

    def rate_of(self, queue: int) -> float:
        """The fluid share ``r*_i`` of ``queue`` under the occupied set."""
        return self._policy.fluid_rate_of(queue, self.active_mask, self._rate)

    def set_rate(self, rate: float) -> None:
        """Change the service rate; accrual so far was at the old one."""
        self._rate = rate

    def advance(self, now: float) -> int:
        """Spend ``rate x dt`` bytes of service in scheduler-ordered
        phantom-packet units; returns the number of dequeues."""
        lengths = self._length
        self._budget += self._rate * (now - self._clock)
        self._clock = now
        drr = self._drr
        if not drr.any_active():
            # A policer accrues no service while idle: it has no tokens
            # beyond the queue capacities themselves.
            self._budget = 0.0
            return 0
        dequeues = 0
        while self._budget > _EPSILON:
            queue = drr.select()
            if queue is None:
                self._budget = 0.0
                break
            size = min(self._head(queue), self._budget)
            if size <= _EPSILON:
                break
            drr.charge(size)
            lengths[queue] -= size
            self.drained_bytes += size
            self._total -= size
            self._budget -= size
            dequeues += 1
            if lengths[queue] < _EPSILON:
                # The zeroed crumb leaves the running total as well.
                self._total -= lengths[queue]
                lengths[queue] = 0.0
                drr.deactivate(queue)
        if self._total < 0.0:
            self._total = 0.0
        return dequeues

    def offer(self, queue: int, size: float, limit: float) -> tuple[float, float]:
        """Enqueue ``size`` bytes unless that takes ``queue`` past
        ``limit``; same contract as :meth:`VirtualTimeGps.offer`."""
        length = self._length[queue]
        if length + size > limit:
            return length, -1.0
        self.add(queue, size)
        return length, self.rate_of(queue)

    def add(self, queue: int, size: float) -> None:
        """Enqueue ``size`` bytes into ``queue``."""
        length = self._length[queue]
        occupancy = length + size
        if length <= _EPSILON < occupancy:
            self._drr.activate(queue)
        self._length[queue] = occupancy
        self._total += size

    def remove(self, queue: int, size: float) -> None:
        """Take ``size`` bytes out of ``queue`` (magic reclaim, resize)."""
        current = self._length[queue]
        remaining = current - size
        if remaining < _EPSILON:
            remaining = 0.0
            self._drr.deactivate(queue)
        self._total -= current - remaining
        if self._total < 0.0:
            self._total = 0.0
        self._length[queue] = remaining
