"""The fluid (GPS) drain as its definition reads: the strict tier's oracle.

``service="fluid-ref"`` advances eager byte counters piece by piece -
recompute every queue's share from the policy tree, scan every queue for
the next one to empty, subtract every queue's drain - O(N) Python work
per arrival.  It is the executable specification the differential fuzzer
(``python -m repro.validate --fuzz``, strict tier) and the equivalence
tests hold :class:`repro.core.gps.VirtualTimeGps` to, decision for
decision, and it shares no code with that engine: the shares come from
:meth:`Policy.fluid_rates <repro.policy.tree.Policy.fluid_rates>`.

:class:`~repro.core.phantom.PhantomQueueSet` resolves it by a lazy
import, so nothing that runs ``fluid`` or ``quantum`` loads this module.
"""

from __future__ import annotations

from repro.policy.tree import Policy

#: Counters below this many bytes are treated as empty (float hygiene);
#: mirrors :data:`repro.core.phantom._EPSILON`.
_EPSILON = 1e-6


class ReferenceFluid:
    """Eager byte counters drained piecewise-linearly at ``rate``.

    Speaks the engine interface of :class:`VirtualTimeGps`; the counters
    are eager, so ``length`` and ``peek_length`` are the same read.
    """

    def __init__(self, policy: Policy, rate: float, *, start_time: float) -> None:
        self._policy = policy
        self._rate = rate
        self._clock = start_time
        self._length = [0.0] * policy.num_queues
        self._total = 0.0
        #: Cumulative bytes drained by the service process.
        self.drained_bytes = 0.0

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
        """Change the service rate from the current clock on."""
        self._rate = rate

    def advance(self, now: float) -> int:
        """Drain up to ``now``; returns the number of linear pieces."""
        lengths = self._length
        pieces = 0
        while now > self._clock:
            mask = self.active_mask
            if not mask:
                break
            rates = self._policy.fluid_rates(mask, self._rate)
            pieces += 1
            # The current linear piece ends when a served queue empties.
            dt = now - self._clock
            for i, ri in enumerate(rates):
                if ri > 0:
                    t_empty = lengths[i] / ri
                    if t_empty < dt:
                        dt = t_empty
            for i, ri in enumerate(rates):
                if ri > 0:
                    drained = ri * dt
                    lengths[i] -= drained
                    self.drained_bytes += drained
                    self._total -= drained
                    if lengths[i] < _EPSILON:
                        # The zeroed crumb leaves the running total too.
                        self._total -= lengths[i]
                        lengths[i] = 0.0
            if self._total < 0.0:
                self._total = 0.0
            self._clock += dt
        self._clock = max(self._clock, now)
        return pieces

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
        self._length[queue] += size
        self._total += size

    def remove(self, queue: int, size: float) -> None:
        """Take ``size`` bytes out of ``queue`` (magic reclaim, resize)."""
        current = self._length[queue]
        remaining = current - size
        if remaining < _EPSILON:
            remaining = 0.0
        self._total -= current - remaining
        if self._total < 0.0:
            self._total = 0.0
        self._length[queue] = remaining
