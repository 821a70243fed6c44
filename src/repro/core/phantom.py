"""Phantom queues: simulated buffer occupancy held as byte counters.

A phantom queue never stores packets — its length is a float byte counter
incremented on (accepted) packet arrival and drained at the policy-assigned
service rate.  Draining is *lazy*: counters are brought up to date when the
next packet arrives (§3.1: "phantom dequeues can be batched").

:class:`PhantomQueueSet` is one class over one *drain engine*.  It keeps
what every service discipline shares — capacities, the magic-byte
watermarks, the drain-work and eviction counters, live reconfiguration —
and asks the engine for everything else through the method set
:class:`repro.core.gps.VirtualTimeGps` defines (``advance``, ``length``,
``peek_length``, ``total``, ``rate_of``, ``set_rate``, ``offer``, ``add``,
``remove``, ``active_mask``, ``drained_bytes``; ``group_virtual_times``
on an engine that has virtual times).  ``service`` picks the engine; both
compute the same GPS process (§3.2's fluid shares ``r*_i``):

* ``fluid`` (default, what production runs) —
  :class:`repro.core.gps.VirtualTimeGps`, the piecewise-linear GPS
  process in virtual time: an arrival costs O(classes being served) plus
  a heap operation, and ``r*_i`` is an O(depth) read.
* ``fluid-ref`` — :class:`repro.validate.reference.ReferenceFluid`, the
  direct piecewise loop (recompute all shares, scan all queues per
  piece), O(N) per arrival.  The executable specification the strict
  fuzz tier and the equivalence tests compare ``fluid`` against; it lives
  beside the fuzzer and is imported only when asked for.

Regardless of engine, ``total_length()`` is a running counter (O(1)),
and ``drain_recomputes`` counts *fluid linear pieces* — the paper-modeled
amortized drain work — independent of how much Python bookkeeping the
engine actually skips (see :mod:`repro.limiters.costs`).
"""

from __future__ import annotations

from repro.core.gps import VirtualTimeGps
from repro.policy.tree import Policy

#: Counters below this many bytes are treated as empty (float hygiene).
_EPSILON = 1e-6


def _engine_class(service: str) -> type:
    """The drain engine class behind a ``service`` name."""
    if service == "fluid":
        return VirtualTimeGps
    if service == "fluid-ref":
        # Imported lazily so production never loads the reference drain.
        from repro.validate.reference import ReferenceFluid

        return ReferenceFluid
    raise ValueError(
        f"unknown service {service!r}; choose from {PhantomQueueSet.SERVICES}"
    )


class PhantomQueueSet:
    """N phantom queues served at cumulative ``rate`` under ``policy``.

    All mutating entry points take an explicit ``now``; the caller (PQP /
    BC-PQP) advances the fluid drain before inspecting occupancy.

    ``magic`` tracks the portion of each queue's length that is *magic*
    bytes (BC-PQP's vacuous fill, §4).  Magic bytes drain with everything
    else; as a queue drains below its magic watermark the watermark is
    clamped down (paper footnote 5: reclaiming may find fewer magic bytes
    than were added).  The clamp is applied on every :meth:`length` /
    :meth:`offer` read: a queue's length only falls between its own adds
    and every add reads the length first, so the stored watermark is
    current whenever it matters.
    """

    #: Supported service disciplines.
    SERVICES = ("fluid", "fluid-ref")

    def __init__(
        self,
        policy: Policy,
        rate: float,
        capacities: list[float],
        *,
        start_time: float = 0.0,
        service: str = "fluid",
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        engine_class = _engine_class(service)
        n = policy.num_queues
        if len(capacities) != n:
            raise ValueError(f"need {n} capacities, got {len(capacities)}")
        if any(c <= 0 for c in capacities):
            raise ValueError("capacities must be positive")
        self._policy = policy
        self._rate = rate
        self._capacity = [float(c) for c in capacities]
        self._magic = [0.0] * n
        self._clock = start_time
        self.service = service
        #: Fluid-piece recomputations, for the cost model.
        self.drain_recomputes = 0
        #: Mutation epoch: bumped by every committed :meth:`reconfigure`.
        #: The invariant checker keys its epoch-seam checks off this.
        self.epoch = 0
        #: Bytes removed by reconfiguration (occupancy above a shrunk
        #: capacity, whole removed queues) — the ledger's fourth leg:
        #: in - reclaimed - drained - evicted = total.
        self.evicted_bytes = 0.0
        #: Drained bytes accumulated by engines retired at epoch seams
        #: (the engine is rebuilt on policy changes; the public counter
        #: must stay continuous and monotone across them).
        self._drained_base = 0.0
        #: The drain engine: lengths, service process and shares.
        self._engine = engine_class(policy, rate, start_time=start_time)

    @property
    def num_queues(self) -> int:
        """Number of phantom queues."""
        return self._policy.num_queues

    @property
    def rate(self) -> float:
        """Cumulative phantom service rate, bytes/second."""
        return self._rate

    @property
    def policy(self) -> Policy:
        """The sharing policy tree."""
        return self._policy

    @property
    def drained_bytes(self) -> float:
        """Total bytes drained so far (real + magic)."""
        return self._drained_base + self._engine.drained_bytes

    def capacity(self, queue: int) -> float:
        """Simulated buffer size of ``queue`` in bytes."""
        return self._capacity[queue]

    def length(self, queue: int) -> float:
        """Current phantom occupancy of ``queue`` (advance first!)."""
        length = self._engine.length(queue)
        if self._magic[queue] > length:
            self._magic[queue] = length
        return length

    def peek_length(self, queue: int) -> float:
        """Occupancy of ``queue`` without mutating any lazy drain state.

        The invariant checker probes every queue after every packet; a
        probe must not settle the fluid engine's floats (settling is
        semantically neutral but perturbs last-ulp rounding, and a
        validated run must stay bit-identical to an unvalidated one).
        """
        return self._engine.peek_length(queue)

    def raw_magic(self, queue: int) -> float:
        """The stored (possibly stale-high, never negative) watermark."""
        return self._magic[queue]

    def magic_bytes(self, queue: int) -> float:
        """Current magic-byte watermark of ``queue``."""
        # Settle the lazy drain so the watermark clamp is current.
        self.length(queue)
        return self._magic[queue]

    def remaining(self, queue: int) -> float:
        """Free capacity of ``queue`` in bytes."""
        return self._capacity[queue] - self.length(queue)

    def active_flags(self) -> list[bool]:
        """Occupancy flags used for policy share computation."""
        mask = self._engine.active_mask
        return [bool(mask >> i & 1) for i in range(self.num_queues)]

    def active_mask(self) -> int:
        """Occupancy bitmask (bit ``i`` set when queue ``i`` holds data)."""
        return self._engine.active_mask

    def total_length(self) -> float:
        """Total phantom bytes across all queues (running total, O(1))."""
        return self._engine.total()

    def gps_virtual_times(self) -> list[float] | None:
        """Virtual-time snapshot of the fluid engine (``None`` otherwise).

        Pure read; see :meth:`VirtualTimeGps.group_virtual_times`.
        """
        read = getattr(self._engine, "group_virtual_times", None)
        return None if read is None else read()

    # ------------------------------------------------------------------
    # Fluid drain
    # ------------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Drain the service process up to time ``now``."""
        if now < self._clock:
            raise ValueError(
                f"time went backwards: {now!r} < {self._clock!r}"
            )
        self.drain_recomputes += self._engine.advance(now)
        self._clock = now

    # ------------------------------------------------------------------
    # Live reconfiguration (policy churn)
    # ------------------------------------------------------------------

    def reconfigure(
        self,
        now: float,
        *,
        policy: Policy | None = None,
        rate: float | None = None,
        capacities: list[float] | None = None,
    ) -> None:
        """Atomically apply a *validated* reconfiguration at time ``now``.

        The caller (the limiter's ``apply_update``) has already rejected
        anything invalid; this method only commits.  Migration rules:

        * The service process is settled at the mutation instant first,
          so everything up to ``now`` accrued at the old rate.
        * A rate change is the engine's ``set_rate``: on the fluid engine
          only the dV/dt slopes move (heap entries are virtual instants
          and stay valid).
        * A policy change builds a fresh engine of the same class for
          the new tree and re-adds surviving per-queue occupancy by
          index, so no service state (virtual times, class heaps, the
          served list) crosses the seam.  Removed
          queues' bytes (real and magic) are *evicted* — accounted in
          :attr:`evicted_bytes`, never silently lost — and
          :attr:`drained_bytes` stays continuous via a base accumulator.
        * Capacity shrinks clamp occupancy (excess evicted) and re-clamp
          the magic watermarks, so occupancy <= capacity holds
          immediately after the resize.

        Every commit starts a new :attr:`epoch`.  This object's identity
        is stable across reconfigurations (the invariant checker's
        instance-level wrappers stay attached).
        """
        self.advance(now)
        if rate is not None:
            self._rate = rate
            self._engine.set_rate(rate)
        if policy is not None:
            self._migrate_policy(policy, capacities)
        elif capacities is not None:
            self._clamp_to(capacities)
        self.epoch += 1

    def _migrate_policy(
        self, policy: Policy, capacities: list[float] | None
    ) -> None:
        """Re-seed the service engine for a new tree (settled already)."""
        n_old = self._policy.num_queues
        n_new = policy.num_queues
        if capacities is None and n_new > n_old:
            raise ValueError("queue count grew without capacities")
        carried = [self.length(q) for q in range(n_old)]
        evicted = 0.0
        for length in carried[n_new:]:
            evicted += length
        self.evicted_bytes += evicted
        self._policy = policy
        self._magic = self._magic[:n_new] + [0.0] * (n_new - n_old)
        retired = self._engine
        self._drained_base += retired.drained_bytes
        engine = self._engine = type(retired)(
            policy, self._rate, start_time=self._clock
        )
        for q, length in enumerate(carried[:n_new]):
            if length > 0.0:
                engine.add(q, length)
        # A resize may ride along with the tree change; enforce the
        # occupancy <= capacity invariant against the new capacities.
        self._clamp_to(
            capacities if capacities is not None else self._capacity[:n_new]
        )

    def _clamp_to(self, capacities: list[float]) -> None:
        """Install new capacities, evicting occupancy above them."""
        evicted = 0.0
        for q, cap in enumerate(capacities):
            before = self.length(q)
            if before > cap:
                self._engine.remove(q, before - cap)
                evicted += before - self.length(q)
        self._capacity = [float(c) for c in capacities]
        self.evicted_bytes += evicted

    # ------------------------------------------------------------------
    # Enqueue / magic manipulation (callers advance() first)
    # ------------------------------------------------------------------

    def offer(self, queue: int, size: float) -> float:
        """The admit decision for ``size`` bytes arriving at ``queue``.

        Enqueues them if they fit and returns the queue's phantom service
        rate ``r*_i`` with them in place (what :meth:`fluid_rate_of`
        would say, never negative); returns a negative value, having
        changed nothing but the watermark clamp, when they do not.
        """
        # One engine call: settle, capacity test, enqueue, r*_i.  The
        # magic watermark clamps against the *settled* length at this
        # instant — new real bytes stack on top of the low-water mark,
        # and a later settle must not clamp magic against them.
        length, rate = self._engine.offer(
            queue, size, self._capacity[queue] + _EPSILON
        )
        if self._magic[queue] > length:
            self._magic[queue] = length
        return rate

    def try_enqueue(self, queue: int, size: float) -> bool:
        """Enqueue ``size`` phantom bytes if they fit; return success."""
        return self.offer(queue, size) >= 0.0

    def fill_with_magic(self, queue: int) -> float:
        """Fill ``queue`` to capacity with magic bytes; return bytes added."""
        added = self._capacity[queue] - self.length(queue)
        if added > 0:
            self._engine.add(queue, added)
            self._magic[queue] += added
            return added
        return 0.0

    def reclaim_magic(self, queue: int) -> float:
        """Remove all (remaining) magic bytes from ``queue``."""
        length = self.length(queue)
        reclaimable = min(self._magic[queue], length)
        if reclaimable > 0:
            self._engine.remove(queue, reclaimable)
        self._magic[queue] = 0.0
        return reclaimable

    def fluid_rate_of(self, queue: int) -> float:
        """Current phantom service rate ``r*_i`` of one queue (after an
        advance), as the engine reads it off its own occupancy."""
        return self._engine.rate_of(queue)
