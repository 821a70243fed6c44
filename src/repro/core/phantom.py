"""Phantom queues: simulated buffer occupancy held as byte counters.

A phantom queue never stores packets — its length is a float byte counter
incremented on (accepted) packet arrival and drained at the policy-assigned
service rate.  Draining is *lazy*: counters are brought up to date when the
next packet arrives (§3.1: "phantom dequeues can be batched").

Three service disciplines are provided:

* ``fluid`` (default) — the piecewise-linear GPS process, realized by the
  virtual-time engine (:mod:`repro.core.gps`): per-queue drains are
  evaluated lazily as ``weight x (V(now) - V(touch))`` and piece
  boundaries come off per-class min-heaps of predicted queue-empty
  times, so an arrival costs O(classes being served) plus a heap
  operation instead of a full O(N) rescan.
* ``fluid-ref`` — the direct piecewise loop (recompute all shares, scan
  all queues per piece).  Byte-equivalent to ``fluid`` up to float
  rounding; kept as the executable specification the property tests
  compare the optimized engine against.
* ``quantum`` — the paper's literal mechanism: batched dequeues of
  MSS-sized phantom packets picked by a hierarchical deficit-round-robin
  scheduler (§3.2 "dequeue phantom packets from the occupied phantom
  queues in a round-robin manner").  Byte-for-byte this converges to the
  fluid shares (property-tested); it exists as an ablation of the
  idealization.  Its scheduler tracks the occupied set incrementally
  (:class:`repro.sched.drr.ActiveSetDrr`) so each phantom dequeue costs
  O(depth) instead of rebuilding an N-element head list.  An *arrival*
  is still O(N) here: :meth:`PhantomQueueSet.offer` reads ``r*_i``
  through :meth:`~PhantomQueueSet.active_mask`, which scans every
  counter on the two eager disciplines (source lines per packet grow
  22x for pqp and 30x for bcpqp from N=10 to N=1000 on ``quantum``,
  1.0x and 1.35x on ``fluid``).

Regardless of discipline, ``total_length()`` is a running counter (O(1)),
and ``drain_recomputes`` counts *fluid linear pieces / DRR dequeues* — the
paper-modeled amortized drain work — independent of how much Python
bookkeeping the optimized engines actually skip (see
:mod:`repro.limiters.costs`).
"""

from __future__ import annotations

from repro.core.gps import VirtualTimeGps
from repro.policy.tree import Policy
from repro.sched.drr import ActiveSetDrr
from repro.units import MSS

#: Counters below this many bytes are treated as empty (float hygiene).
_EPSILON = 1e-6


class PhantomQueueSet:
    """N phantom queues served at cumulative ``rate`` under ``policy``.

    All mutating entry points take an explicit ``now``; the caller (PQP /
    BC-PQP) advances the fluid drain before inspecting occupancy.

    ``magic`` tracks the portion of each queue's length that is *magic*
    bytes (BC-PQP's vacuous fill, §4).  Magic bytes drain with everything
    else; as a queue drains below its magic watermark the watermark is
    clamped down (paper footnote 5: reclaiming may find fewer magic bytes
    than were added).
    """

    #: Supported service disciplines.
    SERVICES = ("fluid", "fluid-ref", "quantum")

    def __init__(
        self,
        policy: Policy,
        rate: float,
        capacities: list[float],
        *,
        start_time: float = 0.0,
        service: str = "fluid",
        quantum: float = MSS,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if service not in self.SERVICES:
            raise ValueError(
                f"unknown service {service!r}; choose from {self.SERVICES}"
            )
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
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
        self._quantum = float(quantum)
        #: Fluid-piece recomputations / DRR dequeues, for the cost model.
        self.drain_recomputes = 0
        #: Mutation epoch: bumped by every committed :meth:`reconfigure`.
        #: The invariant checker keys its epoch-seam checks off this.
        self.epoch = 0
        #: Bytes removed by reconfiguration (occupancy above a shrunk
        #: capacity, whole removed queues) — the ledger's fourth leg:
        #: in - reclaimed - drained - evicted = total.
        self.evicted_bytes = 0.0
        #: Drained bytes accumulated by engines retired at epoch seams
        #: (the fluid engine is rebuilt on policy changes; the public
        #: counter must stay continuous and monotone across them).
        self._drained_base = 0.0
        #: Virtual-time engine (``fluid``) or eager counters (others).
        self._gps: VirtualTimeGps | None = None
        self._length: list[float] | None = None
        self._drr: ActiveSetDrr | None = None
        if service == "fluid":
            self._gps = VirtualTimeGps(policy, rate, start_time=start_time)
        else:
            self._length = [0.0] * n
            #: Running total so ``total_length()`` never rescans (kept in
            #: lock-step with every enqueue/drain/reclaim below).
            self._total = 0.0
            self._drained = 0.0
            if service == "quantum":
                self._drr = ActiveSetDrr(
                    policy, head_of=self._quantum_head, quantum=quantum
                )
        #: Unspent service budget carried between quantum drains, bytes.
        self._budget = 0.0

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
        if self._gps is not None:
            return self._drained_base + self._gps.drained_bytes
        return self._drained

    def capacity(self, queue: int) -> float:
        """Simulated buffer size of ``queue`` in bytes."""
        return self._capacity[queue]

    def length(self, queue: int) -> float:
        """Current phantom occupancy of ``queue`` (advance first!)."""
        if self._gps is not None:
            length = self._gps.length(queue)
            if self._magic[queue] > length:
                self._magic[queue] = length
            return length
        return self._length[queue]

    def peek_length(self, queue: int) -> float:
        """Occupancy of ``queue`` without mutating any lazy drain state.

        The invariant checker probes every queue after every packet; a
        probe must not settle the fluid engine's floats (settling is
        semantically neutral but perturbs last-ulp rounding, and a
        validated run must stay bit-identical to an unvalidated one).
        """
        if self._gps is not None:
            return self._gps.peek_length(queue)
        return self._length[queue]

    def peek_magic(self, queue: int) -> float:
        """Effective magic watermark of ``queue``, without settling.

        The stored watermark is clamped lazily (a queue draining below it
        between packets leaves the raw value stale-high until the next
        settle); the effective value is its clamp against the current
        occupancy.
        """
        magic = self._magic[queue]
        length = self.peek_length(queue)
        return magic if magic < length else length

    def raw_magic(self, queue: int) -> float:
        """The stored (possibly stale-high, never negative) watermark."""
        return self._magic[queue]

    def magic_bytes(self, queue: int) -> float:
        """Current magic-byte watermark of ``queue``."""
        if self._gps is not None:
            # Settle the lazy drain so the watermark clamp is current.
            self.length(queue)
        return self._magic[queue]

    def remaining(self, queue: int) -> float:
        """Free capacity of ``queue`` in bytes."""
        return self._capacity[queue] - self.length(queue)

    def active_flags(self) -> list[bool]:
        """Occupancy flags used for policy share computation."""
        if self._gps is not None:
            mask = self._gps.active_mask
            return [bool(mask >> i & 1) for i in range(self.num_queues)]
        return [length > _EPSILON for length in self._length]

    def active_mask(self) -> int:
        """Occupancy bitmask (bit ``i`` set when queue ``i`` holds data)."""
        if self._gps is not None:
            return self._gps.active_mask
        mask = 0
        for i, length in enumerate(self._length):
            if length > _EPSILON:
                mask |= 1 << i
        return mask

    def total_length(self) -> float:
        """Total phantom bytes across all queues (running total, O(1))."""
        if self._gps is not None:
            return self._gps.total()
        return self._total

    def gps_virtual_times(self) -> list[float] | None:
        """Virtual-time snapshot of the fluid engine (``None`` otherwise).

        Pure read; see :meth:`VirtualTimeGps.group_virtual_times`.
        """
        if self._gps is None:
            return None
        return self._gps.group_virtual_times()

    # ------------------------------------------------------------------
    # Fluid drain
    # ------------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Drain the service process up to time ``now``."""
        if now < self._clock:
            raise ValueError(
                f"time went backwards: {now!r} < {self._clock!r}"
            )
        if self._gps is not None:
            self.drain_recomputes += self._gps.advance(now)
            self._clock = now
            return
        if self._drr is not None:
            self._advance_quantum(now)
            return
        self._advance_fluid_ref(now)

    def _advance_fluid_ref(self, now: float) -> None:
        """The reference piecewise drain: recompute every share and scan
        every queue per linear piece.  O(N) per arrival — kept as the
        executable specification of the fluid service."""
        lengths = self._length
        while now > self._clock:
            active = [length > _EPSILON for length in lengths]
            if not any(active):
                self._clock = now
                break
            rates = self._policy.fluid_rates(active, self._rate)
            self.drain_recomputes += 1
            # The current linear piece ends when a served queue empties.
            horizon = now - self._clock
            dt = horizon
            for i, ri in enumerate(rates):
                if ri > 0:
                    t_empty = lengths[i] / ri
                    if t_empty < dt:
                        dt = t_empty
            for i, ri in enumerate(rates):
                if ri > 0:
                    drained = ri * dt
                    lengths[i] -= drained
                    self._drained += drained
                    self._total -= drained
                    if lengths[i] < _EPSILON:
                        self._total += lengths[i]
                        lengths[i] = 0.0
                    if self._magic[i] > lengths[i]:
                        self._magic[i] = lengths[i]
            if self._total < 0.0:
                self._total = 0.0
            self._clock += dt
        self._clock = max(self._clock, now)

    def _quantum_head(self, queue: int) -> float:
        """Next phantom-packet size of an occupied queue (DRR peek)."""
        length = self._length[queue]
        return length if length < self._quantum else self._quantum

    def _advance_quantum(self, now: float) -> None:
        """Batched DRR dequeues: spend ``rate x dt`` bytes of service in
        scheduler-ordered phantom-packet units (the paper's §3.1 "phantom
        dequeues can be batched and done only when the queue becomes
        full")."""
        lengths = self._length
        self._budget += self._rate * (now - self._clock)
        self._clock = now
        drr = self._drr
        assert drr is not None
        if not drr.any_active():
            # A policer accrues no service while idle: it has no tokens
            # beyond the queue capacities themselves.
            self._budget = 0.0
            return
        quantum = self._quantum
        while self._budget > _EPSILON:
            queue = drr.select()
            if queue is None:
                self._budget = 0.0
                return
            head = lengths[queue]
            if head > quantum:
                head = quantum
            size = min(head, self._budget)
            if size <= _EPSILON:
                return
            drr.charge(size)
            lengths[queue] -= size
            self._drained += size
            self._total -= size
            self._budget -= size
            self.drain_recomputes += 1
            if lengths[queue] < _EPSILON:
                self._total += lengths[queue]
                lengths[queue] = 0.0
                drr.deactivate(queue)
            if self._magic[queue] > lengths[queue]:
                self._magic[queue] = lengths[queue]
        if self._total < 0.0:
            self._total = 0.0

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

        * The service process is settled at the mutation instant first.
        * Rate-only on the fluid engine changes just the dV/dt slopes
          (:meth:`VirtualTimeGps.set_rate` — heap entries are virtual
          instants and stay valid); lazy engines pick the rate up at the
          next advance, having accrued at the old rate until ``now``.
        * A policy change rebuilds the engine for the new tree and
          re-seeds surviving per-queue occupancy by index.  Removed
          queues' bytes (real and magic) are *evicted* — accounted in
          :attr:`evicted_bytes`, never silently lost — and
          :attr:`drained_bytes` stays continuous via a base accumulator.
          The quantum discipline's unspent service budget is discarded
          at the seam; its DRR active set is rebuilt from scratch.
        * Capacity shrinks clamp occupancy (excess evicted) and re-clamp
          the magic watermarks, so occupancy <= capacity holds
          immediately after the resize.

        Every commit starts a new :attr:`epoch`.  This object's identity
        is stable across reconfigurations (the invariant checker's
        instance-level wrappers stay attached).
        """
        self.advance(now)
        if rate is not None:
            if self._gps is not None and policy is None:
                self._gps.set_rate(rate)
            self._rate = rate
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
        for q in range(n_new, n_old):
            evicted += carried[q]
        self.evicted_bytes += evicted
        survivors = carried[:n_new]
        magic = self._magic[:n_new]
        if n_new > n_old:
            survivors += [0.0] * (n_new - n_old)
            magic += [0.0] * (n_new - n_old)
        if policy is self._policy:
            # In-place tree edit: flush the memo caches via the version
            # counter.  (Swapping a fresh Policy object is the
            # interning-safe path — see fleet/shard.py — but an edited
            # tree must never serve stale share vectors either.)
            policy.invalidate()
        self._policy = policy
        self._magic = magic
        new_caps = (
            [float(c) for c in capacities]
            if capacities is not None
            else self._capacity[:n_new]
        )
        if self._gps is not None:
            self._drained_base += self._gps.drained_bytes
            self._gps = VirtualTimeGps(policy, self._rate, start_time=self._clock)
            for q, length in enumerate(survivors):
                if length > 0.0:
                    self._gps.add(q, length)
        else:
            self._length = survivors
            total = 0.0
            for length in survivors:
                total += length
            self._total = total
            if self._drr is not None:
                self._drr = ActiveSetDrr(
                    policy, head_of=self._quantum_head, quantum=self._quantum
                )
                self._drr.reseed(
                    q for q, length in enumerate(survivors) if length > _EPSILON
                )
            self._budget = 0.0
        # A resize may ride along with the tree change; enforce the
        # occupancy <= capacity invariant against the new capacities.
        self._clamp_to(new_caps)

    def _clamp_to(self, capacities: list[float]) -> None:
        """Install new capacities, evicting occupancy above them."""
        evicted = 0.0
        for q, cap in enumerate(capacities):
            before = self.length(q)
            if before > cap:
                if self._gps is not None:
                    self._gps.remove(q, before - cap)
                    after = self.length(q)
                else:
                    after = cap if cap > _EPSILON else 0.0
                    if after == 0.0 and self._drr is not None:
                        self._drr.deactivate(q)
                    self._total -= before - after
                    if self._total < 0.0:
                        self._total = 0.0
                    self._length[q] = after
                evicted += before - after
                if self._magic[q] > after:
                    self._magic[q] = after
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
        if self._gps is not None:
            # One engine call: settle, capacity test, enqueue, r*_i.  The
            # magic watermark clamps against the *settled* length at this
            # instant — new real bytes stack on top of the low-water
            # mark, and a later settle must not clamp magic against them.
            length, rate = self._gps.offer(
                queue, size, self._capacity[queue] + _EPSILON
            )
            if self._magic[queue] > length:
                self._magic[queue] = length
            return rate
        length = self._length[queue]
        if length + size <= self._capacity[queue] + _EPSILON:
            if (
                self._drr is not None
                and length <= _EPSILON
                and length + size > _EPSILON
            ):
                self._drr.activate(queue)
            self._length[queue] += size
            self._total += size
            return self.fluid_rate_of(queue)
        return -1.0

    def try_enqueue(self, queue: int, size: float) -> bool:
        """Enqueue ``size`` phantom bytes if they fit; return success."""
        return self.offer(queue, size) >= 0.0

    def fill_with_magic(self, queue: int) -> float:
        """Fill ``queue`` to capacity with magic bytes; return bytes added."""
        if self._gps is not None:
            added = self._capacity[queue] - self.length(queue)
            if added > 0:
                self._gps.add(queue, added)
                self._magic[queue] += added
                return added
            return 0.0
        added = self._capacity[queue] - self._length[queue]
        if added > 0:
            if self._drr is not None and self._length[queue] <= _EPSILON:
                self._drr.activate(queue)
            self._length[queue] = self._capacity[queue]
            self._total += added
            self._magic[queue] += added
            return added
        return 0.0

    def reclaim_magic(self, queue: int) -> float:
        """Remove all (remaining) magic bytes from ``queue``."""
        if self._gps is not None:
            length = self.length(queue)
            reclaimable = min(self._magic[queue], length)
            if reclaimable > 0:
                self._gps.remove(queue, reclaimable)
            self._magic[queue] = 0.0
            return reclaimable
        reclaimable = min(self._magic[queue], self._length[queue])
        if reclaimable > 0:
            self._length[queue] -= reclaimable
            self._total -= reclaimable
            if self._length[queue] < _EPSILON:
                self._total += self._length[queue]
                self._length[queue] = 0.0
                if self._drr is not None:
                    self._drr.deactivate(queue)
            if self._total < 0.0:
                self._total = 0.0
        self._magic[queue] = 0.0
        return reclaimable

    def fluid_rate_of(self, queue: int) -> float:
        """Current phantom service rate of one queue (after an advance).

        The fluid engine already holds every per-level active weight, so
        it answers in O(depth) with no memo; the eager disciplines read
        the policy's memoized share vector.
        """
        if self._gps is not None:
            return self._gps.rate_of(queue)
        return self._policy.fluid_rate_of(queue, self.active_mask(), self._rate)
