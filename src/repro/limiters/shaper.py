"""Multi-queue traffic shaper (§2.1).

Buffers real packets in per-queue drop-tail buffers and releases them at
the enforced rate, ordered by a hierarchical DRR scheduler realizing the
configured policy tree.  The cost meter charges the packet store on
enqueue, the packet fetch (pointer chase) plus a timer event on every
dequeue — the structural sources of the shaper's CPU cost.

Per-packet bookkeeping is O(1) per enqueue and O(tree depth) per dequeue:
head sizes and the total backlog are running state, and the scheduler is
told of each empty <-> occupied transition instead of rescanning the
queues (see :mod:`repro.sched.drr`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.churn import (
    PolicyUpdate,
    UpdateRejected,
    reclassify,
    stage_rate_and_policy,
)
from repro.classify.classifier import FlowClassifier
from repro.limiters.base import RateLimiter
from repro.limiters.costs import Op
from repro.net.packet import Packet
from repro.policy.tree import Policy
from repro.sched.drr import HierarchicalDrrScheduler
from repro.sim.simulator import Simulator

_ALU = Op.ALU.index
_MAP = Op.MAP.index
_PKT_STORE = Op.PKT_STORE.index
_PKT_FETCH = Op.PKT_FETCH.index
_TIMER = Op.TIMER.index
_SCHED = Op.SCHED.index


class Shaper(RateLimiter):
    """A policy-rich traffic shaper serving N queues at cumulative ``rate``.

    Parameters
    ----------
    rate:
        Cumulative service rate, bytes/second.
    policy:
        Sharing policy across the queues.
    classifier:
        Maps flows to queue indices; must agree with ``policy.num_queues``.
    queue_bytes:
        Per-queue drop-tail capacity in bytes.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        rate: float,
        policy: Policy,
        classifier: FlowClassifier,
        queue_bytes: float,
        name: str = "shaper",
    ) -> None:
        super().__init__(sim, name=name)
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if queue_bytes <= 0:
            raise ValueError(f"queue_bytes must be positive, got {queue_bytes!r}")
        if classifier.num_queues != policy.num_queues:
            raise ValueError(
                f"classifier has {classifier.num_queues} queues but policy "
                f"covers {policy.num_queues}"
            )
        self._rate = rate
        self._policy = policy
        self._classifier = classifier
        self._capacity = float(queue_bytes)
        self._scheduler = HierarchicalDrrScheduler(policy)
        n = policy.num_queues
        self._queues: list[deque[Packet]] = [deque() for _ in range(n)]
        self._queue_bytes = [0.0] * n
        #: Head packet size per queue (``None`` when empty), handed to the
        #: scheduler's ``select`` as is, and the sum of ``_queue_bytes``.
        self._heads: list[int | None] = [None] * n
        self._backlog = 0.0
        self._busy = False
        self.max_backlog_bytes = 0.0

    @property
    def rate(self) -> float:
        """Cumulative service rate in bytes/second."""
        return self._rate

    @property
    def num_queues(self) -> int:
        """Number of real packet queues."""
        return self._policy.num_queues

    @property
    def queue_capacity(self) -> float:
        """Per-queue drop-tail capacity in bytes."""
        return self._capacity

    def backlog_bytes(self, queue: int | None = None) -> float:
        """Bytes buffered in ``queue`` (or in all queues when ``None``)."""
        if queue is None:
            return self._backlog
        return self._queue_bytes[queue]

    def _stage_update(self, update: PolicyUpdate) -> Callable[[], None] | None:
        """Validate a live reconfiguration; return its commit thunk.

        The shaper buffers *real* packets, so migration is concrete: the
        scheduler is rebuilt for the new tree, surviving queues carry
        their backlog by index, and packets in removed queues (or above
        a shrunk capacity, trimmed from the tail — drop-tail semantics)
        are dropped and counted in the limiter stats.  A rate change
        takes effect at the next packet serialization; the dequeue
        already in flight finishes at the old rate.
        """
        if update.is_noop:
            return None

        def reject(reason: str) -> None:
            raise UpdateRejected(self.name, reason)

        rate, policy = stage_rate_and_policy(update, self.name)
        capacity: float | None = None
        caps = update.capacities
        if caps is not None:
            if not isinstance(caps, (int, float)):
                reject("the shaper has one per-queue capacity, not a vector")
            capacity = float(caps)
            if not capacity > 0:
                reject(f"queue_bytes must be positive, got {capacity!r}")
        n_cur = self.num_queues
        n_new = policy.num_queues if policy is not None else n_cur
        new_classifier = None
        if n_new != n_cur:
            new_classifier = reclassify(self._classifier, n_new)
            if new_classifier is None:
                reject(
                    f"classifier {type(self._classifier).__name__} cannot "
                    f"be rebuilt for {n_new} queues"
                )

        def commit() -> None:
            if rate is not None:
                self._rate = rate
            if capacity is not None:
                self._capacity = capacity
            if policy is not None:
                self._policy = policy
                # Migrate backlogs by index; removed queues drop whole.
                for qi in range(n_new, n_cur):
                    for packet in self._queues[qi]:
                        self._drop(packet, queue=qi)
                grown = max(0, n_new - n_cur)
                self._queues = self._queues[:n_new] + [
                    deque() for _ in range(grown)
                ]
                self._queue_bytes = self._queue_bytes[:n_new] + [0.0] * grown
            if new_classifier is not None:
                self._classifier = new_classifier
            if capacity is None and policy is None:
                return
            # Drop-tail trim: newest packets above the (possibly shrunk)
            # capacity go first, as if they had arrived full.
            emptied = []
            for qi, queue in enumerate(self._queues):
                if self._queue_bytes[qi] > self._capacity:
                    while queue and self._queue_bytes[qi] > self._capacity:
                        packet = queue.pop()
                        self._queue_bytes[qi] -= packet.size
                        self._drop(packet, queue=qi)
                    if not queue:
                        emptied.append(qi)
            # Re-derive the running state from the surviving backlogs.
            self._heads = [q[0].size if q else None for q in self._queues]
            self._backlog = sum(self._queue_bytes)
            if policy is None:
                for qi in emptied:
                    self._scheduler.deactivate(qi)
                return
            # A new tree starts from zero deficits and cursors, seeded with
            # the queues that still hold packets.
            self._scheduler = HierarchicalDrrScheduler(policy)
            for qi, queue in enumerate(self._queues):
                if queue:
                    self._scheduler.activate(qi)

        return commit

    def _on_packet(self, packet: Packet) -> None:
        qi = self._classifier.queue_of(packet.flow)
        counts = self.cost.counts
        counts[_MAP] += 1  # classification lookup
        size = packet.size
        queue_bytes = self._queue_bytes
        if queue_bytes[qi] + size > self._capacity:
            counts[_ALU] += 1
            self._drop(packet, queue=qi)
            return
        # Store the packet into buffer memory: the DDIO-evicted write §2.1
        # describes, plus the queue bookkeeping.
        counts[_PKT_STORE] += 1
        counts[_ALU] += 2
        queue = self._queues[qi]
        if not queue:
            self._heads[qi] = size
            self._scheduler.activate(qi)
        queue.append(packet)
        queue_bytes[qi] += size
        backlog = self._backlog = self._backlog + size
        if backlog > self.max_backlog_bytes:
            self.max_backlog_bytes = backlog
        if not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        heads = self._heads
        scheduler = self._scheduler
        qi = scheduler.select(heads)
        counts = self.cost.counts
        counts[_SCHED] += 2
        if qi is None:
            self._busy = False
            return
        self._busy = True
        queue = self._queues[qi]
        packet = queue.popleft()
        size = packet.size
        self._queue_bytes[qi] -= size
        self._backlog -= size
        if queue:
            heads[qi] = queue[0].size
        else:
            heads[qi] = None
            scheduler.deactivate(qi)
        scheduler.charge(size)
        # Serialize at the enforced rate, then emit and pick the next one.
        # Fetching the packet back from buffer memory (pointer chase across
        # per-flow queues) and arming the dequeue timer are the dominant
        # per-packet costs of a shaper.
        counts[_PKT_FETCH] += 1
        counts[_TIMER] += 1
        self._sim.schedule(size / self._rate, self._emit, packet)

    def _emit(self, packet: Packet) -> None:
        self._forward(packet)
        self._serve_next()
