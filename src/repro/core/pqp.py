"""PQP: the phantom-queue policer (§3).

An arriving packet is classified to a phantom queue; if the queue has
capacity for the packet's size (after applying pending phantom dequeues)
the real packet is forwarded immediately and a phantom copy enqueued,
otherwise it is dropped.  No packets are buffered; no dequeue timers run.
"""

from __future__ import annotations

from typing import Callable

from repro.churn import (
    PolicyUpdate,
    UpdateRejected,
    reclassify,
    stage_rate_and_policy,
    staged_positive,
)
from repro.classify.classifier import FlowClassifier
from repro.core.phantom import PhantomQueueSet
from repro.limiters.base import RateLimiter
from repro.limiters.costs import Op
from repro.net.packet import Packet
from repro.policy.tree import Policy
from repro.sim.simulator import Simulator

_ALU = Op.ALU.index
_MAP = Op.MAP.index


class PQP(RateLimiter):
    """Policer with multiple phantom queues.

    Parameters
    ----------
    rate:
        Cumulative enforced rate, bytes/second.
    policy:
        Rate-sharing policy across phantom queues.
    classifier:
        Flow-to-queue mapping; must cover ``policy.num_queues``.
    queue_bytes:
        Phantom buffer size per queue — either a scalar applied to every
        queue or a per-queue list.  §3.5: must be at least the Reno
        requirement ``BDP^2/18 x MSS`` for correct steady-state rates.
    service:
        Phantom drain engine: ``"fluid"`` (GPS idealization via the
        virtual-time engine, the default) or ``"fluid-ref"`` (the
        reference piecewise loop from :mod:`repro.validate.reference`,
        decision-equivalent to ``fluid``) — see
        :class:`~repro.core.phantom.PhantomQueueSet`.
    ecn_mark_fraction:
        Optional AQM extension (§3.3 permits arrival-time AQM on phantom
        queues): ECN-capable packets accepted while the queue occupancy
        exceeds this fraction of capacity are CE-marked instead of waiting
        for tail drops — early congestion signals without packet loss.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        rate: float,
        policy: Policy,
        classifier: FlowClassifier,
        queue_bytes: float | list[float],
        service: str = "fluid",
        ecn_mark_fraction: float | None = None,
        name: str = "pqp",
    ) -> None:
        super().__init__(sim, name=name)
        if classifier.num_queues != policy.num_queues:
            raise ValueError(
                f"classifier has {classifier.num_queues} queues but policy "
                f"covers {policy.num_queues}"
            )
        if isinstance(queue_bytes, (int, float)):
            capacities = [float(queue_bytes)] * policy.num_queues
        else:
            capacities = [float(b) for b in queue_bytes]
        if ecn_mark_fraction is not None and not 0 < ecn_mark_fraction <= 1:
            raise ValueError(
                f"ecn_mark_fraction must be in (0, 1], got {ecn_mark_fraction!r}"
            )
        self._classifier = classifier
        self._ecn_mark_fraction = ecn_mark_fraction
        self.ecn_marked_packets = 0
        self.queues = PhantomQueueSet(
            policy, rate, capacities, start_time=sim.now, service=service
        )

    @property
    def rate(self) -> float:
        """Enforced aggregate rate in bytes/second."""
        return self.queues.rate

    @property
    def num_queues(self) -> int:
        """Number of phantom queues."""
        return self.queues.num_queues

    def _stage_update(self, update: PolicyUpdate) -> Callable[[], None] | None:
        """Validate a live reconfiguration; return its commit thunk.

        Pure: every check runs against plain parameters (building a
        candidate :class:`Policy` has no side effects on the limiter),
        so a rejection leaves all state — including the lazy phantom
        drain — byte-identical.
        """
        if update.is_noop:
            return None

        def reject(reason: str) -> None:
            raise UpdateRejected(self.name, reason)

        rate, policy = stage_rate_and_policy(update, self.name)

        n_cur = self.num_queues
        n_new = policy.num_queues if policy is not None else n_cur
        caps: list[float] | None = None
        capacities = update.capacities
        if capacities is not None:
            if isinstance(capacities, (int, float)):
                caps = [float(capacities)] * n_new
            else:
                caps = [float(c) for c in capacities]
                if len(caps) != n_new:
                    reject(f"need {n_new} capacities, got {len(caps)}")
            for c in caps:
                staged_positive(self.name, "capacities", c)
        elif n_new != n_cur:
            reject(
                f"queue count changed ({n_cur} -> {n_new}) without capacities"
            )
        new_classifier = None
        if n_new != n_cur:
            new_classifier = reclassify(self._classifier, n_new)
            if new_classifier is None:
                reject(
                    f"classifier {type(self._classifier).__name__} cannot "
                    f"be rebuilt for {n_new} queues"
                )

        def commit() -> None:
            now = self._sim.now
            self.queues.reconfigure(
                now, policy=policy, rate=rate, capacities=caps
            )
            if new_classifier is not None:
                self._classifier = new_classifier
            self._after_reconfigure(now)

        return commit

    def _after_reconfigure(self, now: float) -> None:
        """Hook: per-scheme state migration after the phantom commit
        (BC-PQP closes its accounting windows here)."""
        del now

    def _on_packet(self, packet: Packet) -> None:
        """The admit decision: forward the packet at once if its phantom
        queue has room for it, else drop it."""
        queues = self.queues
        counts = self.cost.counts
        now = self._sim._now
        # Drain up to now, unless a packet at this instant already did (a
        # zero-width advance spans no piece; a clock that went backwards
        # still reaches advance and raises there).  Counter updates: lazy
        # drain recomputes (amortized), then an occupancy check and an
        # enqueue increment per packet, all cache-resident.
        # ``drain_recomputes`` counts the *paper's* per-packet drain work
        # (linear pieces), which every service discipline reports
        # identically: the modeled cost is pinned to the mechanism, not to
        # how much Python bookkeeping the engines skip (see
        # repro.limiters.costs).
        if now != queues._clock:
            counts[_ALU] += 2 * queues.advance(now)
        counts[_MAP] += 1
        counts[_ALU] += 3
        size = packet.size
        qi = self._classifier.queue_of(packet.flow)
        if queues.offer(qi, size) < 0.0:
            self._drop(packet, qi)
            return
        fraction = self._ecn_mark_fraction
        if (
            fraction is not None
            and packet.ecn_capable
            and queues.length(qi) > fraction * queues.capacity(qi)
        ):
            packet.ce = True
            self.ecn_marked_packets += 1
        stats = self.stats
        stats.forwarded_packets += 1
        stats.forwarded_bytes += size
        self._downstream.receive(packet)
