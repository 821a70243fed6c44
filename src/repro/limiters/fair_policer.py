"""FairPolicer baseline (Shan et al., INFOCOM'21 / ToN'23).

Reimplemented from the description in the BC-PQP paper (§2.2, §6):

* token generation at rate ``r`` is *distributed among the active flows'
  buckets* — equally, or weight-proportionally for the §6.3.2 weighted
  variant;
* the main bucket holds the unallocated capacity ``U = B - sum(t_i)``, and
  each per-flow bucket's *capacity* is dynamically set to ``U`` ("equal to
  the number of tokens remaining in the main token bucket").  This negative
  feedback keeps any one flow from hoarding the whole budget, but gives
  every flow the *same* cap regardless of weight — the sizing rule that
  works for equal sharing and breaks weighted sharing (Figure 6b);
* token generation and allocation happen on every packet arrival — the
  per-packet work that makes FP costlier than a batched policer (§6.2).

Known behavioural consequences reproduced here: a large-RTT AIMD flow whose
sawtooth needs more buffered tokens than the dynamic cap allows cannot
reach its fair share (§6.3.1), and bucket-fulls of stored tokens produce
bursts larger than BC-PQP's (Figure 4b).
"""

from __future__ import annotations

from typing import Callable

from repro.churn import PolicyUpdate, UpdateRejected, staged_positive
from repro.classify.classifier import FlowClassifier
from repro.limiters.base import RateLimiter
from repro.limiters.costs import Op
from repro.net.packet import Packet
from repro.sim.simulator import Simulator
from repro.units import require_positive


class FairPolicer(RateLimiter):
    """Token-bucket policer with per-flow token buckets for fairness.

    Flows are identified by their classifier queue index (one bucket per
    slot, as with per-flow phantom queues).
    """

    #: A flow is considered inactive after this long without a packet.
    ACTIVITY_TIMEOUT = 1.0

    def __init__(
        self,
        sim: Simulator,
        *,
        rate: float,
        bucket_bytes: float,
        classifier: FlowClassifier,
        weights: list[float] | None = None,
        name: str = "fair_policer",
    ) -> None:
        super().__init__(sim, name=name)
        require_positive("rate", rate)
        require_positive("bucket_bytes", bucket_bytes)
        n = classifier.num_queues
        if weights is None:
            weights = [1.0] * n
        if len(weights) != n:
            raise ValueError(f"need {n} weights, got {len(weights)}")
        self._rate = rate
        self._bucket = float(bucket_bytes)
        self._classifier = classifier
        self._weights = list(weights)

        self._flow_tokens = [0.0] * n
        self._last_seen = [float("-inf")] * n
        self._last_refill = sim.now
        # Tokens generated while every bucket was capped; redistributed as
        # soon as room appears (work conservation), bounded by B.
        self._spare = 0.0

    @property
    def rate(self) -> float:
        """Enforced aggregate rate in bytes/second."""
        return self._rate

    @property
    def num_queues(self) -> int:
        """Number of per-flow buckets (= classifier slots)."""
        return self._classifier.num_queues

    def _stage_update(self, update: PolicyUpdate) -> Callable[[], None] | None:
        """FP can change rate, per-flow weights and the shared budget.

        Queue-count changes and tree-shaped policies are rejected: FP's
        sizing rule has no notion of hierarchy (§6.3.2), and its per-flow
        state is bound to the classifier's slot count.
        """
        if update.is_noop:
            return None
        if update.policy is not None or update.priorities is not None:
            raise UpdateRejected(
                self.name, "FairPolicer carries flat weights, not a policy tree"
            )
        rate = update.rate
        if rate is not None:
            staged_positive(self.name, "rate", rate)
        weights = update.weights
        if weights is not None:
            n = self.num_queues
            if len(weights) != n:
                raise UpdateRejected(
                    self.name, f"need {n} weights, got {len(weights)}"
                )
            if any(w <= 0 for w in weights):
                raise UpdateRejected(self.name, "weights must be positive")
        bucket: float | None = None
        caps = update.capacities
        if caps is not None:
            if not isinstance(caps, (int, float)):
                raise UpdateRejected(
                    self.name, "FairPolicer has one shared budget, not per-queue"
                )
            bucket = staged_positive(self.name, "bucket", float(caps))

        def commit() -> None:
            now = self._sim.now
            # Fold the generation pending at the old rate into the spare
            # pool (the next arrival distributes it), then switch.
            self._spare = min(
                self._spare + self._rate * (now - self._last_refill),
                self._bucket,
            )
            self._last_refill = now
            if rate is not None:
                self._rate = rate
            if weights is not None:
                self._weights = list(weights)
            if bucket is not None:
                self._bucket = bucket
                if self._spare > bucket:
                    self._spare = bucket

        return commit

    @property
    def bucket_bytes(self) -> float:
        """Total token budget ``B`` in bytes."""
        return self._bucket

    def flow_bucket(self, queue: int) -> float:
        """Tokens currently held by flow slot ``queue`` (for tests)."""
        return self._flow_tokens[queue]

    def unallocated(self) -> float:
        """Main-bucket level: the unallocated share of ``B``."""
        return max(self._bucket - sum(self._flow_tokens), 0.0)

    def _on_packet(self, packet: Packet) -> None:
        now = self._sim.now
        qi = self._classifier.queue_of(packet.flow)
        self.cost.charge(Op.MAP, 1)  # per-flow state lookup

        # Expire idle flows; their stored tokens return to the main bucket
        # (i.e. are simply forgotten — U grows as sum(t_i) shrinks).
        cutoff = now - self.ACTIVITY_TIMEOUT
        for i, seen in enumerate(self._last_seen):
            if seen < cutoff and self._flow_tokens[i] > 0:
                self._flow_tokens[i] = 0.0
        self._last_seen[qi] = now

        # Per-packet token generation and allocation (FP cannot batch
        # this: the dynamic cap needs up-to-date per-flow buckets, §6.2).
        active = [
            i for i, seen in enumerate(self._last_seen) if seen >= cutoff
        ]
        new_tokens = self._rate * (now - self._last_refill) + self._spare
        self._spare = 0.0
        self._last_refill = now
        cap = self.unallocated()
        total_weight = sum(self._weights[i] for i in active) or 1.0
        leftover = 0.0
        for i in active:
            grant = new_tokens * self._weights[i] / total_weight
            # Dynamic per-flow capacity: the same cap for every flow.
            room = max(cap - self._flow_tokens[i], 0.0)
            taken = min(grant, room)
            self._flow_tokens[i] += taken
            leftover += grant - taken
        # Tokens no bucket could hold wait in the main bucket (capped).
        self._spare = min(leftover, self._bucket)
        self.cost.charge(Op.ALU, 4 + 2 * len(active))

        if self._flow_tokens[qi] >= packet.size:
            self._flow_tokens[qi] -= packet.size
            self._forward(packet)
        else:
            self._drop(packet, queue=qi)
