"""Factory for the rate-limiting schemes compared in the evaluation (§6.1).

Sizing follows the paper:

* **Shaper** — per-queue buffers of one maximum BDP.
* **Policer** — token bucket of one maximum BDP.
* **Policer+** — token bucket sized for correct rate enforcement: the max
  of the New Reno and Cubic requirements at the largest RTT (O(BDP^2)).
* **FairPolicer (FP)** — per-flow buckets, shared bucket sized like Policer+.
* **PQP** — phantom queues at the Reno minimum (BDP^2/18 x MSS).
* **BC-PQP** — phantom queues at "a very high value" (10x the Reno
  minimum); burst control with theta+ = 1.5, theta- = 0.5, T = 100 ms.
"""

from __future__ import annotations

from repro.classify.classifier import (
    FlowClassifier,
    SingleQueueClassifier,
    SlotClassifier,
)
from repro.core.bcpqp import BCPQP
from repro.core.phantom import PhantomQueueSet
from repro.core.pqp import PQP
from repro.core.sizing import (
    bcpqp_default_buffer,
    bdp_bucket,
    policer_plus_bucket,
    reno_min_phantom_buffer,
)
from repro.limiters.base import RateLimiter
from repro.limiters.fair_policer import FairPolicer
from repro.limiters.shaper import Shaper
from repro.limiters.token_bucket import TokenBucketPolicer
from repro.policy.tree import Policy
from repro.sim.simulator import Simulator
from repro.units import MSS, ms

#: Scheme identifiers accepted by :func:`make_limiter`.
SCHEMES = (
    "shaper",
    "shaper-fifo",
    "policer",
    "policer+",
    "fairpolicer",
    "pqp",
    "bcpqp",
)


def check_scheme(scheme: str, phantom_service: str = "fluid") -> None:
    """Reject a ``scheme`` / ``phantom_service`` pair no limiter exists
    for, naming the field, the value and the legal set.

    The config dataclasses call this at construction, so a misspelt cell
    fails where it is written - before any plan, recorder or worker
    process is built - rather than from :func:`make_limiter` inside one.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if phantom_service not in PhantomQueueSet.SERVICES:
        raise ValueError(
            f"phantom_service must be one of {PhantomQueueSet.SERVICES}, "
            f"got {phantom_service!r}"
        )


#: Minimum practical bucket/queue so tiny BDPs still pass single packets.
_MIN_BUCKET = 2 * MSS
_MIN_SHAPER_QUEUE = 16 * MSS


def make_limiter(
    sim: Simulator,
    scheme: str,
    *,
    rate: float,
    num_queues: int,
    max_rtt: float,
    policy: Policy | None = None,
    weights: list[float] | None = None,
    theta_plus: float = 1.5,
    theta_minus: float = 0.5,
    period: float = ms(100),
    queue_bytes: float | None = None,
    phantom_service: str = "fluid",
    name: str | None = None,
) -> RateLimiter:
    """Build a configured rate limiter.

    ``policy`` defaults to per-flow fairness over ``num_queues`` (or
    weighted fairness when ``weights`` is given).  ``queue_bytes``
    overrides the paper's default sizing when provided.
    ``phantom_service`` selects the pqp/bcpqp drain engine (one of
    :attr:`PhantomQueueSet.SERVICES
    <repro.core.phantom.PhantomQueueSet.SERVICES>`); other schemes
    ignore it.
    """
    check_scheme(scheme, phantom_service)
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    if max_rtt <= 0:
        raise ValueError(f"max_rtt must be positive, got {max_rtt!r}")
    if policy is None:
        policy = (
            Policy.weighted(weights) if weights else Policy.fair(num_queues)
        )
    if policy.num_queues != num_queues:
        raise ValueError(
            f"policy covers {policy.num_queues} queues, expected {num_queues}"
        )
    label = name or scheme
    classifier: FlowClassifier = SlotClassifier(num_queues)

    if scheme == "shaper":
        per_queue = queue_bytes or max(bdp_bucket(rate, max_rtt), _MIN_SHAPER_QUEUE)
        return Shaper(
            sim,
            rate=rate,
            policy=policy,
            classifier=classifier,
            queue_bytes=per_queue,
            name=label,
        )
    if scheme == "shaper-fifo":
        per_queue = queue_bytes or max(
            num_queues * bdp_bucket(rate, max_rtt), _MIN_SHAPER_QUEUE
        )
        return Shaper(
            sim,
            rate=rate,
            policy=Policy.fair(1),
            classifier=SingleQueueClassifier(),
            queue_bytes=per_queue,
            name=label,
        )
    if scheme == "policer":
        bucket = queue_bytes or max(bdp_bucket(rate, max_rtt), _MIN_BUCKET)
        return TokenBucketPolicer(sim, rate=rate, bucket_bytes=bucket, name=label)
    if scheme == "policer+":
        bucket = queue_bytes or max(policer_plus_bucket(rate, max_rtt), _MIN_BUCKET)
        return TokenBucketPolicer(sim, rate=rate, bucket_bytes=bucket, name=label)
    if scheme == "fairpolicer":
        bucket = queue_bytes or max(policer_plus_bucket(rate, max_rtt), _MIN_BUCKET)
        return FairPolicer(
            sim,
            rate=rate,
            bucket_bytes=bucket,
            classifier=classifier,
            weights=weights,
            name=label,
        )
    if scheme == "pqp":
        per_queue = queue_bytes or max(
            reno_min_phantom_buffer(rate, max_rtt), _MIN_BUCKET
        )
        return PQP(
            sim,
            rate=rate,
            policy=policy,
            classifier=classifier,
            queue_bytes=per_queue,
            service=phantom_service,
            name=label,
        )
    # bcpqp
    per_queue = queue_bytes or max(bcpqp_default_buffer(rate, max_rtt), _MIN_BUCKET)
    return BCPQP(
        sim,
        rate=rate,
        policy=policy,
        classifier=classifier,
        queue_bytes=per_queue,
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        period=period,
        service=phantom_service,
        name=label,
    )
