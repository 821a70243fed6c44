"""Live policy churn: atomic runtime reconfiguration of rate limiters.

Production enforcers do not restart when a customer changes their rate
plan.  This module is the transactional front door for mid-run policy
mutation — rate changes, weight/priority changes, queue-count resizes
and full policy-tree replacement — applied to a running limiter through
``limiter.apply_update(update)``:

* **Validate first, then mutate.**  Every update is checked in full
  before any state is touched.  An invalid update raises
  :class:`UpdateRejected` (a typed error naming the limiter and reason)
  and leaves the limiter byte-identical to before the call — not even
  the lazy drain state is settled.  There are no partial trees.
* **Commit atomically.**  A valid update settles the engine at the
  mutation instant, migrates surviving per-queue state, and starts a new
  mutation *epoch* (see :meth:`repro.core.phantom.PhantomQueueSet.
  reconfigure` for the migration rules; DESIGN.md "Policy churn").
* **An all-``None`` update is an accepted no-op** that touches nothing,
  so applying it zero, one or many times yields bit-identical runs.

On top sit the deterministic plan types: a :class:`ChurnPlan` is a
JSON-primitive sequence of timed :class:`ChurnAction` mutations, carried
on configs (``AggregateConfig.churn`` / ``FleetSpec.churn``) and driven
against the limiter by a :class:`ChurnDriver` riding one soft-reschedule
:class:`~repro.sim.timer.Timer`.  An empty plan constructs no driver and
schedules nothing — a churn-free run stays byte-identical to a build
without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Sequence

from repro.classify.classifier import (
    FlowClassifier,
    HashClassifier,
    SlotClassifier,
)
from repro.policy.tree import Policy
from repro.sim.timer import Timer
from repro.units import require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (limiters import us)
    from repro.limiters.base import RateLimiter
    from repro.sim.simulator import Simulator


class ChurnError(Exception):
    """Base class for live-reconfiguration errors."""


class UpdateRejected(ChurnError):
    """A :class:`PolicyUpdate` failed validation.

    Raised *before* any mutation: the limiter's state — counters, lazy
    drain clocks, everything — is byte-identical to before
    the ``apply_update`` call, so reject-then-retry equals retry alone.
    """

    def __init__(self, limiter: str, reason: str) -> None:
        super().__init__(f"{limiter}: update rejected: {reason}")
        self.limiter = limiter
        self.reason = reason


@dataclass(frozen=True)
class PolicyUpdate:
    """One transactional reconfiguration request.

    All fields default to ``None`` (= leave unchanged); an all-``None``
    update is an accepted no-op.  ``policy`` replaces the whole sharing
    tree (and may change the queue count); ``weights``/``priorities``
    are the flat-tree shorthand (mutually exclusive with ``policy``,
    their length sets the new queue count).  ``capacities`` resizes the
    per-queue buffers — a scalar applies to every queue, and it is
    *required* whenever the queue count changes.  Occupancy above a
    shrunk capacity is evicted at the mutation instant (accounted in
    ``PhantomQueueSet.evicted_bytes``, never silently lost).
    """

    rate: float | None = None
    policy: object | None = None  # repro.policy.tree.Policy
    weights: tuple[float, ...] | None = None
    priorities: tuple[int, ...] | None = None
    capacities: float | tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.weights is not None and not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(self.weights))
        if self.priorities is not None and not isinstance(self.priorities, tuple):
            object.__setattr__(self, "priorities", tuple(self.priorities))
        caps = self.capacities
        if caps is not None and not isinstance(caps, (int, float, tuple)):
            object.__setattr__(self, "capacities", tuple(caps))

    @property
    def is_noop(self) -> bool:
        """True when nothing is being changed (the accepted no-op)."""
        return (
            self.rate is None
            and self.policy is None
            and self.weights is None
            and self.priorities is None
            and self.capacities is None
        )


@dataclass(frozen=True)
class ChurnAction:
    """One timed mutation of a :class:`ChurnPlan` — JSON primitives only.

    ``weights``/``priorities`` describe a flat prioritized tree whose
    length is the new queue count (leaf add/remove *is* policy-tree node
    add/remove for the flat policies aggregates actually carry);
    ``capacity_scale`` multiplies the limiter's current reference
    capacity.  An action with only ``time`` set materializes as the
    accepted no-op update.
    """

    time: float
    rate: float | None = None
    weights: tuple[float, ...] | None = None
    priorities: tuple[int, ...] | None = None
    capacity_scale: float | None = None

    def __post_init__(self) -> None:
        if self.weights is not None and not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(self.weights))
        if self.priorities is not None and not isinstance(self.priorities, tuple):
            object.__setattr__(self, "priorities", tuple(self.priorities))

    def to_update(self, limiter: "RateLimiter") -> PolicyUpdate:
        """Materialize against ``limiter``'s *current* state.

        Resolution happens at fire time (not plan-build time) so scales
        compose across earlier actions; no limiter state is touched.
        """
        n_cur = getattr(limiter, "num_queues", 1)
        if self.weights is not None:
            n_new = len(self.weights)
        elif self.priorities is not None:
            n_new = len(self.priorities)
        else:
            n_new = n_cur
        capacities: float | None = None
        if self.capacity_scale is not None or n_new != n_cur:
            scale = 1.0 if self.capacity_scale is None else self.capacity_scale
            capacities = reference_capacity(limiter) * scale
        return PolicyUpdate(
            rate=self.rate,
            weights=self.weights,
            priorities=self.priorities,
            capacities=capacities,
        )


@dataclass(frozen=True)
class ChurnPlan:
    """A deterministic sequence of timed mutations for one limiter.

    Round-trips through ``dataclasses.asdict`` / JSON (actions rehydrate
    from plain dicts), has a deterministic repr (cache tokens), and an
    empty plan is inert by construction: no driver, no timer, no state.
    """

    actions: tuple[ChurnAction, ...] = ()

    def __post_init__(self) -> None:
        actions = tuple(
            a if isinstance(a, ChurnAction) else ChurnAction(**a)
            for a in self.actions
        )
        object.__setattr__(self, "actions", actions)

    @property
    def enabled(self) -> bool:
        """True when the plan holds at least one action."""
        return bool(self.actions)

    def __bool__(self) -> bool:
        return self.enabled


def reference_capacity(limiter: "RateLimiter") -> float:
    """The limiter's current per-queue/bucket capacity in bytes.

    The anchor ``capacity_scale`` actions scale against; 0.0 for
    limiters with no resizable buffer (their validation then rejects
    the resulting non-positive capacity with a typed error).
    """
    queues = getattr(limiter, "queues", None)  # PQP / BC-PQP
    if queues is not None:
        return queues.capacity(0)
    cap = getattr(limiter, "queue_capacity", None)  # shaper
    if cap is not None:
        return cap
    cap = getattr(limiter, "bucket_bytes", None)  # policers
    if cap is not None:
        return cap
    return 0.0


def reclassify(classifier: FlowClassifier, num_queues: int) -> FlowClassifier | None:
    """Rebuild ``classifier`` for a new queue count, or ``None`` if the
    mapping cannot be carried over (the caller then rejects the update).

    Slot and hash classifiers rebuild naturally; anything else survives
    only when it already covers the new count.
    """
    if isinstance(classifier, SlotClassifier):
        return SlotClassifier(num_queues)
    if isinstance(classifier, HashClassifier):
        return HashClassifier(num_queues, salt=classifier._salt)
    if classifier.num_queues == num_queues:
        return classifier
    return None


def staged_positive(limiter: str, name: str, value: float) -> float:
    """:func:`~repro.units.require_positive` for a field of a staged
    update: the failure is an :class:`UpdateRejected` for ``limiter``."""
    try:
        return require_positive(name, value)
    except ValueError as exc:
        raise UpdateRejected(limiter, str(exc)) from None


def stage_rate_and_policy(
    update: PolicyUpdate, limiter: str
) -> tuple[float | None, Policy | None]:
    """Validate the ``rate`` / ``policy`` / ``weights`` / ``priorities``
    fields of ``update`` and build its candidate :class:`Policy`.

    The part of staging every policy-aware limiter shares.  Pure: returns
    ``(rate, policy)`` (each ``None`` = unchanged) or raises
    :class:`UpdateRejected` on behalf of ``limiter``.
    """
    rate = update.rate
    if rate is not None:
        staged_positive(limiter, "rate", rate)
    policy = update.policy
    if policy is not None and not isinstance(policy, Policy):
        raise UpdateRejected(
            limiter, f"policy must be a Policy, got {type(policy).__name__}"
        )
    weights = update.weights
    priorities = update.priorities
    if weights is None and priorities is None:
        return rate, policy
    if policy is not None:
        raise UpdateRejected(
            limiter, "policy and weights/priorities are mutually exclusive"
        )
    if None not in (weights, priorities) and len(weights) != len(priorities):
        raise UpdateRejected(
            limiter,
            f"weights cover {len(weights)} queues but priorities "
            f"cover {len(priorities)}",
        )
    try:
        if priorities is None:
            policy = Policy.weighted(weights)
        else:
            policy = Policy.prioritized(
                priorities, list(weights) if weights else None
            )
    except ValueError as exc:
        raise UpdateRejected(limiter, str(exc))
    return rate, policy


class ChurnDriver:
    """Applies a :class:`ChurnPlan` to one limiter at the scheduled times.

    One soft-reschedule timer walks the time-sorted actions; all actions
    due at one instant apply in plan order.  Rejected updates (typed
    :class:`UpdateRejected`) are counted, never fatal — a scheme that
    cannot express a mutation (a token-bucket policer offered weights)
    simply records the rejection and the run continues, which is exactly
    the per-scheme comparison the churn workload reports.
    """

    def __init__(
        self, sim: "Simulator", limiter: "RateLimiter", plan: ChurnPlan
    ) -> None:
        self._sim = sim
        self._limiter = limiter
        self._actions = sorted(plan.actions, key=lambda a: a.time)
        self._next = 0
        #: Committed / rejected mutation counts for reporting.
        self.applied = 0
        self.rejected = 0
        self._timer: Timer | None = None
        if self._actions:
            self._timer = Timer(sim, self._fire)
            self._arm()

    def _arm(self) -> None:
        if self._next >= len(self._actions):
            return
        due = self._actions[self._next].time
        now = self._sim.now
        assert self._timer is not None
        self._timer.schedule_at(due if due > now else now)

    def _fire(self) -> None:
        now = self._sim.now
        actions = self._actions
        while self._next < len(actions) and actions[self._next].time <= now:
            action = actions[self._next]
            self._next += 1
            try:
                self._limiter.apply_update(action.to_update(self._limiter))
            except UpdateRejected:
                self.rejected += 1
            else:
                self.applied += 1
        self._arm()

    def stop(self) -> None:
        """Cancel the pending action timer (teardown)."""
        if self._timer is not None:
            self._timer.cancel()


#: Weight values plan generation draws from (small integers keep repr
#: and JSON exact).
_WEIGHT_CHOICES = (1.0, 2.0, 4.0)


def draw_plan(
    rng: Random,
    *,
    num_queues: int,
    rate: float,
    horizon: float,
    actions: int,
    max_extra_queues: int = 2,
    kinds: Sequence[str] = ("rate", "weights", "priorities", "resize", "capacity", "noop"),
) -> ChurnPlan:
    """Draw a deterministic :class:`ChurnPlan` from ``rng``.

    Queue counts never shrink below ``num_queues`` — live flow slots
    0..num_queues-1 must stay classifiable — so "remove queue" means
    removing a previously added one.  Action times land in (0,
    ``horizon``); weights/priorities track the evolving queue count.
    """
    if actions < 0:
        raise ValueError(f"actions must be >= 0, got {actions!r}")
    drawn: list[ChurnAction] = []
    n = num_queues
    for _ in range(actions):
        time = rng.uniform(0.0, horizon)
        kind = rng.choice(list(kinds))
        if kind == "rate":
            drawn.append(ChurnAction(time, rate=rate * rng.uniform(0.5, 1.5)))
        elif kind == "weights":
            weights = tuple(rng.choice(_WEIGHT_CHOICES) for _ in range(n))
            drawn.append(ChurnAction(time, weights=weights))
        elif kind == "priorities":
            # At least one queue at top priority keeps the tree sane.
            priorities = [rng.choice((0, 0, 1)) for _ in range(n)]
            priorities[rng.randrange(n)] = 0
            drawn.append(ChurnAction(time, priorities=tuple(priorities)))
        elif kind == "resize":
            n = num_queues + rng.randint(0, max_extra_queues)
            drawn.append(
                ChurnAction(
                    time,
                    weights=(1.0,) * n,
                    capacity_scale=rng.uniform(0.75, 1.5),
                )
            )
        elif kind == "capacity":
            drawn.append(
                ChurnAction(time, capacity_scale=rng.uniform(0.5, 2.0))
            )
        else:  # noop
            drawn.append(ChurnAction(time))
    return ChurnPlan(actions=tuple(drawn))
