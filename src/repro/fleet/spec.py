"""Fleet specifications: per-aggregate plans, shard partitioning, seeding.

A *fleet* is a large population of independently rate-limited traffic
aggregates (the paper's ~100k-subscribers-per-machine deployment, §6).
:class:`FleetSpec` describes the whole population with a handful of
primitives plus one global seed; everything else — each aggregate's plan
rate, flow count, CC mix, RTTs, policy tree — is *derived* per aggregate
from ``(seed, aggregate_id)`` through named
:class:`~repro.sim.rng.RngFactory` streams.

That derivation rule is the root of **shard-count invariance**: an
aggregate's workload depends only on the global seed and its own id,
never on which shard simulates it or how many shards exist, so
partitioning the fleet into 1, 2 or 50 shards produces byte-identical
per-aggregate outcomes (pinned by ``tests/test_fleet.py`` and the
differential fuzzer's shard tier).

Shards partition the id space into **contiguous balanced blocks**
(:func:`shard_bounds`).  Contiguity matters beyond cache locality:
concatenating per-shard columnar summaries in shard order yields
aggregate-id order, so every floating-point reduction in the merge layer
(:mod:`repro.metrics.merge`) runs in one canonical order regardless of
the shard count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.churn import ChurnPlan, draw_plan
from repro.metrics.throughput import check_interval
from repro.net.impair import ImpairmentSpec
from repro.runner.cache import fleet_fingerprint
from repro.schemes import check_scheme
from repro.sim.rng import RngFactory
from repro.units import mbps
from repro.workload.spec import FlowSpec

__all__ = [
    "AggregatePlan",
    "FleetSpec",
    "ShardConfig",
    "churn_plan_for",
    "plan_for",
    "shard_bounds",
    "shard_configs",
]


@dataclass(frozen=True)
class FleetSpec:
    """A whole fleet of rate-limited aggregates, described generatively.

    A frozen dataclass of primitives so it pickles across process
    boundaries and its ``repr`` is a stable cache token.  ``seed`` fully
    determines every aggregate's plan and workload.
    """

    #: Total number of aggregates (subscribers) in the fleet.
    aggregates: int
    seed: int = 1
    scheme: str = "bcpqp"
    #: Run length; on-path events stop here.
    horizon: float = 1.2
    #: Measurement starts here (bins cover ``[warmup, horizon)``).
    warmup: float = 0.2
    #: Throughput bin width (the paper's 250 ms measurement window).
    window: float = 0.25
    #: Plan rates drawn per aggregate, in Mbit/s.
    rates_mbps: tuple[float, ...] = (0.5, 1.0, 2.0)
    #: Flow slots per aggregate are drawn from ``1..max_flows``.
    max_flows: int = 2
    #: CC algorithms drawn per flow.
    ccs: tuple[str, ...] = ("reno", "cubic")
    #: Per-flow base RTT drawn uniformly from this range (seconds).
    rtt_range: tuple[float, float] = (0.01, 0.08)
    #: Flow start times drawn uniformly from ``[0, max_start]``.
    max_start: float = 0.1
    #: Attach the runtime invariant checker inside every shard.
    validate: bool = False
    #: Optional per-flow impairment channels.  Each flow's impairment
    #: stream derives from ``(seed, "impair", aggregate, slot)``, never
    #: from shard layout, so impaired fleets stay shard-count invariant.
    impair: ImpairmentSpec | None = None
    #: Live-reconfiguration actions per aggregate: when positive, each
    #: aggregate draws its own :class:`~repro.churn.ChurnPlan` of this
    #: many actions from the ``(seed, "churn", aggregate)`` stream — a
    #: pure function of the global seed and the aggregate id, never of
    #: shard layout, so churned fleets stay shard-count invariant.  Zero
    #: constructs no plans, no drivers and draws no randomness.
    churn_actions: int = 0

    def __post_init__(self) -> None:
        check_scheme(self.scheme)
        if self.aggregates < 1:
            raise ValueError("aggregates must be >= 1")
        if self.churn_actions < 0:
            raise ValueError("churn_actions must be >= 0")
        if self.max_flows < 1:
            raise ValueError("max_flows must be >= 1")
        check_interval(self.horizon, self.warmup, self.window)
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup!r}")
        if self.horizon - self.warmup < self.window:
            raise ValueError("measurement extent shorter than one window")
        for name in ("rates_mbps", "ccs", "rtt_range"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            if not value:
                raise ValueError(f"{name} must not be empty, got {value!r}")

    @property
    def span(self) -> float:
        """Measured extent in seconds (``horizon - warmup``)."""
        return self.horizon - self.warmup


@dataclass(frozen=True)
class AggregatePlan:
    """One aggregate's derived plan: rate, flows and policy shape.

    Pure function of ``(spec.seed, aggregate)`` — see :func:`plan_for`.
    """

    aggregate: int
    rate: float
    specs: tuple[FlowSpec, ...]
    policy_kind: str  # "fair" | "weighted"
    weights: tuple[float, ...] | None

    @property
    def num_flows(self) -> int:
        return len(self.specs)

    @property
    def max_rtt(self) -> float:
        return max(s.rtt for s in self.specs)

    def policy_key(self) -> tuple:
        """Interning key: plans with equal keys share one compiled
        :class:`~repro.policy.tree.Policy` (the tree is immutable)."""
        return (self.policy_kind, self.num_flows, self.weights)


def plan_for(spec: FleetSpec, aggregate: int) -> AggregatePlan:
    """Derive aggregate ``aggregate``'s plan from the global seed.

    All randomness flows through one named stream keyed by the aggregate
    id, so the plan is identical no matter which shard (or how many
    shards) the fleet is partitioned into.
    """
    rng = RngFactory(spec.seed).stream("fleet-plan", aggregate)
    rate = mbps(rng.choice(spec.rates_mbps))
    n = rng.randint(1, spec.max_flows)
    policy_kind = "fair" if n == 1 else rng.choice(("fair", "weighted"))
    weights = None
    if policy_kind == "weighted":
        weights = tuple(float(rng.randint(1, 3)) for _ in range(n))
    lo_rtt, hi_rtt = spec.rtt_range
    specs = tuple(
        FlowSpec(
            slot=i,
            cc=rng.choice(spec.ccs),
            rtt=rng.uniform(lo_rtt, hi_rtt),
            start=rng.uniform(0.0, spec.max_start),
            weight=weights[i] if weights else 1.0,
        )
        for i in range(n)
    )
    return AggregatePlan(
        aggregate=aggregate,
        rate=rate,
        specs=specs,
        policy_kind=policy_kind,
        weights=weights,
    )


def churn_plan_for(spec: FleetSpec, plan: AggregatePlan) -> ChurnPlan | None:
    """Derive aggregate ``plan.aggregate``'s churn plan, or ``None``.

    Same derivation rule as :func:`plan_for`: one named stream keyed by
    the aggregate id, so the plan — and therefore every reconfiguration
    the aggregate's limiter undergoes — is identical no matter how the
    fleet is sharded.
    """
    if spec.churn_actions <= 0:
        return None
    rng = RngFactory(spec.seed).stream("churn", plan.aggregate)
    return draw_plan(
        rng,
        num_queues=plan.num_flows,
        rate=plan.rate,
        horizon=spec.horizon,
        actions=spec.churn_actions,
    )


def shard_bounds(aggregates: int, shards: int, index: int) -> tuple[int, int]:
    """Contiguous balanced partition: shard ``index``'s ``[lo, hi)`` ids.

    The first ``aggregates % shards`` shards hold one extra aggregate, so
    shard sizes differ by at most one and ids stay contiguous — the
    property the merge layer's canonical reduction order relies on.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if not 0 <= index < shards:
        raise ValueError(f"shard index {index} outside 0..{shards - 1}")
    if shards > aggregates:
        raise ValueError(
            f"cannot split {aggregates} aggregate(s) into {shards} shards"
        )
    base, extra = divmod(aggregates, shards)
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi


@dataclass(frozen=True)
class ShardConfig:
    """The unit of work a fleet sweep fans out: one shard of one fleet.

    Frozen and built of primitives, so it pickles across the process
    boundary and its ``repr`` is a stable cache token.
    """

    spec: FleetSpec
    shards: int
    index: int

    def __post_init__(self) -> None:
        shard_bounds(self.spec.aggregates, self.shards, self.index)

    @property
    def bounds(self) -> tuple[int, int]:
        """This shard's aggregate-id range ``[lo, hi)``."""
        return shard_bounds(self.spec.aggregates, self.shards, self.index)

    def code_fingerprint(self) -> str:
        """Cache fingerprint covering the scheme and fleet sources."""
        return fleet_fingerprint(
            self.spec.scheme,
            validate=self.spec.validate,
            churn=self.spec.churn_actions > 0,
        )


def shard_configs(spec: FleetSpec, shards: int) -> list[ShardConfig]:
    """The full sweep for ``spec`` partitioned into ``shards`` shards."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return [ShardConfig(spec=spec, shards=shards, index=i)
            for i in range(shards)]
