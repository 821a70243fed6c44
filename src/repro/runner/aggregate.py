"""Picklable aggregate-simulation configs, outcomes, and the worker entry.

:func:`simulate_aggregate` is the unit of work the sweep runner fans out:
one fully-specified, independently-seeded aggregate simulation in, one
measurement bundle out.  Both sides are plain picklable dataclasses — no
simulator, limiter or event-heap state crosses the process boundary, only
the numbers the figures need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.churn import ChurnDriver, ChurnPlan
from repro.limiters.base import RateLimiter
from repro.metrics.fairness import jain_index
from repro.net.impair import ImpairmentSpec
from repro.metrics.series import TimeSeries
from repro.metrics.throughput import MEASUREMENT_WINDOW, check_interval
from repro.policy.tree import Policy
from repro.runner.cache import scheme_fingerprint
from repro.scenario import AggregateScenario, BottleneckSpec, FlowRecord
from repro.schemes import check_scheme, make_limiter
from repro.sim.simulator import Simulator
from repro.workload.spec import FlowSpec


@dataclass(frozen=True)
class AggregateConfig:
    """Everything needed to simulate and measure one aggregate.

    A frozen dataclass of primitives (plus the frozen spec/policy types),
    so it pickles across process boundaries and its ``repr`` is a stable
    cache token.  ``seed`` fully determines the run's randomness.
    """

    scheme: str
    specs: tuple[FlowSpec, ...]
    rate: float
    max_rtt: float
    horizon: float
    warmup: float
    seed: int = 1
    bottleneck: BottleneckSpec | None = None
    weights: tuple[float, ...] | None = None
    policy: Policy | None = None
    queue_bytes: float | None = None
    window: float = MEASUREMENT_WINDOW
    #: Phantom drain engine for pqp/bcpqp (``PhantomQueueSet.SERVICES``);
    #: ignored by other schemes.
    phantom_service: str = "fluid"
    #: Attach the runtime invariant checker to the run.  Outcomes are
    #: byte-identical either way (the checker is a pure observer), but
    #: the field participates in the config ``repr`` so validated and
    #: unvalidated runs never share cache entries.
    validate: bool = False
    # Read by the frozen benchmarks/suite/workloads.py:230; selects nothing.
    batch: int | None = None
    #: Optional impairment channels (loss/jitter/reorder/corrupt plus a
    #: capacity trace) applied to the scenario.  ``None`` and an
    #: all-disabled spec both construct nothing and draw no randomness,
    #: so clean runs stay byte-identical.
    impair: ImpairmentSpec | None = None
    #: Optional live-reconfiguration plan (see :mod:`repro.churn`).
    #: ``None`` and an empty plan both construct no driver, schedule no
    #: timer and consume no simulator seqs, so churn-free runs stay
    #: byte-identical to pre-churn builds.
    churn: ChurnPlan | None = None

    def __post_init__(self) -> None:
        check_scheme(self.scheme, self.phantom_service)
        check_interval(self.horizon, self.warmup, self.window)
        # Tolerate list inputs (call sites build grids with lists) while
        # keeping the stored config hashable/immutable.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise ValueError("specs must name at least one flow, got ()")
        if self.weights is not None and not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(self.weights))

    def code_fingerprint(self) -> str:
        """Cache fingerprint covering this config's scheme code."""
        return scheme_fingerprint(
            self.scheme,
            validate=self.validate,
            churn=self.churn is not None,
        )


@dataclass
class AggregateOutcome:
    """Everything measured from one aggregate under one scheme.

    It does not hold the limiter or scenario objects, so it pickles cleanly;
    the few cross-object measurements figures need (flow completion records,
    secondary-bottleneck drops) are extracted eagerly.
    """

    scheme: str
    rate: float
    aggregate_series: TimeSeries
    slot_series: dict[int, TimeSeries]
    drop_rate: float
    cycles_per_packet: float
    arrived_packets: int
    flow_records: tuple[FlowRecord, ...] = ()
    bottleneck_drops: int = 0
    #: Burst-control actions taken by a bcpqp limiter (0 for every other
    #: scheme).  The impairments experiment reads these as the
    #: false-trigger proxy: impairment-induced loss should not masquerade
    #: as bursts and flip the controller.
    magic_fills: int = 0
    magic_reclaims: int = 0
    #: Live-reconfiguration outcomes (0 when the run carried no churn
    #: plan): plan actions committed vs rejected with a typed error.
    updates_applied: int = 0
    updates_rejected: int = 0

    @property
    def normalized_series(self) -> list[float]:
        """Windowed aggregate throughput normalized by the enforced rate."""
        return [v / self.rate for v in self.aggregate_series.values]

    @property
    def mean_normalized_throughput(self) -> float:
        """Mean of non-zero normalized windows (Figure 4c's metric)."""
        values = [v for v in self.normalized_series if v > 0]
        if not values:
            return 0.0
        return sum(values) / len(values)

    @property
    def peak_normalized_throughput(self) -> float:
        """Max windowed throughput over the enforced rate (burst)."""
        if not self.aggregate_series.values:
            return 0.0
        return self.aggregate_series.max() / self.rate

    @property
    def fairness(self) -> float:
        """Jain's index over mean per-slot throughputs."""
        return jain_index([s.mean() for s in self.slot_series.values()])


def build_scenario(
    config: AggregateConfig, sim: Simulator
) -> tuple[RateLimiter, AggregateScenario]:
    """Wire up the limiter and scenario for ``config`` on ``sim``."""
    num_queues = max(s.slot for s in config.specs) + 1
    limiter = make_limiter(
        sim,
        config.scheme,
        rate=config.rate,
        num_queues=num_queues,
        max_rtt=config.max_rtt,
        weights=list(config.weights) if config.weights else None,
        policy=config.policy,
        queue_bytes=config.queue_bytes,
        phantom_service=config.phantom_service,
    )
    scenario = AggregateScenario(
        sim,
        limiter=limiter,
        specs=config.specs,
        rng=random.Random(config.seed),
        horizon=config.horizon,
        window=config.window,
        warmup=config.warmup,
        bottleneck=config.bottleneck,
        impair=config.impair,
    )
    if config.churn is not None and config.churn.enabled:
        # The driver parks itself on the limiter so `measure` can read
        # the applied/rejected counts without changing this signature.
        limiter.churn_driver = ChurnDriver(sim, limiter, config.churn)
    return limiter, scenario


def measure(
    config: AggregateConfig,
    limiter: RateLimiter,
    scenario: AggregateScenario,
) -> AggregateOutcome:
    """Extract the figure measurements from a completed run."""
    recorder = scenario.recorder
    bottleneck = scenario.bottleneck
    driver = getattr(limiter, "churn_driver", None)
    return AggregateOutcome(
        scheme=config.scheme,
        rate=config.rate,
        aggregate_series=recorder.aggregate_series(),
        slot_series=recorder.slot_series(),
        drop_rate=limiter.stats.drop_rate,
        cycles_per_packet=limiter.cost.cycles_per_packet(
            limiter.stats.arrived_packets
        ),
        arrived_packets=limiter.stats.arrived_packets,
        flow_records=tuple(scenario.flow_records),
        bottleneck_drops=bottleneck.dropped_packets if bottleneck else 0,
        magic_fills=getattr(limiter, "magic_fills", 0),
        magic_reclaims=getattr(limiter, "magic_reclaims", 0),
        updates_applied=driver.applied if driver is not None else 0,
        updates_rejected=driver.rejected if driver is not None else 0,
    )


def simulate_aggregate(config: AggregateConfig) -> AggregateOutcome:
    """Worker entry point: simulate one aggregate and measure it."""
    checker = None
    if config.validate:
        # Imported lazily so unvalidated sweeps never load the checker.
        from repro.validate import InvariantChecker

        checker = InvariantChecker()
    sim = Simulator(validate=checker)
    limiter, scenario = build_scenario(config, sim)
    scenario.run()
    if checker is not None:
        checker.finalize(recorders=(scenario.recorder,))
    return measure(config, limiter, scenario)
