"""Live policy churn: enforcement under continuous reconfiguration.

The paper's evaluation holds each aggregate's policy fixed for the whole
run; a production enforcer sees the opposite — rate-plan upgrades,
queue-weight edits and buffer resizes land *while traffic flows*, through
the transactional :meth:`~repro.limiters.base.RateLimiter.apply_update`
path (:mod:`repro.churn`).  Three questions, three legs:

* **Disruption sweep** — each scheme re-runs the core enforcement
  comparison while a deterministic :class:`~repro.churn.ChurnPlan`
  mutates weights, priorities, queue counts and capacities mid-run (the
  enforced rate itself is held fixed, so *enforcement error* stays
  ``|mean normalized throughput - 1|``).  Schemes that cannot express a
  mutation reject it with a typed error and keep running — the
  applied/rejected split is part of the comparison.  Capacity actions
  scale the *current* buffers, so a heavy plan can compound them far
  above the sized value; that is where the schemes separate — plain PQP
  over-admits into the inflated phantoms while BC-PQP's windowed burst
  controller keeps enforcement tight through the same plan.
* **Fleet churn throughput** — a sharded fleet where every aggregate
  carries its own plan, pushing the *population* past a thousand plan
  changes per simulated second; goodput with churn is compared against
  the identical churn-free fleet.
* **Mice/elephant reclassification** — a closed control loop
  (:class:`ReclassifyController`) watches delivered per-slot rates and
  live-demotes elephants via weight updates, the canonical "policy-rich"
  use the churn machinery exists for.  Reported as the mice slots' share
  of goodput with the controller on vs off.  The comparison doubles as a
  fairness probe: a WFQ shaper already equalizes the short-RTT elephant,
  so its controller stays quiet, while BC-PQP's approximate
  phantom-queue sharing lets the elephant over-deliver until the
  controller claws it back.

Run via ``python -m repro.experiments churn`` (on-demand; not part of
the default all-figures run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.churn import ChurnPlan, PolicyUpdate, UpdateRejected, draw_plan
from repro.experiments.common import (
    AggregateConfig,
    ResultCache,
    print_table,
    run_aggregates,
)
from repro.fleet import FleetSpec, run_fleet
from repro.metrics.recorder import Recorder
from repro.runner.aggregate import build_scenario, measure
from repro.sim.simulator import Simulator
from repro.sim.timer import Timer
from repro.units import mbps, ms, to_mbps
from repro.workload.spec import FlowSpec


@dataclass
class Config:
    """Churn-workload parameters (defaults sized for a few minutes)."""

    rate: float = mbps(5.0)
    ccs: tuple[str, ...] = ("reno", "cubic")
    rtts: tuple[float, ...] = (ms(20), ms(40))
    sizing_rtt: float = ms(100)
    horizon: float = 12.0
    warmup: float = 2.0
    seed: int = 1
    #: Disruption-sweep plan sizes (label, actions over the horizon).
    intensities: tuple[tuple[str, int], ...] = (
        ("none", 0),
        ("light", 6),
        ("heavy", 24),
    )
    # -- fleet leg: population-scale churn throughput ------------------
    fleet_aggregates: int = 600
    fleet_actions: int = 4
    fleet_shards: int = 4
    fleet_horizon: float = 1.2
    fleet_warmup: float = 0.2
    # -- reclassification control loop ---------------------------------
    control_period: float = 0.5
    elephant_rtt: float = ms(10)
    mice_rtts: tuple[float, ...] = (ms(60), ms(70), ms(80))
    #: A slot is an elephant when its delivered bytes this period exceed
    #: ``factor x`` its entitlement under the weights in force.
    elephant_factor: float = 1.4
    mouse_weight: float = 4.0
    demote_weight: float = 1.0


#: Sweep schemes, paper order: the two phantom-queue designs first, then
#: the classical baselines.
_SCHEMES = ("bcpqp", "pqp", "fairpolicer", "policer", "shaper")

#: Disruption-sweep mutation kinds.  ``rate`` is deliberately excluded:
#: holding the enforced rate fixed keeps ``|mean_norm - 1|`` meaningful
#: as enforcement error while everything *around* the rate churns.
_SWEEP_KINDS = ("weights", "priorities", "resize", "capacity", "noop")

#: Control-loop schemes: the weight-capable enforcers the reclassifier
#: can actually steer.
_CONTROL_SCHEMES = ("bcpqp", "shaper")


@dataclass
class Result:
    """Everything the three legs measure."""

    #: Mean normalized throughput keyed by (scheme, intensity label).
    mean_norm: dict[tuple[str, str], float] = field(default_factory=dict)
    #: Enforcement error ``|mean_norm - 1|`` keyed the same way.
    error: dict[tuple[str, str], float] = field(default_factory=dict)
    #: Plan actions committed / typed-rejected, keyed the same way.
    applied: dict[tuple[str, str], int] = field(default_factory=dict)
    rejected: dict[tuple[str, str], int] = field(default_factory=dict)
    # -- fleet leg -----------------------------------------------------
    fleet_clean_norm: float = 0.0
    fleet_churn_norm: float = 0.0
    fleet_applied: int = 0
    fleet_rejected: int = 0
    #: Committed plan changes per simulated second across the fleet.
    fleet_changes_per_s: float = 0.0
    # -- control loop --------------------------------------------------
    #: Mice goodput share keyed by (scheme, controlled?).
    mice_share: dict[tuple[str, bool], float] = field(default_factory=dict)
    #: (weight updates applied, reclassification flips) per scheme.
    control_updates: dict[str, tuple[int, int]] = field(default_factory=dict)


def sweep_plan(config: Config, label: str, actions: int) -> ChurnPlan | None:
    """The disruption-sweep plan for one intensity, or ``None`` for the
    churn-free baseline.

    One plan per intensity, shared by every scheme, so the schemes face
    *identical* mutation sequences; a scheme that cannot express an
    action records a typed rejection instead (part of the comparison).
    """
    if actions == 0:
        return None
    rng = Random(f"churn-sweep-{config.seed}-{label}")
    return draw_plan(
        rng,
        num_queues=len(config.ccs),
        rate=config.rate,
        horizon=config.horizon,
        actions=actions,
        kinds=_SWEEP_KINDS,
    )


def grid(config: Config) -> list[AggregateConfig]:
    """Schemes x churn intensities over one shared workload."""
    specs = tuple(
        FlowSpec(slot=i, cc=cc, rtt=rtt)
        for i, (cc, rtt) in enumerate(zip(config.ccs, config.rtts))
    )
    return [
        AggregateConfig(
            scheme=scheme,
            specs=specs,
            rate=config.rate,
            max_rtt=config.sizing_rtt,
            horizon=config.horizon,
            warmup=config.warmup,
            seed=config.seed,
            churn=sweep_plan(config, label, actions),
        )
        for scheme in _SCHEMES
        for label, actions in config.intensities
    ]


class ReclassifyController:
    """Closed-loop mice/elephant reclassification over live weight updates.

    Every ``period`` the controller reads the *delivered* bytes each slot
    accumulated since the last tick (the difference of two per-slot
    running totals off a :class:`~repro.metrics.recorder.Recorder` whose
    interval starts at 0 — the loop runs through warm-up too) and
    classifies as elephants the slots delivering more than ``factor x``
    their current *entitlement* — their share of the enforced rate under
    the weights in force, not the unweighted ``1/n`` (judging a demoted
    slot against the full fair share would re-trigger on slots already
    being squeezed).  Demotion is **sticky** — once demoted, a slot stays
    demoted (the ISP billing-period model).  The one-way rule matters for
    stability: delivered share is measured *after* enforcement, so a
    freshly demoted elephant immediately drops below the threshold and a
    memoryless classifier would promote it right back, flapping forever.
    When the elephant set grows the controller commits one transactional
    weight update; an unchanged classification applies nothing, so a
    converged system goes quiet instead of re-writing identical weights
    forever.
    """

    def __init__(
        self,
        sim: Simulator,
        limiter,
        recorder: Recorder,
        num_slots: int,
        *,
        period: float,
        factor: float,
        mouse_weight: float,
        demote_weight: float,
    ) -> None:
        self._limiter = limiter
        self._recorder = recorder
        self._n = num_slots
        self._period = period
        self._factor = factor
        self._mouse = mouse_weight
        self._demote = demote_weight
        self._totals = [0.0] * num_slots
        self._elephants: frozenset[int] = frozenset()
        #: Weight updates committed / typed-rejected / classification flips.
        self.applied = 0
        self.rejected = 0
        self.reclassifications = 0
        self._timer = Timer(sim, self._tick)
        self._timer.schedule_after(period)

    def _tick(self) -> None:
        totals = self._recorder.slot_goodput()
        counts = [new - old for new, old in zip(totals, self._totals)]
        self._totals = totals
        total = sum(counts)
        if total > 0.0:
            weights = [
                self._demote if slot in self._elephants else self._mouse
                for slot in range(self._n)
            ]
            entitlement = sum(weights)
            elephants = self._elephants | frozenset(
                slot
                for slot, delivered in enumerate(counts)
                if delivered / total
                > self._factor * weights[slot] / entitlement
            )
            if elephants != self._elephants:
                self.reclassifications += 1
                weights = tuple(
                    self._demote if slot in elephants else self._mouse
                    for slot in range(self._n)
                )
                try:
                    self._limiter.apply_update(PolicyUpdate(weights=weights))
                except UpdateRejected:
                    self.rejected += 1
                else:
                    self.applied += 1
                    self._elephants = elephants
        self._timer.schedule_after(self._period)


def _mice_share(outcome, mice_slots: tuple[int, ...]) -> float:
    """Mice slots' share of total mean per-slot goodput."""
    means = {slot: s.mean() for slot, s in outcome.slot_series.items()}
    total = sum(means.values())
    if total <= 0.0:
        return 0.0
    return sum(means[slot] for slot in mice_slots) / total


def run_control_cell(
    config: Config, scheme: str, *, control: bool
) -> tuple[object, ReclassifyController | None]:
    """One reclassification run (in-process: the controller needs the
    live limiter and its own from-zero recorder)."""
    rtts = (config.elephant_rtt, *config.mice_rtts)
    specs = tuple(
        FlowSpec(slot=i, cc="reno", rtt=rtt) for i, rtt in enumerate(rtts)
    )
    agg = AggregateConfig(
        scheme=scheme,
        specs=specs,
        rate=config.rate,
        max_rtt=config.sizing_rtt,
        horizon=config.horizon,
        warmup=config.warmup,
        seed=config.seed,
    )
    sim = Simulator()
    limiter, scenario = build_scenario(agg, sim)
    controller = None
    if control:
        # The outcome is measured over [warmup, horizon); the loop acts
        # from t = 0, so it counts on a recorder of its own, chained in
        # front of the scenario's.
        delivered = Recorder(
            sim,
            scenario.recorder,
            slot_counts=[len(specs)],
            window=config.control_period,
            warmup=0.0,
            horizon=config.horizon,
            name="control-loop",
        )
        limiter.connect(delivered)
        controller = ReclassifyController(
            sim,
            limiter,
            delivered,
            len(specs),
            period=config.control_period,
            factor=config.elephant_factor,
            mouse_weight=config.mouse_weight,
            demote_weight=config.demote_weight,
        )
    scenario.run()
    return measure(agg, limiter, scenario), controller


def run(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Run all three churn legs and collect the comparison numbers."""
    config = config or Config()
    result = Result()

    # Leg 1: per-scheme disruption sweep (cacheable grid).
    outcomes = run_aggregates(grid(config), jobs=jobs, cache=cache)
    cells = [
        (scheme, label)
        for scheme in _SCHEMES
        for label, _actions in config.intensities
    ]
    for key, agg in zip(cells, outcomes):
        result.mean_norm[key] = agg.mean_normalized_throughput
        result.error[key] = abs(agg.mean_normalized_throughput - 1.0)
        result.applied[key] = agg.updates_applied
        result.rejected[key] = agg.updates_rejected

    # Leg 2: fleet churn throughput (every aggregate mutating).
    base = FleetSpec(
        aggregates=config.fleet_aggregates,
        seed=config.seed,
        horizon=config.fleet_horizon,
        warmup=config.fleet_warmup,
    )
    churned = FleetSpec(
        aggregates=config.fleet_aggregates,
        seed=config.seed,
        horizon=config.fleet_horizon,
        warmup=config.fleet_warmup,
        churn_actions=config.fleet_actions,
    )
    clean = run_fleet(base, shards=config.fleet_shards, jobs=jobs, cache=cache)
    hot = run_fleet(churned, shards=config.fleet_shards, jobs=jobs, cache=cache)
    result.fleet_clean_norm = clean.metrics.mean_normalized_goodput
    result.fleet_churn_norm = hot.metrics.mean_normalized_goodput
    result.fleet_applied = hot.metrics.updates_applied
    result.fleet_rejected = hot.metrics.updates_rejected
    result.fleet_changes_per_s = (
        hot.metrics.updates_applied / config.fleet_horizon
    )

    # Leg 3: mice/elephant reclassification control loop.
    mice_slots = tuple(range(1, 1 + len(config.mice_rtts)))
    for scheme in _CONTROL_SCHEMES:
        for control in (False, True):
            outcome, controller = run_control_cell(
                config, scheme, control=control
            )
            result.mice_share[(scheme, control)] = _mice_share(
                outcome, mice_slots
            )
            if controller is not None:
                result.control_updates[scheme] = (
                    controller.applied,
                    controller.reclassifications,
                )
    return result


def main(
    config: Config | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Result:
    """Print the churn-workload comparison."""
    config = config or Config()
    result = run(config, jobs=jobs, cache=cache)

    print(
        f"Churn: {to_mbps(config.rate):.1f} Mbps enforced while the "
        f"policy mutates mid-run (weights/priorities/resizes/capacities)"
    )
    rows = []
    for label, actions in config.intensities:
        row = [f"{label} ({actions})"]
        for scheme in _SCHEMES:
            key = (scheme, label)
            row.append(
                f"{result.mean_norm[key]:.3f}"
                f" [{result.applied[key]}/{result.rejected[key]}]"
            )
        rows.append(row)
    print_table(
        ["plan"] + [f"{s} norm [ok/rej]" for s in _SCHEMES],
        rows,
    )

    print()
    changes = config.fleet_aggregates * config.fleet_actions
    print(
        f"Fleet churn throughput: {config.fleet_aggregates} aggregates, "
        f"{changes} plan changes over {config.fleet_horizon:.1f} s "
        f"simulated ({config.fleet_shards} shards)"
    )
    print_table(
        ["metric", "value"],
        [
            ["mean norm goodput (clean)", f"{result.fleet_clean_norm:.3f}"],
            ["mean norm goodput (churned)", f"{result.fleet_churn_norm:.3f}"],
            ["updates applied / rejected",
             f"{result.fleet_applied} / {result.fleet_rejected}"],
            ["plan changes applied per sim s",
             f"{result.fleet_changes_per_s:.0f}"],
        ],
    )

    print()
    print(
        f"Mice/elephant reclassification: 1 elephant "
        f"(rtt {config.elephant_rtt * 1e3:.0f} ms) vs "
        f"{len(config.mice_rtts)} mice, control period "
        f"{config.control_period * 1e3:.0f} ms"
    )
    rows = []
    for scheme in _CONTROL_SCHEMES:
        applied, flips = result.control_updates.get(scheme, (0, 0))
        rows.append([
            scheme,
            f"{result.mice_share[(scheme, False)]:.3f}",
            f"{result.mice_share[(scheme, True)]:.3f}",
            f"{applied}",
            f"{flips}",
        ])
    print_table(
        ["scheme", "mice share (open loop)", "mice share (controlled)",
         "weight updates", "reclassifications"],
        rows,
    )
    return result


if __name__ == "__main__":
    main()
