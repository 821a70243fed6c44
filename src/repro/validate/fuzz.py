"""Cross-engine differential fuzzer.

Draws seeded random scenarios (flow count, CC algorithm mix, RTTs in
2-100 ms, enforced rates, policy trees) and runs each under the phantom
schemes (pqp, bcpqp) x every phantom service discipline ({fluid,
fluid-ref}), plus one rotating baseline scheme, all with the
:class:`~repro.validate.checker.InvariantChecker` attached.

Two comparison tiers:

* **strict** — ``fluid`` vs ``fluid-ref`` are the same GPS process
  computed two ways (the virtual-time engine production runs vs the
  piecewise loop in :mod:`repro.validate.reference`, which shares no
  code with it), so every *decision* must agree exactly: forwarded /
  dropped packet and byte counts, per-queue drop maps, magic fills and
  reclaims, goodput.  Only ``drained_bytes`` (a pure float accumulator)
  gets a rounding tolerance.
* **fleet** — each case draws a shard count, runs a small
  generatively-seeded fleet (:mod:`repro.fleet`) both unsharded and
  partitioned into that many shards, and requires the merged metrics to
  be byte-identical (``shards=1`` skips the tier).  The shard count
  rides along in the ``--case`` JSON like every other field.

Neither tier allows more than float rounding, so both apply unchanged
to impaired and churned cases.

Any invariant violation or cross-engine divergence is reported with a
minimized single-line repro::

    python -m repro.validate --case '<json>'
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable

from repro.churn import ChurnPlan, draw_plan
from repro.net.impair import ImpairmentSpec
from repro.policy.tree import Policy
from repro.runner.aggregate import AggregateConfig, build_scenario
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.units import mbps
from repro.validate.checker import InvariantChecker
from repro.workload.spec import FlowSpec

#: Phantom service disciplines compared per scheme.
ENGINES = ("fluid", "fluid-ref")
#: Schemes that have a phantom engine to differentiate.
PHANTOM_SCHEMES = ("pqp", "bcpqp")
#: Non-phantom schemes, rotated one per case (invariants only).
BASELINES = ("shaper", "policer", "policer+", "fairpolicer", "shaper-fifo")
#: CC algorithms drawn for fuzzed flows.
CC_ALGOS = ("reno", "newreno", "cubic", "bbr", "vegas")

#: Exact-comparison keys for the strict (fluid vs fluid-ref) tier.
_STRICT_KEYS = (
    "forwarded_packets",
    "dropped_packets",
    "forwarded_bytes",
    "dropped_bytes",
    "per_queue_drops",
    "magic_fills",
    "magic_reclaims",
    "goodput_bytes",
)
#: drained_bytes tolerance (strict tier): rounding only.
_DRAINED_REL = 1e-6
_DRAINED_ABS = 1.0


@dataclass(frozen=True)
class FuzzCase:
    """One fuzzed scenario, as JSON-friendly primitives (picklable)."""

    index: int
    seed: int
    ccs: tuple[str, ...]
    rtts: tuple[float, ...]
    starts: tuple[float, ...]
    rate: float
    horizon: float
    warmup: float
    policy_kind: str  # "fair" | "weighted" | "prioritized"
    weights: tuple[float, ...] | None
    priorities: tuple[int, ...] | None
    baseline: str
    #: Fleet shard count for the shard-invariance tier: a small
    #: generatively-seeded fleet is run unsharded and partitioned into
    #: ``shards`` shards, and the merged metrics must be byte-identical
    #: (:mod:`repro.fleet`).  ``1`` skips the tier; corpus JSON predating
    #: the field deserializes to 1.
    shards: int = 1
    #: Impairment channels applied to every run of the case (same spec,
    #: same per-flow derived seeds, so impaired engines stay perfectly
    #: comparable).  ``None`` = clean case; corpus JSON predating the
    #: field deserializes to clean.
    impair: ImpairmentSpec | None = None
    #: Live-reconfiguration plan applied to every run of the case (same
    #: plan for every engine/shard leg, so churned engines stay
    #: perfectly comparable, now exercising the epoch-seam migration
    #: paths).  ``None`` = churn-free case; corpus JSON predating the
    #: field deserializes to churn-free.
    churn: ChurnPlan | None = None

    def __post_init__(self) -> None:
        # JSON round-trips tuples as lists; normalize back.
        for name in ("ccs", "rtts", "starts", "weights", "priorities"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if self.impair is not None and not isinstance(
            self.impair, ImpairmentSpec
        ):
            object.__setattr__(self, "impair", ImpairmentSpec(**self.impair))
        if self.churn is not None and not isinstance(self.churn, ChurnPlan):
            object.__setattr__(self, "churn", ChurnPlan(**self.churn))

    @property
    def num_flows(self) -> int:
        return len(self.ccs)

    def policy(self) -> Policy:
        if self.policy_kind == "weighted":
            return Policy.weighted(list(self.weights))
        if self.policy_kind == "prioritized":
            return Policy.prioritized(
                list(self.priorities), list(self.weights)
            )
        return Policy.fair(self.num_flows)

    def specs(self) -> tuple[FlowSpec, ...]:
        return tuple(
            FlowSpec(slot=i, cc=cc, rtt=rtt, start=start)
            for i, (cc, rtt, start) in enumerate(
                zip(self.ccs, self.rtts, self.starts)
            )
        )

    def config(self, scheme: str, service: str) -> AggregateConfig:
        return AggregateConfig(
            scheme=scheme,
            specs=self.specs(),
            rate=self.rate,
            max_rtt=max(self.rtts),
            horizon=self.horizon,
            warmup=self.warmup,
            seed=self.seed,
            policy=self.policy(),
            phantom_service=service,
            impair=self.impair,
            churn=self.churn,
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "FuzzCase":
        """Decode a :meth:`to_json` line.  Malformed input raises
        :class:`ValueError` naming the offending key."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"fuzz case: expected a JSON object, got {json.dumps(data)[:40]}"
            )
        try:
            # An unknown or missing key names itself in the TypeError.
            return FuzzCase(**data)
        except TypeError as exc:
            raise ValueError(f"fuzz case: {exc}") from None

    # -- minimization edits -------------------------------------------

    def drop_flow(self, index: int) -> "FuzzCase":
        """Remove flow ``index`` (slots re-number to stay dense)."""
        keep = [i for i in range(self.num_flows) if i != index]
        take = lambda xs: tuple(xs[i] for i in keep) if xs else None
        return dataclasses.replace(
            self,
            ccs=take(self.ccs),
            rtts=take(self.rtts),
            starts=take(self.starts),
            weights=take(self.weights),
            priorities=take(self.priorities),
        )

    def with_horizon(self, horizon: float) -> "FuzzCase":
        return dataclasses.replace(self, horizon=horizon)

    def without_impair(self) -> "FuzzCase":
        return dataclasses.replace(self, impair=None)

    def without_churn(self) -> "FuzzCase":
        return dataclasses.replace(self, churn=None)


def _draw_impairment(rng) -> ImpairmentSpec | None:
    """Draw one impairment mix for a fuzz case.

    Severities stay moderate — an i.i.d. loss rate past ~5% or a long
    near-deterministic Gilbert-Elliott bad period phase-locks flows into
    backed-off RTO chains, which stops exercising the recovery machinery
    and just stalls the run.  Bad periods are short (mean
    ``1/p_bg <= 10`` packets) with high in-state loss, which is the
    burst shape RACK/TLP care about.
    """
    kinds = []
    if rng.random() < 0.55:
        kinds.append("loss" if rng.random() < 0.6 else "ge")
    if rng.random() < 0.35:
        kinds.append("jitter")
    if rng.random() < 0.25:
        kinds.append("ack_loss")
    if rng.random() < 0.2:
        kinds.append("duplicate")
    if rng.random() < 0.2:
        kinds.append("corrupt")
    if not kinds:
        kinds.append(("loss", "ge", "jitter")[rng.randint(0, 2)])
    fields: dict = {}
    if "loss" in kinds:
        fields["loss"] = rng.uniform(0.002, 0.05)
    if "ge" in kinds:
        fields["ge"] = (
            rng.uniform(0.002, 0.02),   # p_gb: rare entry into bad
            rng.uniform(0.1, 0.5),      # p_bg: short bad periods
            rng.uniform(0.0, 0.005),    # loss_good
            rng.uniform(0.3, 0.8),      # loss_bad
        )
    if "jitter" in kinds:
        fields["jitter"] = rng.uniform(0.0005, 0.01)
        if rng.random() < 0.5:
            fields["reorder"] = rng.uniform(0.01, 0.1)
            fields["reorder_extra"] = rng.uniform(0.001, 0.01)
    if "ack_loss" in kinds:
        fields["ack_loss"] = rng.uniform(0.002, 0.05)
    if "duplicate" in kinds:
        fields["duplicate"] = rng.uniform(0.005, 0.05)
    if "corrupt" in kinds:
        fields["corrupt"] = rng.uniform(0.002, 0.03)
    return ImpairmentSpec(**fields)


def generate_case(
    seed: int, index: int, *, impair: bool = False, churn: bool = False
) -> FuzzCase:
    """Deterministically draw case ``index`` of the root-``seed`` corpus.

    ``impair=True`` appends an impairment draw *after* every other field
    (and from the same stream), so the impaired corpus shares scenario
    bodies with the clean corpus at equal (seed, index) — and with the
    flag off no extra draw happens, keeping the historical corpus stable.
    ``churn=True`` appends a small :class:`~repro.churn.ChurnPlan` draw
    strictly after *all* existing fields (including the impairment draw)
    under the same rule: churned corpora share scenario bodies — and,
    when both flags are set, impairment mixes — with their churn-free
    counterparts at equal (seed, index).
    """
    rng = RngFactory(seed).stream("fuzz-case", index)
    n = rng.randint(1, 5)
    ccs = tuple(rng.choice(CC_ALGOS) for _ in range(n))
    # §2 workloads: RTTs anywhere between datacenter-ish and long-haul.
    rtts = tuple(rng.uniform(0.002, 0.1) for _ in range(n))
    starts = tuple(rng.uniform(0.0, 0.2) for _ in range(n))
    policy_kind = rng.choice(("fair", "weighted", "prioritized"))
    weights = None
    priorities = None
    if policy_kind in ("weighted", "prioritized"):
        weights = tuple(float(rng.randint(1, 4)) for _ in range(n))
    if policy_kind == "prioritized":
        # Mostly priority 0 so lower classes aren't always fully starved.
        priorities = tuple(rng.choice((0, 0, 1)) for _ in range(n))
    # A retired batch-limit draw, still consumed so every later draw
    # keeps the value the corpus was recorded with.
    rng.choice((1, 2, rng.randint(2, 32), None))
    # Shard-count draw (after that one, so earlier draws keep matching
    # the pre-fleet corpus).  Small counts: the tier's job is
    # partition boundaries, not population size — uneven splits (3, 5)
    # exercise the remainder-distribution path of ``shard_bounds``.
    shards = rng.choice((1, 2, 3, 5))
    # The remaining scalar draws stay in their historical order (seed,
    # rate, horizon — previously consumed inside the constructor call);
    # the impairment draw comes strictly after ALL of them so impaired
    # and clean corpora share scenario bodies at equal (seed, index).
    case_seed = rng.randint(1, 2**31)
    rate = mbps(rng.uniform(1.0, 15.0))
    horizon = rng.uniform(0.8, 1.5)
    impairment = _draw_impairment(rng) if impair else None
    churn_plan = (
        draw_plan(
            rng,
            num_queues=n,
            rate=rate,
            horizon=horizon,
            actions=rng.randint(1, 5),
        )
        if churn
        else None
    )
    return FuzzCase(
        index=index,
        seed=case_seed,
        ccs=ccs,
        rtts=rtts,
        starts=starts,
        rate=rate,
        horizon=horizon,
        warmup=0.25,
        policy_kind=policy_kind,
        weights=weights,
        priorities=priorities,
        baseline=BASELINES[index % len(BASELINES)],
        shards=shards,
        impair=impairment,
        churn=churn_plan,
    )


@dataclass
class CaseReport:
    """Outcome of one fuzz case across all engines."""

    case: FuzzCase
    simulations: int
    violations: list[str]
    divergences: list[str]
    #: Infrastructure failure while running the case (worker killed by a
    #: segfault/OOM, or hung past the task timeout) — itself a finding:
    #: a scenario that crashes an engine is at least as interesting as
    #: one that diverges.
    crash: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.violations or self.divergences or self.crash)


def _run_engine(case: FuzzCase, scheme: str, service: str) -> dict:
    """One simulation with the checker attached; returns comparable
    outcome numbers plus any invariant violations."""
    checker = InvariantChecker(fail_fast=False)
    sim = Simulator(validate=checker)
    limiter, scenario = build_scenario(case.config(scheme, service), sim)
    scenario.run()
    checker.finalize(recorders=(scenario.recorder,))
    # Goodput is the in-range ``[warmup, horizon)`` total, like every
    # other measurement of the run.
    goodput = int(scenario.recorder.goodput_bytes()[0])
    stats = limiter.stats
    outcome = {
        "forwarded_packets": stats.forwarded_packets,
        "dropped_packets": stats.dropped_packets,
        "forwarded_bytes": stats.forwarded_bytes,
        "dropped_bytes": stats.dropped_bytes,
        "per_queue_drops": dict(sorted(stats.per_queue_drops.items())),
        "magic_fills": getattr(limiter, "magic_fills", 0),
        "magic_reclaims": getattr(limiter, "magic_reclaims", 0),
        "goodput_bytes": goodput,
        "drained_bytes": (
            limiter.queues.drained_bytes
            if hasattr(limiter, "queues")
            else 0.0
        ),
        "violations": list(checker.violations),
    }
    return outcome


def _diff_strict(
    scheme: str, ref: dict, opt: dict, divergences: list[str]
) -> None:
    """fluid-ref vs fluid: decisions must agree exactly."""
    for key in _STRICT_KEYS:
        if ref[key] != opt[key]:
            divergences.append(
                f"{scheme}: fluid vs fluid-ref diverge on {key}: "
                f"{opt[key]!r} != {ref[key]!r}"
            )
    drained_ref, drained_opt = ref["drained_bytes"], opt["drained_bytes"]
    bound = _DRAINED_ABS + _DRAINED_REL * max(drained_ref, drained_opt)
    if abs(drained_ref - drained_opt) > bound:
        divergences.append(
            f"{scheme}: fluid vs fluid-ref drained_bytes diverge: "
            f"{drained_opt!r} != {drained_ref!r} (bound {bound!r})"
        )


def _diff_fleet(case: FuzzCase, divergences: list[str]) -> int:
    """Fleet shard-invariance tier; returns simulations run.

    A small generatively-seeded fleet (its per-aggregate workloads derive
    from ``case.seed``, not the case's flow list) is run unsharded and
    partitioned into ``case.shards`` shards.  Merged
    :class:`~repro.metrics.merge.FleetMetrics` must be byte-identical —
    the digest covers every per-aggregate column, so any divergence in
    partitioning, per-shard seeding or the merge's reduction order is a
    finding.  ``shards=1`` skips the tier (nothing to diff).
    """
    if case.shards <= 1:
        return 0
    from repro.fleet import FleetSpec, run_fleet

    scheme = PHANTOM_SCHEMES[case.index % len(PHANTOM_SCHEMES)]
    spec = FleetSpec(
        aggregates=case.shards + 2,
        seed=case.seed,
        scheme=scheme,
        horizon=case.horizon,
        warmup=case.warmup,
        impair=case.impair,
        # Churned cases churn the fleet too: each aggregate draws its own
        # per-aggregate plan (as many actions as the case's plan) from
        # the fleet seed, so the tier proves the *reconfiguration* paths
        # are shard-layout invariant, not just the steady-state ones.
        churn_actions=(
            len(case.churn.actions) if case.churn is not None else 0
        ),
    )
    single = run_fleet(spec, shards=1)
    sharded = run_fleet(spec, shards=case.shards)
    if single.metrics != sharded.metrics:
        divergences.append(
            f"fleet/{scheme}: shards={case.shards} merge diverges from "
            f"single-process: digest {sharded.metrics.digest[:16]} != "
            f"{single.metrics.digest[:16]}"
        )
    return 1 + case.shards


def run_case(case: FuzzCase) -> CaseReport:
    """Run one case under every engine combination and diff the results."""
    violations: list[str] = []
    divergences: list[str] = []
    simulations = 0
    for scheme in PHANTOM_SCHEMES:
        outcomes: dict[str, dict] = {}
        for service in ENGINES:
            outcome = _run_engine(case, scheme, service)
            simulations += 1
            outcomes[service] = outcome
            for message in outcome["violations"]:
                violations.append(f"{scheme}/{service}: {message}")
        _diff_strict(scheme, outcomes["fluid-ref"], outcomes["fluid"], divergences)
    baseline_outcome = _run_engine(case, case.baseline, "fluid")
    simulations += 1
    for message in baseline_outcome["violations"]:
        violations.append(f"{case.baseline}: {message}")
    simulations += _diff_fleet(case, divergences)
    return CaseReport(
        case=case,
        simulations=simulations,
        violations=violations,
        divergences=divergences,
    )


def run_case_supervised(
    case: FuzzCase, *, task_timeout: float | None = None
) -> CaseReport:
    """Run one case in a disposable supervised worker process.

    A case that SIGKILLs its worker (segfault, OOM) or hangs past
    ``task_timeout`` comes back as a :class:`CaseReport` with ``crash``
    set instead of killing the calling process — this is what lets the
    CLI *minimize* a crashing case safely.
    """
    from repro.runner.supervisor import RetryPolicy, run_supervised

    report = run_supervised(
        run_case,
        [case],
        jobs=1,
        policy=RetryPolicy(retries=0),
        task_timeout=task_timeout,
    )
    if report.results[0] is not None:
        return report.results[0]
    failure = report.failures[0]
    return CaseReport(
        case=case,
        simulations=0,
        violations=[],
        divergences=[],
        crash=f"{failure.kind}: {failure.detail}",
    )


def minimize(
    case: FuzzCase,
    runner: Callable[[FuzzCase], CaseReport] | None = None,
) -> FuzzCase:
    """Shrink a failing case: drop flows, then halve the horizon, keeping
    it failing at every step.

    ``runner`` evaluates candidates (default: in-process
    :func:`run_case`); pass :func:`run_case_supervised` to shrink a case
    that crashes its worker.
    """
    if runner is None:
        runner = run_case

    def fails(candidate: FuzzCase) -> bool:
        return runner(candidate).failed

    current = case
    # Cheapest shrinks first: a failure that reproduces without its churn
    # plan isn't a churn bug, and one that reproduces clean isn't an
    # impairment bug at all.
    if current.churn is not None:
        trial = current.without_churn()
        if fails(trial):
            current = trial
    if current.impair is not None:
        trial = current.without_impair()
        if fails(trial):
            current = trial
    shrunk = True
    while shrunk and current.num_flows > 1:
        shrunk = False
        for i in range(current.num_flows):
            trial = current.drop_flow(i)
            if fails(trial):
                current = trial
                shrunk = True
                break
    for _ in range(3):
        trial = current.with_horizon(current.horizon / 2.0)
        if trial.horizon >= 2.0 * trial.warmup and fails(trial):
            current = trial
        else:
            break
    return current


def fuzz(
    count: int,
    seed: int,
    *,
    jobs: int | None = None,
    retries: int = 1,
    task_timeout: float | None = None,
    impair: bool = False,
    churn: bool = False,
) -> tuple[list[CaseReport], int]:
    """Run ``count`` cases; returns (failing reports, total simulations).

    ``jobs`` fans cases out over the **supervised** pool (cases and
    reports are plain picklable dataclasses): a case that crashes its
    worker (segfault/OOM) or hangs past ``task_timeout`` is retried
    ``retries`` times and, if it keeps failing, reported as a *finding*
    (a ``CaseReport`` with ``crash`` set) rather than killing the whole
    campaign.
    """
    cases = [
        generate_case(seed, i, impair=impair, churn=churn)
        for i in range(count)
    ]
    if jobs is not None and jobs > 1:
        from repro.runner.supervisor import RetryPolicy, run_supervised

        sweep = run_supervised(
            run_case,
            cases,
            jobs=jobs,
            policy=RetryPolicy(retries=retries, backoff_base=0.1),
            task_timeout=task_timeout,
        )
        failed_by_index = {f.index: f for f in sweep.failures}
        reports = []
        for i, report in enumerate(sweep.results):
            if report is None:
                failure = failed_by_index.get(i)
                detail = (
                    f"{failure.kind}: {failure.detail}"
                    if failure is not None
                    else "worker failed without detail"
                )
                report = CaseReport(
                    case=cases[i],
                    simulations=0,
                    violations=[],
                    divergences=[],
                    crash=detail,
                )
            reports.append(report)
    else:
        reports = [run_case(case) for case in cases]
    failures = [report for report in reports if report.failed]
    simulations = sum(report.simulations for report in reports)
    return failures, simulations
