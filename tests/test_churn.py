"""Live policy churn: atomic apply_update, epoch-seam migration, plans.

The module-level properties pin the transactional contract the tentpole
rests on:

* an empty :class:`ChurnPlan` is *byte-identical* to a churn-free run
  for all five schemes (the plan constructs no driver and schedules
  nothing);
* no-op updates are idempotent — applying the accepted all-``None``
  update any number of times mid-run leaves the simulation bit-identical;
* reject-then-retry equals retry alone — a rejected update mutates
  nothing, so a run that suffers a typed rejection mid-stream matches
  the run that never saw the invalid update;
* byte conservation holds across every epoch seam (the invariant
  checker runs in fail-fast mode under drawn churn plans: phantom
  ledgers, occupancy clamps, window migration).
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from collections import deque
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.churn import (
    ChurnAction,
    ChurnPlan,
    PolicyUpdate,
    UpdateRejected,
    draw_plan,
)
from repro.core.phantom import PhantomQueueSet
from repro.net.packet import FlowId, Packet
from repro.net.sink import NullSink
from repro.policy.tree import Policy
from repro.runner.aggregate import AggregateConfig, simulate_aggregate
from repro.schemes import make_limiter
from repro.sim.simulator import Simulator
from repro.units import mbps, ms
from repro.validate.fuzz import FuzzCase, generate_case
from repro.workload.spec import FlowSpec

pytestmark = pytest.mark.churn

#: The five principal schemes the churn contract covers.
SCHEMES = ("shaper", "policer", "fairpolicer", "pqp", "bcpqp")


def _config(scheme: str, churn: ChurnPlan | None = None) -> AggregateConfig:
    return AggregateConfig(
        scheme=scheme,
        specs=(
            FlowSpec(slot=0, cc="reno", rtt=0.02),
            FlowSpec(slot=1, cc="cubic", rtt=0.05),
        ),
        rate=mbps(4.0),
        max_rtt=ms(100),
        horizon=1.5,
        warmup=0.5,
        seed=3,
        churn=churn,
    )


def _strip_counts(outcome):
    """The outcome minus the driver bookkeeping counters.

    A plan of pure no-ops (or rejected actions) must leave the
    *simulation* bit-identical; the applied/rejected tallies themselves
    legitimately differ — that is what they count.
    """
    return dataclasses.replace(outcome, updates_applied=0, updates_rejected=0)


# ---------------------------------------------------------------------------
# Empty plans and no-ops are free
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
def test_empty_plan_is_byte_identical(scheme):
    clean = simulate_aggregate(_config(scheme, churn=None))
    empty = simulate_aggregate(_config(scheme, churn=ChurnPlan()))
    assert pickle.dumps(clean) == pickle.dumps(empty)


@settings(max_examples=6)
@given(
    scheme=st.sampled_from(SCHEMES),
    times=st.lists(
        st.floats(min_value=0.1, max_value=1.4), min_size=1, max_size=3
    ),
)
def test_noop_updates_are_idempotent(scheme, times):
    """Applying the accepted all-``None`` update at arbitrary instants —
    once or many times — leaves the run bit-identical."""
    clean = simulate_aggregate(_config(scheme, churn=None))
    plan = ChurnPlan(actions=tuple(ChurnAction(t) for t in times))
    churned = simulate_aggregate(_config(scheme, churn=plan))
    assert churned.updates_applied == len(times)
    assert churned.updates_rejected == 0
    assert pickle.dumps(_strip_counts(churned)) == pickle.dumps(
        _strip_counts(clean)
    )


# ---------------------------------------------------------------------------
# Atomic commit-or-typed-reject
# ---------------------------------------------------------------------------


@settings(max_examples=6)
@given(
    scheme=st.sampled_from(SCHEMES),
    bad_time=st.floats(min_value=0.1, max_value=1.3),
)
def test_reject_then_retry_is_bit_identical(scheme, bad_time):
    """A rejected update mutates nothing: interleaving an invalid action
    (non-positive capacity — invalid for every scheme) into a valid plan
    yields the exact run of the valid plan alone."""
    good = ChurnAction(1.4, rate=mbps(3.0))
    valid = ChurnPlan(actions=(good,))
    poisoned = ChurnPlan(
        actions=(ChurnAction(bad_time, capacity_scale=-1.0), good)
    )
    baseline = simulate_aggregate(_config(scheme, churn=valid))
    retried = simulate_aggregate(_config(scheme, churn=poisoned))
    assert retried.updates_rejected == baseline.updates_rejected + 1
    assert pickle.dumps(_strip_counts(retried)) == pickle.dumps(
        _strip_counts(baseline)
    )


def _loaded_limiter(scheme="bcpqp"):
    sim = Simulator()
    limiter = make_limiter(sim, scheme, rate=mbps(10), num_queues=2,
                           max_rtt=ms(50))
    limiter.connect(NullSink())
    flows = [FlowId(0, i) for i in range(2)]
    for i in range(400):
        sim._now = i * 1e-4
        limiter.receive(Packet.data(flows[i % 2], i, sim.now))
    return sim, limiter


def test_rejected_update_leaves_state_untouched():
    _sim, limiter = _loaded_limiter()
    queues = limiter.queues
    before = (
        queues.epoch,
        queues.evicted_bytes,
        [queues.peek_length(q) for q in range(queues.num_queues)],
        queues.rate,
    )
    with pytest.raises(UpdateRejected, match="update rejected"):
        limiter.apply_update(PolicyUpdate(capacities=-1.0))
    after = (
        queues.epoch,
        queues.evicted_bytes,
        [queues.peek_length(q) for q in range(queues.num_queues)],
        queues.rate,
    )
    assert before == after


def _state(value, seen):
    """Everything reachable from ``value`` that a limiter holds, as nested
    tuples (floats by ``repr``, so equal means bit-equal); the simulator
    and anything callable are named, not walked."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, Simulator) or callable(value):
        return type(value).__name__
    if id(value) in seen:
        return "<cycle>"
    seen.add(id(value))
    if isinstance(value, dict):
        return tuple((repr(k), _state(v, seen)) for k, v in value.items())
    if isinstance(value, (list, tuple, deque)):
        return tuple(_state(v, seen) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(map(repr, value)))
    fields = dict(getattr(value, "__dict__", {}))
    for cls in type(value).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name != "__dict__" and hasattr(value, name):
                fields[name] = getattr(value, name)
    return (type(value).__name__,
            tuple((k, _state(v, seen)) for k, v in sorted(fields.items())))


@pytest.mark.parametrize("update", [
    PolicyUpdate(rate=math.inf), PolicyUpdate(rate=math.nan),
    PolicyUpdate(capacities=math.inf), PolicyUpdate(capacities=math.nan),
], ids=["rate=inf", "rate=nan", "capacities=inf", "capacities=nan"])
@pytest.mark.parametrize("scheme", SCHEMES + ("shaper-fifo", "policer+"))
def test_non_finite_update_is_rejected_untouched(scheme, update):
    # `not rate > 0` let inf through: the limiter then forwarded (or,
    # FairPolicer, dropped) everything.
    _sim, limiter = _loaded_limiter(scheme)
    before = _state(limiter, set())
    with pytest.raises(UpdateRejected, match="must be finite and positive"):
        limiter.apply_update(update)
    assert _state(limiter, set()) == before


def test_queue_count_change_requires_capacities():
    _sim, limiter = _loaded_limiter()
    with pytest.raises(UpdateRejected, match="capacities"):
        limiter.apply_update(PolicyUpdate(weights=(1.0, 1.0, 1.0)))


def test_policer_rejects_weights_with_typed_error():
    _sim, limiter = _loaded_limiter("policer")
    with pytest.raises(UpdateRejected) as excinfo:
        limiter.apply_update(PolicyUpdate(weights=(1.0, 2.0)))
    assert excinfo.value.limiter == limiter.name
    assert "update rejected" in str(excinfo.value)


def test_shrink_evicts_and_bumps_epoch():
    _sim, limiter = _loaded_limiter()
    queues = limiter.queues
    occupied = sum(queues.peek_length(q) for q in range(queues.num_queues))
    assert occupied > 0
    epoch = queues.epoch
    tiny = 10.0
    limiter.apply_update(PolicyUpdate(capacities=tiny))
    assert queues.epoch == epoch + 1
    assert queues.evicted_bytes > 0
    for q in range(queues.num_queues):
        assert queues.peek_length(q) <= tiny + 1e-9


# ---------------------------------------------------------------------------
# Conservation across the epoch seam (invariant checker, fail-fast)
# ---------------------------------------------------------------------------


@settings(max_examples=8)
@given(
    scheme=st.sampled_from(("pqp", "bcpqp")),
    seed=st.integers(min_value=0, max_value=10_000),
    actions=st.integers(min_value=1, max_value=4),
)
def test_conservation_across_seams(scheme, seed, actions):
    """Drawn churn plans under the fail-fast invariant checker: every
    epoch seam re-verifies the byte ledger (in - reclaims - drained -
    evicted = total), occupancy clamps and window migration.  Any
    violation raises inside the run."""
    plan = draw_plan(
        Random(seed),
        num_queues=2,
        rate=mbps(4.0),
        horizon=1.5,
        actions=actions,
    )
    config = dataclasses.replace(_config(scheme, churn=plan), validate=True)
    outcome = simulate_aggregate(config)
    assert outcome.updates_applied + outcome.updates_rejected == actions


# ---------------------------------------------------------------------------
# Engine-read shares stay equal to the Policy oracle across epoch seams
# ---------------------------------------------------------------------------


def test_engine_shares_match_policy_across_seams():
    """``service="fluid"`` reads r*_i off the GPS engine; a rate-only
    reconfigure re-slopes that engine in place and a policy swap rebuilds
    it, and after either the read must still equal the ``Policy`` memo
    oracle bit for bit."""
    def check(queues):
        rates = [queues.fluid_rate_of(q) for q in range(queues.num_queues)]
        assert rates == queues.policy.fluid_rates(
            queues.active_mask(), queues.rate
        )
        assert sum(rates) == pytest.approx(queues.rate, rel=1e-9)

    old = Policy.nested([[0.1, 0.2, 0.3], [1.0, 2.5]], group_weights=[0.7, 1.1])
    queues = PhantomQueueSet(old, 5000.0, [20_000.0] * 5)
    for q, size in ((4, 900.0), (2, 700.0), (0, 1500.0), (1, 400.0)):
        assert queues.try_enqueue(q, size)
        check(queues)
    queues.advance(0.05)
    check(queues)

    queues.reconfigure(0.06, rate=7300.0)
    assert queues.rate == 7300.0
    check(queues)

    swapped = Policy.nested(
        [[0.3, 0.1], [0.2, 1.0, 2.5]],
        group_weights=[1.1, 0.7],
        group_priorities=[1, 0],
    )
    queues.reconfigure(0.07, policy=swapped, rate=6100.0)
    assert queues.policy is swapped
    check(queues)
    queues.advance(0.5)
    check(queues)
    assert queues.try_enqueue(3, 800.0)
    check(queues)


# ---------------------------------------------------------------------------
# Fuzzer integration: corpus body-sharing and JSON round-trip
# ---------------------------------------------------------------------------


def test_churned_case_shares_body_and_roundtrips():
    clean = generate_case(3, 5)
    churned = generate_case(3, 5, churn=True)
    assert churned.churn is not None and churned.churn.enabled
    # Churn draws strictly after every existing field, so the churned
    # corpus shares scenario bodies with the clean corpus.
    assert dataclasses.replace(churned, churn=None) == clean
    assert churned.without_churn() == clean
    assert FuzzCase.from_json(churned.to_json()) == churned
