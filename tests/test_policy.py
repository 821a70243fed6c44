"""Tests for policy trees and fluid (GPS) rate shares."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.core.gps import VirtualTimeGps
from repro.policy.tree import ClassNode, Leaf, Policy


class TestConstruction:
    def test_fair_factory(self):
        p = Policy.fair(4)
        assert p.num_queues == 4

    def test_weighted_factory(self):
        p = Policy.weighted([1, 2, 3])
        assert p.num_queues == 3

    def test_leaves_must_cover_range(self):
        with pytest.raises(ValueError):
            Policy(ClassNode((Leaf(0), Leaf(2))))  # gap at 1

    def test_duplicate_queue_rejected(self):
        with pytest.raises(ValueError):
            Policy(ClassNode((Leaf(0), Leaf(0))))

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            ClassNode(())

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Leaf(0, weight=0)
        with pytest.raises(ValueError):
            ClassNode((Leaf(0),), weight=-1)

    def test_wrong_activity_length_rejected(self):
        p = Policy.fair(2)
        with pytest.raises(ValueError):
            p.fluid_rates([True], 100.0)


class TestFairSharing:
    def test_equal_split_all_active(self):
        p = Policy.fair(4)
        assert p.fluid_rates([True] * 4, 100.0) == [25.0] * 4

    def test_inactive_queues_get_zero(self):
        p = Policy.fair(4)
        rates = p.fluid_rates([True, False, True, False], 100.0)
        assert rates == [50.0, 0.0, 50.0, 0.0]

    def test_single_active_gets_everything(self):
        p = Policy.fair(4)
        assert p.fluid_rates([False, False, True, False], 100.0)[2] == 100.0

    def test_all_inactive_all_zero(self):
        p = Policy.fair(3)
        assert p.fluid_rates([False] * 3, 100.0) == [0.0] * 3


class TestWeightedSharing:
    def test_proportional_split(self):
        p = Policy.weighted([1, 2, 5])
        rates = p.fluid_rates([True] * 3, 80.0)
        assert rates == pytest.approx([10.0, 20.0, 50.0])

    def test_reweights_among_active(self):
        p = Policy.weighted([1, 2, 5])
        rates = p.fluid_rates([True, True, False], 90.0)
        assert rates == pytest.approx([30.0, 60.0, 0.0])


class TestPrioritySharing:
    def test_strict_priority(self):
        p = Policy.prioritized([0, 1])
        assert p.fluid_rates([True, True], 10.0) == [10.0, 0.0]

    def test_lower_priority_served_when_high_idle(self):
        p = Policy.prioritized([0, 1])
        assert p.fluid_rates([False, True], 10.0) == [0.0, 10.0]

    def test_weighted_within_level(self):
        p = Policy.prioritized([0, 0, 1], weights=[1, 3, 1])
        rates = p.fluid_rates([True, True, True], 40.0)
        assert rates == pytest.approx([10.0, 30.0, 0.0])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            Policy.prioritized([0, 1], weights=[1])


class TestNestedSharing:
    def test_two_groups_with_weights(self):
        # §3.2's example: first class 2x the weight of the second,
        # per-flow fairness within each class.
        p = Policy.nested([[1, 1], [1, 1]], group_weights=[2, 1])
        rates = p.fluid_rates([True] * 4, 90.0)
        assert rates == pytest.approx([30.0, 30.0, 15.0, 15.0])

    def test_group_reallocation_when_one_empty(self):
        p = Policy.nested([[1, 1], [1, 1]], group_weights=[2, 1])
        rates = p.fluid_rates([False, False, True, True], 90.0)
        assert rates == pytest.approx([0.0, 0.0, 45.0, 45.0])

    def test_priority_groups_with_weighted_members(self):
        # Figure 6d: p1 (3 weighted flows, high priority), p2 (1 backlogged).
        p = Policy.nested([[1, 2, 3], [1]], group_priorities=[0, 1])
        rates = p.fluid_rates([True, True, True, True], 60.0)
        assert rates == pytest.approx([10.0, 20.0, 30.0, 0.0])
        rates = p.fluid_rates([False, False, False, True], 60.0)
        assert rates == pytest.approx([0.0, 0.0, 0.0, 60.0])

    def test_partial_group_activity(self):
        p = Policy.nested([[1, 2, 3], [1]], group_priorities=[0, 1])
        rates = p.fluid_rates([True, False, True, True], 60.0)
        assert rates == pytest.approx([15.0, 0.0, 45.0, 0.0])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            Policy.nested([[1], []])


@st.composite
def policy_and_activity(draw):
    """Random two-level policy with random activity flags."""
    groups = draw(st.lists(
        st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=4),
        min_size=1, max_size=4))
    n = sum(len(g) for g in groups)
    group_weights = draw(st.lists(
        st.floats(min_value=0.1, max_value=10), min_size=len(groups),
        max_size=len(groups)))
    priorities = draw(st.lists(
        st.integers(min_value=0, max_value=2), min_size=len(groups),
        max_size=len(groups)))
    policy = Policy.nested(groups, group_weights=group_weights,
                           group_priorities=priorities)
    active = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return policy, active


class TestFluidInvariants:
    @given(policy_and_activity(), st.floats(min_value=1.0, max_value=1e6))
    def test_work_conservation(self, pa, rate):
        """Active queues always consume exactly the full rate."""
        policy, active = pa
        rates = policy.fluid_rates(active, rate)
        if any(active):
            assert sum(rates) == pytest.approx(rate, rel=1e-9)
        else:
            assert sum(rates) == 0.0

    @given(policy_and_activity(), st.floats(min_value=1.0, max_value=1e6))
    def test_inactive_get_nothing(self, pa, rate):
        policy, active = pa
        rates = policy.fluid_rates(active, rate)
        for flag, r in zip(active, rates):
            if not flag:
                assert r == 0.0
            else:
                assert r >= 0.0

    @given(st.integers(min_value=1, max_value=16),
           st.floats(min_value=1.0, max_value=1e6))
    def test_fair_shares_equal(self, n, rate):
        rates = Policy.fair(n).fluid_rates([True] * n, rate)
        assert all(r == pytest.approx(rates[0]) for r in rates)


# ---------------------------------------------------------------------------
# An independent statement of the shares (paper section 3.2)
# ---------------------------------------------------------------------------


def _as_tuples(node):
    """The tree as plain ``(weight, priority, children | queue)`` tuples:
    all the reference below gets to see of ``repro.policy``."""
    if isinstance(node, Leaf):
        return (node.weight, node.priority, node.queue)
    return (node.weight, node.priority, [_as_tuples(c) for c in node.children])


def _queues_under(node):
    queues, stack = set(), [node]
    while stack:
        _weight, _priority, below = stack.pop()
        if isinstance(below, list):
            stack.extend(below)
        else:
            queues.add(below)
    return queues


def water_fill(tree, backlogged, rate):
    """Section 3.2 read literally, one tree level per pass.

    The whole rate enters at the root.  At a class, only the children
    with a backlogged queue somewhere beneath them compete; those at the
    smallest priority value take everything, in proportion to their
    weights; a queue keeps what reaches it.  Returns ``{queue: rate}``
    for the queues that get any.
    """
    served = {}
    level = [(tree, rate)]
    while level:
        below_level = []
        for (_weight, _priority, below), share in level:
            if not isinstance(below, list):
                served[below] = share
                continue
            competing = [c for c in below if _queues_under(c) & backlogged]
            if not competing:
                continue
            first = min(priority for _w, priority, _b in competing)
            winners = [c for c in competing if c[1] == first]
            weight = math.fsum(w for w, _p, _b in winners)
            below_level += [(c, share * c[0] / weight) for c in winners]
        level = below_level
    return served


def _all_weights(tree):
    weight, _priority, below = tree
    yield weight
    if isinstance(below, list):
        for child in below:
            yield from _all_weights(child)


class TestAgainstWaterFilling:
    """``Policy.fluid_rates`` is the one written specification of the
    shares inside ``src/``; this holds it, and the production engine's
    ``rate_of``, to a second one that shares no code with either."""

    @example(
        (Policy.nested([[1, 2], [3], [1, 1]], [2, 1, 4], [0, 1, 0]),
         [True, False, True, False, True]),
        1000.0,
    )
    @given(policy_and_activity(), st.floats(min_value=1.0, max_value=1e6))
    def test_shares_match_the_paper(self, pa, rate):
        policy, active = pa
        tree = _as_tuples(policy.root)
        backlogged = {q for q, flag in enumerate(active) if flag}
        reference = water_fill(tree, backlogged, rate)
        expected = [reference.get(q, 0.0) for q in range(policy.num_queues)]
        assert set(reference) <= backlogged   # some may be starved

        engine = VirtualTimeGps(policy, rate, start_time=0.0)
        for queue in sorted(backlogged):
            engine.add(queue, 1000.0)
        readings = (
            policy.fluid_rates(active, rate),
            [policy.fluid_rate_of(q, active, rate) for q in range(len(active))],
            [engine.rate_of(q) for q in range(len(active))],
        )
        # Integer-valued weights sum without rounding in any order, so
        # nothing but the shared arithmetic is left to differ.
        if all(float(w).is_integer() for w in _all_weights(tree)):
            for got in readings:
                assert got == expected
        else:
            for got in readings:
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
