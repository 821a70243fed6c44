"""Tests for the hierarchical DRR packet scheduler.

Two families:

* The long-run byte shares of the DRR realization must converge to the
  fluid (GPS) shares of the same policy tree — checked for fixed and
  random trees.
* The occupancy-tracked scheduler must serve the *identical* queue
  sequence, with identical deficits and cursors, as the stateless scan it
  replaced.  That scan (:class:`StatelessDrr`: re-derive the live set from
  the head sizes on every ``select``, O(N) per dequeue) lives here as the
  reference oracle and nowhere in ``src/``.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.policy.tree import ClassNode, Leaf, Policy
from repro.sched.drr import HierarchicalDrrScheduler
from repro.units import MSS
from tests.test_phantom_equivalence import (
    _PRIORITY, _SHAPES, _WEIGHT, _tree,  # 1-3 level mixed trees
)


# ----------------------------------------------------------------------
# The reference oracle: the stateless scan, as the shaper ran it.
# ----------------------------------------------------------------------

class _ScanNode:
    """Mutable scheduling state mirroring one policy-tree node."""

    def __init__(self, spec):
        self.spec = spec
        if isinstance(spec, Leaf):
            self.children = []
            self.leaves = (spec.queue,)
        else:
            self.children = [_ScanNode(c) for c in spec.children]
            self.leaves = tuple(
                q for child in self.children for q in child.leaves
            )
        # Deficit counter for *this* node as seen by its parent.
        self.deficit = 0.0
        # Round-robin cursor over this node's children.
        self.cursor = 0

    def is_active(self, heads):
        return any(heads[q] is not None for q in self.leaves)


class StatelessDrr:
    """``select(heads)`` re-derives occupancy from the head-size list."""

    def __init__(self, policy, *, quantum=MSS):
        self._policy = policy
        self._quantum = float(quantum)
        self._root = _ScanNode(policy.root)
        self._path = []

    def select(self, heads):
        if len(heads) != self._policy.num_queues:
            raise ValueError(
                f"expected {self._policy.num_queues} head sizes, got {len(heads)}"
            )
        self._path = []
        return self._select_from(self._root, heads)

    def charge(self, nbytes):
        for node in self._path:
            node.deficit -= nbytes
        self._path = []

    def _select_from(self, node, heads):
        if isinstance(node.spec, Leaf):
            return node.spec.queue if heads[node.spec.queue] is not None else None

        live = [c for c in node.children if c.is_active(heads)]
        if not live:
            return None
        # Reset state of children that went idle: classic DRR zeroes the
        # deficit of an emptied queue so it cannot hoard credit.
        for child in node.children:
            if child not in live:
                child.deficit = 0.0

        top = min(c.spec.priority for c in live)
        winners = [c for c in live if c.spec.priority == top]

        # DRR among winners: rotate, topping up weight-scaled quanta until
        # some child can afford the packet its subtree would emit next.
        if node.cursor >= len(winners):
            node.cursor = 0
        guard = 0
        max_rounds = 4 * len(winners) + 8
        while True:
            child = winners[node.cursor % len(winners)]
            cost = self._peek_cost(child, heads)
            if cost is not None and child.deficit >= cost:
                self._path.append(child)
                return self._select_from(child, heads)
            child.deficit += self._quantum * child.spec.weight
            node.cursor = (node.cursor + 1) % len(winners)
            guard += 1
            if guard > max_rounds:
                self._path.append(child)
                return self._select_from(child, heads)

    def _peek_cost(self, node, heads):
        """Size of the packet this subtree would emit if selected now."""
        if isinstance(node.spec, Leaf):
            return heads[node.spec.queue]
        live = [c for c in node.children if c.is_active(heads)]
        if not live:
            return None
        top = min(c.spec.priority for c in live)
        winners = [c for c in live if c.spec.priority == top]
        child = winners[node.cursor % len(winners)] if winners else None
        if child is None:
            return None
        cost = self._peek_cost(child, heads)
        if cost is None:
            # Cursor points at a stale child; fall back to any live child.
            cost = next(
                (c2 for c2 in (self._peek_cost(w, heads) for w in winners) if c2),
                None,
            )
        return cost


# ----------------------------------------------------------------------
# Harness: a bank of queues driving either scheduler.
# ----------------------------------------------------------------------

class QueueBank:
    """Packet-size FIFOs plus the persistent head list and the
    empty <-> occupied reports the tracked scheduler needs."""

    def __init__(self, policy, **kwargs):
        self.sched = HierarchicalDrrScheduler(policy, **kwargs)
        self.queues = [deque() for _ in range(policy.num_queues)]
        self.heads = [None] * policy.num_queues

    def enqueue(self, q, size):
        if not self.queues[q]:
            self.heads[q] = size
            self.sched.activate(q)
        self.queues[q].append(size)

    def dequeue(self):
        """Serve one packet; returns its queue (``None`` when idle)."""
        q = self.sched.select(self.heads)
        if q is None:
            return None
        queue = self.queues[q]
        size = queue.popleft()
        if queue:
            self.heads[q] = queue[0]
        else:
            self.heads[q] = None
            self.sched.deactivate(q)
        self.sched.charge(size)
        return q


class ScanBank:
    """The same bank driven the old way: heads rebuilt per dequeue."""

    def __init__(self, policy, **kwargs):
        self.sched = StatelessDrr(policy, **kwargs)
        self.queues = [deque() for _ in range(policy.num_queues)]

    def enqueue(self, q, size):
        self.queues[q].append(size)

    def dequeue(self):
        heads = [q[0] if q else None for q in self.queues]
        q = self.sched.select(heads)
        if q is None:
            return None
        self.sched.charge(self.queues[q].popleft())
        return q


def _state(node):
    """(deficit, cursor) of every node, depth-first."""
    out = [(node.deficit, node.cursor)]
    for child in node.children:
        out.extend(_state(child))
    return out


def assert_same_service(policy, ops, **kwargs):
    """Drive both banks through ``ops``; every dequeue must pick the same
    queue and leave bit-equal deficits and cursors on every node."""
    new, old = QueueBank(policy, **kwargs), ScanBank(policy, **kwargs)
    served = []
    for step, op in enumerate(ops):
        if op is None:
            got, want = new.dequeue(), old.dequeue()
            assert got == want, f"step {step}: served {got}, oracle {want}"
            served.append(got)
        else:
            new.enqueue(*op)
            old.enqueue(*op)
        assert _state(new.sched._root) == _state(old.sched._root), (
            f"step {step}: scheduler state diverged"
        )
    return served


def run_scheduler(policy, backlog, rounds=2000, size=MSS):
    """Serve `rounds` packets from always-backlogged queues; return byte
    counts per queue.  `backlog[i]` False means queue i is always empty."""
    sched = HierarchicalDrrScheduler(policy)
    served = [0.0] * policy.num_queues
    heads = [size if b else None for b in backlog]
    for q, occupied in enumerate(backlog):
        if occupied:
            sched.activate(q)
    for _ in range(rounds):
        q = sched.select(heads)
        if q is None:
            break
        served[q] += size
        sched.charge(size)
    return served


class TestBasicSelection:
    def test_all_empty_returns_none(self):
        sched = HierarchicalDrrScheduler(Policy.fair(3))
        assert sched.select([None, None, None]) is None

    def test_single_backlogged_queue_served(self):
        served = run_scheduler(Policy.fair(3), [False, True, False], rounds=10)
        assert served[1] > 0 and served[0] == served[2] == 0

    def test_head_sizes_length_checked(self):
        sched = HierarchicalDrrScheduler(Policy.fair(2))
        with pytest.raises(ValueError):
            sched.select([MSS])

    def test_invalid_quantum(self):
        with pytest.raises(ValueError):
            HierarchicalDrrScheduler(Policy.fair(2), quantum=0)

    def test_transitions_are_idempotent(self):
        # A repeated report must not double-count occupancy.
        sched = HierarchicalDrrScheduler(Policy.nested([[1, 1], [1]]))
        heads = [MSS, None, None]
        sched.activate(0)
        sched.activate(0)
        assert sched._root.occupied == 1
        sched.deactivate(0)
        sched.deactivate(0)
        assert sched._root.occupied == 0
        assert sched.select(heads) is None

    def test_root_leaf_policy(self):
        sched = HierarchicalDrrScheduler(Policy(Leaf(0)))
        assert sched.select([None]) is None
        sched.activate(0)
        assert sched.select([MSS]) == 0
        sched.charge(MSS)


class TestShareConvergence:
    def test_fair_shares(self):
        served = run_scheduler(Policy.fair(4), [True] * 4)
        total = sum(served)
        for s in served:
            assert s / total == pytest.approx(0.25, rel=0.05)

    def test_weighted_shares(self):
        policy = Policy.weighted([1, 2, 5])
        served = run_scheduler(policy, [True] * 3, rounds=4000)
        total = sum(served)
        assert served[0] / total == pytest.approx(1 / 8, rel=0.1)
        assert served[1] / total == pytest.approx(2 / 8, rel=0.1)
        assert served[2] / total == pytest.approx(5 / 8, rel=0.1)

    def test_strict_priority(self):
        policy = Policy.prioritized([0, 1])
        served = run_scheduler(policy, [True, True], rounds=100)
        assert served[1] == 0.0

    def test_priority_fallback(self):
        policy = Policy.prioritized([0, 1])
        served = run_scheduler(policy, [False, True], rounds=100)
        assert served[1] > 0

    def test_nested_shares(self):
        policy = Policy.nested([[1, 1], [1, 1]], group_weights=[2, 1])
        served = run_scheduler(policy, [True] * 4, rounds=6000)
        total = sum(served)
        assert served[0] / total == pytest.approx(1 / 3, rel=0.1)
        assert served[2] / total == pytest.approx(1 / 6, rel=0.15)

    def test_mixed_packet_sizes(self):
        """DRR is byte-fair, not packet-fair: a queue with small packets
        gets more packets, equal bytes."""
        policy = Policy.fair(2)
        sched = HierarchicalDrrScheduler(policy)
        served = [0.0, 0.0]
        sizes = [1500, 300]
        heads = list(sizes)
        sched.activate(0)
        sched.activate(1)
        for _ in range(5000):
            q = sched.select(heads)
            served[q] += sizes[q]
            sched.charge(sizes[q])
        assert served[0] / served[1] == pytest.approx(1.0, rel=0.1)


@settings(deadline=None, max_examples=25)
@given(
    weights=st.lists(st.floats(min_value=0.5, max_value=8), min_size=2, max_size=6),
    data=st.data(),
)
def test_drr_matches_fluid_shares(weights, data):
    """Property: DRR byte shares track Policy.fluid_rates for random
    weighted policies and random activity patterns."""
    n = len(weights)
    active = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if not any(active):
        active[0] = True
    policy = Policy.weighted(weights)
    served = run_scheduler(policy, active, rounds=6000)
    fluid = policy.fluid_rates(active, sum(served) or 1.0)
    total = sum(served)
    if total == 0:
        return
    for i in range(n):
        assert served[i] / total == pytest.approx(
            fluid[i] / sum(fluid), abs=0.05
        )


# ----------------------------------------------------------------------
# Differential: the tracked scheduler against the stateless scan.
# ----------------------------------------------------------------------

DEQ = None  # an op: serve one packet


class TestPinnedQuirks:
    """The scan's quirks the shaper pins depend on, one case each."""

    def test_refill_within_one_serialization_keeps_credit(self):
        # Queue 0 sends a 300 B packet on a 1500 B quantum, empties, and
        # refills before the next select: its parent never *visits* it
        # idle, so the 1200 B of credit survive and it is served again
        # ahead of queue 1 — eager zeroing would hand the turn over.
        ops = [(0, 300), (1, 1500), (1, 1500), DEQ, (0, 300), DEQ, DEQ]
        assert assert_same_service(Policy.fair(2), ops) == [0, 0, 1]

    def test_idle_child_is_zeroed_when_the_parent_next_visits(self):
        # Same start, but a select sees queue 0 idle before it refills:
        # that visit takes the credit away.
        bank = QueueBank(Policy.fair(2))
        for op in [(0, 300), (1, 1500), (1, 1500)]:
            bank.enqueue(*op)
        leaf = bank.sched._leaves[0]
        assert bank.dequeue() == 0 and leaf.deficit == 1200.0
        assert bank.dequeue() == 1 and leaf.deficit == 0.0
        ops = [(0, 300), (1, 1500), (1, 1500), DEQ, DEQ, (0, 300), DEQ, DEQ]
        assert assert_same_service(Policy.fair(2), ops) == [0, 1, 0, 1]

    def test_all_idle_zeroes_nothing_until_restart(self):
        # The last queue served drains the shaper.  The all-idle select
        # returns None before any reset, so when that queue restarts
        # first its leftover credit is still there.
        bank = QueueBank(Policy.fair(2))
        bank.enqueue(0, 300)
        assert bank.dequeue() == 0 and bank.dequeue() is None
        leaf = bank.sched._leaves[0]
        assert leaf.deficit == 1200.0
        bank.enqueue(0, 300)
        assert bank.dequeue() == 0 and leaf.deficit == 900.0
        ops = [(0, 300), DEQ, DEQ, (0, 300), DEQ, DEQ, (1, 100), DEQ]
        assert_same_service(Policy.fair(2), ops)

    def test_cursor_is_positional_and_wraps_to_zero_at_a_visit(self):
        # Five low-priority queues rotate until the cursor sits on index
        # 3; then two high-priority queues take over the winner list.
        # The visit finds the cursor past the end and restarts at index 0
        # (queue 0 first) — not at 3 % 2 (queue 1 first).
        policy = Policy.prioritized([0, 0, 1, 1, 1, 1, 1])
        ops = [(q, 1500) for q in (2, 3, 4, 5, 6)] * 2 + [DEQ] * 4
        ops += [(0, 1500), (1, 1500)] + [DEQ] * 3
        assert assert_same_service(policy, ops) == [2, 3, 4, 5, 0, 1, 2]

    def test_a_peek_reads_the_cursor_modulo_the_winner_list(self):
        # The same rotation inside class A, next to a sibling queue 7: A
        # is left with cursor 3 and 500 B of credit when its winner list
        # becomes [queue 0 (1500 B head), queue 1 (300 B head)].  The
        # root's peek reads index 3 % 2 and sees a 300 B packet A can
        # afford; the visit then wraps to index 0 and emits queue 0's
        # 1500 B packet, leaving A 1000 B in debt.
        klass = ClassNode(
            tuple(Leaf(q, priority=0 if q < 2 else 1) for q in range(7))
        )
        policy = Policy(ClassNode((klass, Leaf(7))))
        ops = [(q, 1000) for q in (2, 3, 4, 5, 6)] * 3 + [(7, 1000)] * 16
        ops += [DEQ] * 7
        bank = QueueBank(policy)
        for op in ops:
            bank.dequeue() if op is DEQ else bank.enqueue(*op)
        node = bank.sched._root.children[0]
        assert (node.cursor, node.deficit) == (3, 500.0)
        bank.enqueue(0, 1500)
        bank.enqueue(1, 300)
        assert bank.dequeue() == 0 and node.deficit == -1000.0
        ops += [(0, 1500), (1, 300)] + [DEQ] * 4
        assert_same_service(policy, ops)

    def test_guard_serves_the_child_it_just_topped_up(self):
        # weight x quantum = 15 B against 1500 B packets: no child can
        # afford its head within 4n+8 = 20 rounds, so the guard trips on
        # the 21st top-up and serves the child that received it (queue 2)
        # although the cursor has moved on to queue 0 — three times over,
        # until queue 2 is empty.
        policy = Policy.weighted([0.01, 0.01, 0.01])
        ops = [(q, 1500) for q in (0, 1, 2)] * 3 + [DEQ] * 9
        assert assert_same_service(policy, ops) == [2, 2, 2, 0, 1, 0, 1, 0, 1]

    def test_reactivation_inserts_in_child_order(self):
        # Queue 0 rejoins a winner list that already holds 1 and 2: it
        # must land in front of them, not behind.
        ops = [(1, 1500), (2, 1500), DEQ, (0, 1500), (1, 1500), (2, 1500)]
        ops += [DEQ] * 5
        assert assert_same_service(Policy.fair(3), ops) == [
            1, 2, 0, 1, 2, None,
        ]
        bank = QueueBank(Policy.fair(3))
        for q in (2, 0, 1):
            bank.enqueue(q, 1500)
        assert [n.queue for n in bank.sched._root.winners] == [0, 1, 2]


#: Enqueue (queue mod n, size) or dequeue.  Dequeues outnumber enqueues
#: often enough that queues keep emptying, refilling before the next
#: select, and the whole bank keeps going idle and restarting.
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.sampled_from([40, 300, 1500, 1500, 9000]),
        ),
        st.just(DEQ),
        st.just(DEQ),
    ),
    min_size=1,
    max_size=120,
)


def _bound(ops, n):
    return [op if op is DEQ else (op[0] % n, op[1]) for op in ops]


@settings(deadline=None, max_examples=300)
@given(shapes=_SHAPES, ops=_OPS, quantum=st.sampled_from([MSS, 300, 4000]))
def test_tracked_matches_stateless_scan_on_random_trees(shapes, ops, quantum):
    """Flat, nested and mixed-priority trees with non-integer weights,
    under random enqueue/dequeue interleavings: identical queue sequence,
    identical deficits and cursors after every operation."""
    policy = Policy(_tree(shapes))
    assert_same_service(policy, _bound(ops, policy.num_queues), quantum=quantum)


@settings(deadline=None, max_examples=100)
@given(
    weights=st.lists(_WEIGHT, min_size=1, max_size=8),
    priorities=st.lists(_PRIORITY, min_size=8, max_size=8),
    ops=_OPS,
)
def test_tracked_matches_stateless_scan_on_flat_policies(
    weights, priorities, ops
):
    policy = Policy.prioritized(priorities[: len(weights)], weights)
    assert_same_service(policy, _bound(ops, policy.num_queues))


def _check_occupancy(bank, node, spec):
    """``occupied`` and the winner list of every node against a rescan."""
    if node.queue is not None:
        assert node.occupied == (1 if bank.queues[node.queue] else 0)
        return node.occupied
    pairs = list(zip(node.children, spec.children))
    total = sum(_check_occupancy(bank, c, s) for c, s in pairs)
    assert node.occupied == total
    live = [(c, s) for c, s in pairs if c.occupied]
    if live:
        top = min(s.priority for _, s in live)
        assert node.winners == [c for c, s in live if s.priority == top]
    return total


@settings(deadline=None, max_examples=50)
@given(shapes=_SHAPES, ops=_OPS)
def test_occupancy_counts_track_the_queues(shapes, ops):
    """Every node's ``occupied`` is the number of non-empty queues below
    it, its winner list the occupied children of the best occupied
    priority in child order — after any interleaving."""
    policy = Policy(_tree(shapes))
    bank = QueueBank(policy)
    for op in _bound(ops, policy.num_queues):
        bank.dequeue() if op is DEQ else bank.enqueue(*op)
        _check_occupancy(bank, bank.sched._root, policy.root)
