"""Hierarchical deficit round robin over a policy tree.

This is the packet-granularity scheduler a policy-rich shaper runs (§2.1):
at every tree node, strict priority picks the child group, and deficit round
robin (Shreedhar & Varghese) splits service within the group proportionally
to weights.  The long-run byte shares converge to the fluid (GPS) shares
returned by :meth:`repro.policy.Policy.fluid_rates` — a property the test
suite checks for random trees.

Two schedulers live here.  Both are told about occupancy as it changes
(``activate(q)`` when queue ``q`` goes empty -> occupied, ``deactivate(q)``
when it drains empty), so a dequeue walks only the live levels of the tree
— O(depth) plus amortized O(1) deficit rotations — and no call does work
proportional to the number of queues:

* :class:`HierarchicalDrrScheduler` — the shaper's scheduler.  Its service
  order is pinned bit for bit (every shaper figure and digest depends on
  it) to the stateless scan it replaced, which re-derived the live set
  from the head sizes on every ``select``, O(N) per dequeue; that scan
  survives as the oracle in ``tests/test_sched.py``.  Three of its
  properties are load-bearing and kept on purpose:

  - *Child-order rotation.*  A node's winner list — its occupied children
    of the best occupied priority — is kept in child order, so a child
    that (re)activates is inserted at its child position (a bisect plus a
    C-level list insert among its occupied same-priority siblings, paid
    per empty -> occupied transition, not per packet), never appended.
  - *Positional cursor.*  ``cursor`` indexes the winner list of the
    moment, not a particular child: when the list changes under it, it
    points at whoever now sits there, wraps to 0 when a *visit* finds it
    past the end, and is read modulo the list length when a parent only
    peeks at the packet the subtree would emit.
  - *Visit-time idle reset.*  Classic DRR zeroes an emptied queue's
    deficit.  Here a child's deficit is zeroed when ``select`` next
    *visits* its parent and finds the child idle — so a queue that
    empties and refills within one packet serialization keeps its credit,
    and when every queue idles nothing is zeroed until service restarts.
    ``deactivate`` therefore only parks the child on its parent's
    ``idled`` list.

* :class:`ActiveSetDrr` — the phantom ``quantum`` drain's scheduler
  (:class:`repro.core.quantum.QuantumDrain`).  It
  zeroes deficits eagerly and keeps winner lists in swap-pop order (same
  members, different rotation), and the loosely pinned ``quantum`` drain
  outcomes depend on exactly that order — which is why the two classes
  are not one yet, although they share the activate/deactivate contract.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter
from typing import Callable, Sequence

from repro.policy.tree import Leaf, Node, Policy
from repro.units import MSS

_CHILD_INDEX = attrgetter("index")


class _SchedNode:
    """Mutable scheduling state mirroring one policy-tree node."""

    __slots__ = (
        "parent", "index", "weight", "queue", "children", "rank", "bucket",
        "levels", "top", "winners", "occupied", "deficit", "cursor",
        "idled", "parked",
    )

    def __init__(
        self,
        spec: Node,
        parent: "_SchedNode | None",
        index: int,
        leaves: list["_SchedNode"],
    ) -> None:
        self.parent = parent
        #: Position among the parent's children: the winner lists' order.
        self.index = index
        self.weight = spec.weight
        self.queue: int | None = None
        self.children: tuple[_SchedNode, ...] = ()
        #: This node's priority as an index into ``parent.levels``, and
        #: that level (shared with its same-priority siblings).
        self.rank = 0
        self.bucket: list[_SchedNode] = []
        #: The occupied children, one list per distinct child priority,
        #: best priority first, each in child order.
        self.levels: list[list[_SchedNode]] = []
        #: Index of the best occupied level (``len(levels)`` when idle)
        #: and that level: the winner list ``cursor`` rotates over.
        self.top = 0
        self.winners: list[_SchedNode] | None = None
        #: Occupied leaves at or below this node.
        self.occupied = 0
        # Deficit counter for *this* node as seen by its parent.
        self.deficit = 0.0
        # Round-robin cursor over this node's winner list.
        self.cursor = 0
        #: Children that went idle since ``select`` last visited this
        #: node; ``parked`` marks a node already on its parent's list.
        self.idled: list[_SchedNode] = []
        self.parked = False
        if isinstance(spec, Leaf):
            self.queue = spec.queue
            leaves[spec.queue] = self
            return
        self.children = tuple(
            _SchedNode(c, self, i, leaves) for i, c in enumerate(spec.children)
        )
        priorities = sorted({c.priority for c in spec.children})
        rank_of = {priority: rank for rank, priority in enumerate(priorities)}
        self.levels = [[] for _ in priorities]
        self.top = len(priorities)
        for child, child_spec in zip(self.children, spec.children):
            child.rank = rank_of[child_spec.priority]
            child.bucket = self.levels[child.rank]


class HierarchicalDrrScheduler:
    """Selects which queue a shaper should dequeue from next.

    Usage::

        sched = HierarchicalDrrScheduler(policy)
        heads = [None] * policy.num_queues   # head pkt bytes per queue
        heads[q] = size; sched.activate(q)   # queue q went empty -> occupied
        q = sched.select(heads)              # next queue to serve (or None)
        ... pop from queue q, update heads[q] ...
        sched.deactivate(q)                  # only if q drained empty
        sched.charge(size)                   # account the dequeued bytes

    The caller owns ``heads`` (``heads[i]`` is the size in bytes of queue
    ``i``'s head packet; entries of empty queues are never read) and
    reports every empty <-> occupied transition; the scheduler never scans
    it.  ``select``/``charge`` must alternate; ``charge`` bills the bytes
    along the path chosen by the preceding ``select``.  See the module
    docstring for the rotation and idle-reset rules the service order
    depends on.
    """

    def __init__(self, policy: Policy, *, quantum: float = MSS) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        self._policy = policy
        self._quantum = float(quantum)
        self._leaves: list[_SchedNode] = [None] * policy.num_queues  # type: ignore[list-item]
        self._root = _SchedNode(policy.root, None, 0, self._leaves)
        self._path: list[_SchedNode] = []

    @property
    def policy(self) -> Policy:
        """The policy tree this scheduler realizes."""
        return self._policy

    def activate(self, queue: int) -> None:
        """Report that ``queue`` went from empty to occupied."""
        node = self._leaves[queue]
        if node.occupied:
            return
        while True:
            node.occupied += 1
            parent = node.parent
            if parent is None:
                return
            if node.occupied == 1:
                insort(node.bucket, node, key=_CHILD_INDEX)
                if node.rank < parent.top:
                    parent.top = node.rank
                    parent.winners = node.bucket
            node = parent

    def deactivate(self, queue: int) -> None:
        """Report that ``queue`` drained empty.

        Deficits are untouched here: the emptied child is parked on its
        parent's ``idled`` list and zeroed by the next ``select`` that
        visits the parent, if it is still idle then.
        """
        node = self._leaves[queue]
        if not node.occupied:
            return
        while True:
            node.occupied -= 1
            parent = node.parent
            if parent is None:
                return
            if not node.occupied:
                bucket = node.bucket
                del bucket[bisect_left(bucket, node.index, key=_CHILD_INDEX)]
                if not node.parked:
                    node.parked = True
                    parent.idled.append(node)
                if not bucket and node.rank == parent.top:
                    levels = parent.levels
                    top = node.rank + 1
                    while top < len(levels) and not levels[top]:
                        top += 1
                    parent.top = top
                    parent.winners = levels[top] if top < len(levels) else None
            node = parent

    def select(self, heads: Sequence[int | None]) -> int | None:
        """Pick the next queue to serve, or ``None`` if all are empty.

        ``heads[i]`` is the size in bytes of occupied queue ``i``'s head
        packet.
        """
        if len(heads) != len(self._leaves):
            raise ValueError(
                f"expected {len(self._leaves)} head sizes, got {len(heads)}"
            )
        path = self._path
        path.clear()
        node = self._root
        if not node.occupied:
            return None
        quantum = self._quantum
        while node.queue is None:
            idled = node.idled
            if idled:
                for child in idled:
                    child.parked = False
                    if not child.occupied:
                        child.deficit = 0.0
                idled.clear()
            winners = node.winners
            count = len(winners)
            cursor = node.cursor
            if cursor >= count:
                cursor = 0
            # DRR among winners: rotate, topping up weight-scaled quanta
            # until some child can afford the packet its subtree would
            # emit next.
            guard = 0
            max_rounds = 4 * count + 8
            while True:
                child = winners[cursor]
                leaf = child
                while leaf.queue is None:
                    level = leaf.winners
                    leaf = level[leaf.cursor % len(level)]
                if child.deficit >= heads[leaf.queue]:
                    break
                child.deficit += quantum * child.weight
                cursor += 1
                if cursor == count:
                    cursor = 0
                guard += 1
                if guard > max_rounds:
                    # Quantum top-ups are unbounded above packet sizes, so
                    # this only trips on small weight x quantum products;
                    # serve the child just topped up rather than loop on
                    # (the cursor has already moved past it).
                    break
            node.cursor = cursor
            path.append(child)
            node = child
        return node.queue

    def charge(self, nbytes: float) -> None:
        """Bill ``nbytes`` to every node on the last selected path."""
        path = self._path
        for node in path:
            node.deficit -= nbytes
        path.clear()


class _ActiveNode:
    """Mutable scheduling state for one policy node in :class:`ActiveSetDrr`."""

    __slots__ = (
        "parent", "weight", "priority", "queue", "children",
        "deficit", "cursor", "active", "by_prio", "pos", "winning",
    )

    def __init__(self, spec: Node, parent: "_ActiveNode | None") -> None:
        self.parent = parent
        self.weight = spec.weight
        self.priority = spec.priority
        self.queue = spec.queue if isinstance(spec, Leaf) else None
        self.children = (
            [] if isinstance(spec, Leaf)
            else [_ActiveNode(c, self) for c in spec.children]
        )
        # Deficit counter for *this* node as seen by its parent.
        self.deficit = 0.0
        # Round-robin cursor over this node's active winner list.
        self.cursor = 0
        self.active = False
        #: Active children grouped by priority (internal nodes only).
        self.by_prio: dict[int, list["_ActiveNode"]] = {}
        #: Index of this node in its parent's ``by_prio`` list while active.
        self.pos = -1
        #: Smallest priority with active children, or None.
        self.winning: int | None = None


class ActiveSetDrr:
    """Hierarchical DRR with incrementally maintained occupancy.

    Usage::

        sched = ActiveSetDrr(policy, head_of=lambda q: ...)
        sched.activate(q)              # queue q went empty -> occupied
        queue = sched.select()         # next queue to serve (or None)
        ... drain from queue ...
        sched.charge(size)             # bill the dequeued bytes
        sched.deactivate(q)            # queue q drained empty

    ``head_of(q)`` returns the size of the phantom packet queue ``q``
    would emit next (``min(quantum, length)`` for byte-counter queues);
    it is only consulted for *active* queues.

    ``select``/``charge`` must alternate, exactly as with
    :class:`HierarchicalDrrScheduler`; byte shares converge to the same
    fluid shares (the winner lists hold the same nodes, only their
    rotation order differs, which DRR fairness does not depend on).
    """

    def __init__(
        self,
        policy: Policy,
        *,
        head_of: Callable[[int], float],
        quantum: float = MSS,
    ) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        self._policy = policy
        self._quantum = float(quantum)
        self._head_of = head_of
        self._root = _ActiveNode(policy.root, None)
        self._leaves: list[_ActiveNode] = [None] * policy.num_queues  # type: ignore[list-item]
        self._index(self._root)
        self._path: list[_ActiveNode] = []

    def _index(self, node: _ActiveNode) -> None:
        if node.queue is not None:
            self._leaves[node.queue] = node
        for child in node.children:
            self._index(child)

    @property
    def policy(self) -> Policy:
        """The policy tree this scheduler realizes."""
        return self._policy

    def any_active(self) -> bool:
        """Whether any queue is currently occupied, O(1)."""
        return self._root.active

    def activate(self, queue: int) -> None:
        """Report that ``queue`` went from empty to occupied."""
        node = self._leaves[queue]
        while not node.active:
            node.active = True
            parent = node.parent
            if parent is None:
                return
            bucket = parent.by_prio.get(node.priority)
            if bucket is None:
                bucket = parent.by_prio[node.priority] = []
            node.pos = len(bucket)
            bucket.append(node)
            if parent.winning is None or node.priority < parent.winning:
                parent.winning = node.priority
            node = parent

    def deactivate(self, queue: int) -> None:
        """Report that ``queue`` drained empty.

        Classic DRR zeroes the deficit of an emptied queue so it cannot
        hoard credit; the same reset applies to subtree nodes that go
        fully idle.
        """
        node = self._leaves[queue]
        while node.active:
            node.active = False
            node.deficit = 0.0
            node.cursor = 0
            parent = node.parent
            if parent is None:
                return
            bucket = parent.by_prio[node.priority]
            last = bucket.pop()
            if last is not node:
                bucket[node.pos] = last
                last.pos = node.pos
            node.pos = -1
            if not bucket:
                del parent.by_prio[node.priority]
                if parent.by_prio:
                    if node.priority == parent.winning:
                        parent.winning = min(parent.by_prio)
                    node = parent  # parent still active; stop after fixup
                    break
                parent.winning = None
                node = parent  # subtree idle: keep deactivating upward
            else:
                break

    def select(self) -> int | None:
        """Pick the next queue to serve, or ``None`` if all are empty."""
        node = self._root
        if not node.active:
            return None
        self._path = []
        quantum = self._quantum
        while node.queue is None:
            winners = node.by_prio[node.winning]  # type: ignore[index]
            count = len(winners)
            guard = 0
            max_rounds = 4 * count + 8
            while True:
                child = winners[node.cursor % count]
                cost = self._peek(child)
                if child.deficit >= cost or guard > max_rounds:
                    # Quantum top-ups are unbounded above packet sizes, so
                    # the guard only trips on absurd quantum/packet ratios;
                    # serve the current child rather than loop forever.
                    break
                child.deficit += quantum * child.weight
                node.cursor = (node.cursor + 1) % count
                guard += 1
            self._path.append(child)
            node = child
        return node.queue

    def charge(self, nbytes: float) -> None:
        """Bill ``nbytes`` to every node on the last selected path."""
        for node in self._path:
            node.deficit -= nbytes
        self._path = []

    def _peek(self, node: _ActiveNode) -> float:
        """Size of the phantom packet this subtree would emit if selected."""
        while node.queue is None:
            winners = node.by_prio[node.winning]  # type: ignore[index]
            node = winners[node.cursor % len(winners)]
        return self._head_of(node.queue)
