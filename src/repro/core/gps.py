"""Virtual-time GPS service process for phantom queues.

Read as its definition, the fluid drain advances the phantom counters
piecewise: recompute every queue's share, scan every queue for the piece
boundary, subtract every queue's drain — O(N) Python work per arrival
even when the occupied set never changes.  That loop is kept as the
fuzzer's oracle (``service="fluid-ref"``,
:mod:`repro.validate.reference`); this module is what production runs
(``service="fluid"``): the classic WFQ/GPS *virtual time* construction,
applied per policy-tree node.  :class:`VirtualTimeGps`'s public methods
are also the engine interface :class:`repro.core.phantom.PhantomQueueSet`
drives, which the other two engines implement.

Core idea
---------
Within one *linear piece* (a maximal interval with a fixed occupied set)
every scheduling quantity is constant.  For each internal tree node and
each priority class ``p`` of its children we keep a **virtual time**
``V`` that advances at ``(rate assigned to the node) / (active weight in
class p)`` while class ``p`` is the node's winning (lowest active
priority) class, and freezes otherwise.  A child of weight ``w`` then
drains exactly ``w x (V(t1) - V(t0))`` bytes over any interval — no
matter how often *sibling* activations rescale the shares, because those
rescales change only ``dV/dt``, never the per-unit-V share ``w``.

Each queue therefore stores just ``(bytes_at_touch, V_at_touch)`` and its
current length is computed lazily; its future empty time is the fixed
virtual instant ``V_at_touch + bytes/w``, which goes into a per-class
min-heap.

What the work is proportional to
--------------------------------
The engine keeps the **served list**: the classes whose virtual time is
moving (``slope > 0``), at most one per internal node, in internal-node
order.  A non-zero-width :meth:`VirtualTimeGps.advance` walks that list
once per linear piece (to find the next queue-empty event and to move
the virtual times), so an arrival costs O(served classes) plus
O(log leaves-in-class) per queue that empties — a class that is idle, or
occupied but starved by a higher priority, costs nothing.  Structure
changes (a queue filling from empty, emptying, or being reclaimed to
empty) walk the leaf's spine and re-derive the ``dV/dt`` slopes of the
changed subtree only — O(1) for a leaf under an already-active class of
leaves — and the number of such changes is bounded by the number of
enqueues.

The per-class active weights are also all an instantaneous share needs,
so BC-PQP reads ``r*_i`` here too: :meth:`VirtualTimeGps.rate_of` folds
the leaf's spine in O(depth), with no memo and no miss path, and
:meth:`VirtualTimeGps.offer` is the whole admit decision in one call.

The engine deliberately models *only* the service process.  Magic-byte
watermarks, capacities and cost accounting stay in
:class:`repro.core.phantom.PhantomQueueSet`, which consults the engine
for lengths and activity.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush, heapreplace
from math import inf
from operator import attrgetter

from repro.policy.tree import ClassNode, Leaf, Node, Policy
from repro.units import require_positive

#: Counters below this many bytes are treated as empty (float hygiene);
#: mirrors :data:`repro.core.phantom._EPSILON`.
_EPSILON = 1e-6

#: A class's empty-event heap is rebuilt from its live entries once it
#: holds more than ``_HEAP_SLACK x (active leaves + 1)`` of them.  Every
#: accepted packet pushes one entry and stale ones are popped only off
#: the top of a *served* heap, so without this a starved class would
#: grow by one entry per fill/reclaim cycle for ever.
_HEAP_SLACK = 8

_served_order = attrgetter("order")


class _Group:
    """One (internal node, priority class) GPS server: the children of a
    node that share service at one priority level."""

    __slots__ = (
        "node", "priority", "order", "v", "slope", "weight", "active_count",
        "heap", "active_internal", "members", "share_weight",
    )

    def __init__(self, node: "_Node", priority: int) -> None:
        self.node = node
        self.priority = priority
        #: Position of ``node`` among the engine's internal nodes — the
        #: served list's sort key (assigned when the engine indexes it).
        self.order = 0
        #: Virtual time: cumulative service per unit weight delivered to
        #: this class.  Monotone, advances only while the class is served.
        self.v = 0.0
        #: Current dV/dt (real-time); 0 while frozen.
        self.slope = 0.0
        #: Total weight of currently active members.
        self.weight = 0.0
        self.active_count = 0
        #: Min-heap of (v_finish, seq, epoch, leaf) predicted leaf-empty
        #: events; ``seq`` breaks ties (leaves are not orderable) and the
        #: push-time ``epoch`` lazily invalidates stale entries.
        self.heap: list[tuple[float, int, int, "_Node"]] = []
        #: Active internal (non-leaf) members, for slope propagation.
        self.active_internal: list["_Node"] = []
        #: Members in child order when the incrementally kept ``weight``
        #: can round (a non-integer member weight); ``None`` when it is
        #: exact and doubles as the share denominator.
        self.members: list["_Node"] | None = None
        #: Child-order weight sum of the active ``members`` (``None`` =
        #: stale; dropped whenever a member activates or deactivates).
        self.share_weight: float | None = None


def _sums_exactly(weights: list[float]) -> bool:
    """Whether adding and removing ``weights`` one at a time never
    rounds: all integer-valued, with a total a double holds exactly."""
    return (
        all(float(w).is_integer() for w in weights)
        and sum(weights) <= 2.0 ** 53
    )


class _Node:
    """Compiled policy-tree node with virtual-time drain state."""

    __slots__ = (
        "parent", "weight", "priority", "queue", "children", "groups",
        "winning", "active", "active_count", "group", "spine", "sole",
        "bytes_touch", "v_touch", "epoch",
    )

    def __init__(self, spec: Node, parent: "_Node | None") -> None:
        self.parent = parent
        self.weight = spec.weight
        self.priority = spec.priority
        self.active = False
        #: The parent-side group this node drains against (set by parent).
        self.group: _Group | None = None
        #: Leaves only: the nodes from the root's child down to the leaf.
        self.spine: tuple[_Node, ...] = ()
        self.groups: dict[int, _Group] = {}
        #: A class of leaves at one priority: its only group, which
        #: :meth:`VirtualTimeGps._reslope` then sets without a stack.
        self.sole: _Group | None = None
        self.active_count = 0
        self.winning: _Group | None = None
        # Lazy drain state (leaves only).
        self.bytes_touch = 0.0
        self.v_touch = 0.0
        self.epoch = 0
        if isinstance(spec, Leaf):
            self.queue: int | None = spec.queue
            self.children: list[_Node] = []
            return
        self.queue = None
        self.children = [_Node(c, self) for c in spec.children]
        for child in self.children:
            group = self.groups.get(child.priority)
            if group is None:
                group = self.groups[child.priority] = _Group(self, child.priority)
            child.group = group
        for group in self.groups.values():
            members = [c for c in self.children if c.group is group]
            if not _sums_exactly([c.weight for c in members]):
                group.members = members
        if len(self.groups) == 1 and all(
            c.queue is not None for c in self.children
        ):
            (self.sole,) = self.groups.values()


class VirtualTimeGps:
    """Virtual-time GPS drain over ``policy`` at cumulative ``rate``.

    The caller drives it with :meth:`advance` (bring the service process
    up to ``now``), :meth:`offer` / :meth:`add` / :meth:`remove`
    (admit, enqueue or reclaim bytes at the current clock) and reads
    :meth:`length` / :meth:`total` / :attr:`drained_bytes` /
    :attr:`active_mask`.

    :meth:`advance` returns how many linear pieces it spanned — the
    quantity the cost model's ``drain_recomputes`` is pinned to.

    Invariants the outcomes depend on:

    * ``_served`` holds exactly the groups with ``slope > 0`` — each the
      ``winning`` group of its node — sorted by the node's position in
      ``_internal``.  A slope is assigned in :meth:`_reslope` and zeroed
      in :meth:`_deactivate`, nowhere else, and both keep the list.
    * Queue-empty events due at the same float instant are processed in
      that order (first served class wins a tie), which is the order the
      scan over every internal node used to produce.
    """

    def __init__(self, policy: Policy, rate: float, *, start_time: float) -> None:
        self._rate = rate
        root = policy.root
        if isinstance(root, Leaf):
            # One-queue policy: leaves drain against a parent class, so
            # serve the lone queue as the only child of a synthetic root
            # — at weight 1, because a root leaf takes the whole rate
            # whatever its own weight says (``Policy._assign``).
            root = ClassNode((Leaf(root.queue),))
        self._root = _Node(root, None)
        self._leaves: list[_Node] = [None] * policy.num_queues  # type: ignore[list-item]
        #: Static list of internal nodes, in depth-first child order.
        self._internal: list[_Node] = []
        #: The groups being served (``slope > 0``), in ``_internal`` order.
        self._served: list[_Group] = []
        self._index(self._root, ())
        self._clock = start_time
        #: Bitmask of occupied queues (bit i set when queue i is active).
        self.active_mask = 0
        #: Total bytes across all queues at the current clock.
        self._total = 0.0
        #: Cumulative bytes drained by the service process.
        self.drained_bytes = 0.0
        #: Monotone tiebreaker for heap entries.
        self._seq = 0

    def _index(self, node: _Node, spine: tuple[_Node, ...]) -> None:
        if node.queue is not None:
            self._leaves[node.queue] = node
            node.spine = spine
            return
        for group in node.groups.values():
            group.order = len(self._internal)
        self._internal.append(node)
        for child in node.children:
            self._index(child, spine + (child,))

    # ------------------------------------------------------------------
    # Reads (exact at the current clock)
    # ------------------------------------------------------------------

    def length(self, queue: int) -> float:
        """Current bytes in ``queue``; settles its lazy drain state."""
        leaf = self._leaves[queue]
        if not leaf.active:
            # Inactive leaves hold at most epsilon-sized crumbs (below the
            # occupancy threshold); they do not drain.
            return leaf.bytes_touch
        group = leaf.group
        assert group is not None
        drained = leaf.weight * (group.v - leaf.v_touch)
        if drained > 0.0:
            remaining = leaf.bytes_touch - drained
            if remaining < 0.0:
                remaining = 0.0
            leaf.bytes_touch = remaining
            leaf.v_touch = group.v
        return leaf.bytes_touch

    def peek_length(self, queue: int) -> float:
        """Current bytes in ``queue`` *without* settling its lazy state.

        Pure read for observers (the invariant checker): computes the
        drain since last touch but writes nothing back, so probing a run
        leaves its float trajectory bit-identical to an unprobed one.
        """
        leaf = self._leaves[queue]
        if not leaf.active:
            return leaf.bytes_touch
        group = leaf.group
        assert group is not None
        remaining = leaf.bytes_touch - leaf.weight * (group.v - leaf.v_touch)
        return remaining if remaining > 0.0 else 0.0

    def group_virtual_times(self) -> list[float]:
        """Every (node, priority-class) virtual time, in a stable order.

        Each entry is monotone non-decreasing over the life of the run —
        the GPS construction's core invariant, exposed for the checker.
        """
        return [
            node.groups[priority].v
            for node in self._internal
            for priority in sorted(node.groups)
        ]

    def total(self) -> float:
        """Total bytes across all queues, O(1)."""
        return self._total

    def rate_of(self, queue: int) -> float:
        """Instantaneous GPS service rate of ``queue`` — BC-PQP's ``r*_i``.

        Pure read, O(depth): folds the cumulative rate down the leaf's
        spine with the operations, operand order and child-order weight
        sums of :meth:`Policy._assign`, so the result is bit-equal to
        ``Policy.fluid_rate_of(queue, active_mask, rate)``.
        """
        leaf = self._leaves[queue]
        if not leaf.active:
            return 0.0
        rate = self._rate
        for node in leaf.spine:
            group = node.group
            if group is not node.parent.winning:
                return 0.0
            members = group.members
            if members is None:
                total = group.weight
            else:
                total = group.share_weight
                if total is None:
                    total = group.share_weight = sum(
                        m.weight for m in members if m.active
                    )
            rate = rate * node.weight / total
        return rate

    # ------------------------------------------------------------------
    # Service process
    # ------------------------------------------------------------------

    def advance(self, now: float) -> int:
        """Drain up to ``now``; returns the number of linear pieces spanned
        (queue-empty boundaries crossed, plus the final partial piece while
        anything was occupied) — the reference loop's recompute count.

        One pass over the served list per piece finds the earliest valid
        queue-empty event at or before ``now``; a second moves every
        served virtual time (and the total/drained counters) to it.
        """
        clock = self._clock
        if now == clock:
            # Zero-width advance (repeat arrivals at one instant): no
            # virtual time elapses, and a valid queue-empty event at
            # exactly the current clock cannot exist — an active leaf's
            # finish time is strictly in the future (positive bytes /
            # positive slope), and entries already due were consumed by
            # the advance that reached this clock.  Skipping the scan
            # defers only the lazy stale-entry pops, which the next
            # real advance performs identically.
            return 0
        served = self._served
        rate = self._rate
        pieces = 0
        while True:
            due: _Node | None = None
            t_next = now
            for group in served:
                heap = group.heap
                while heap:
                    v_finish, _seq, epoch, leaf = heap[0]
                    if not leaf.active or leaf.epoch != epoch:
                        heappop(heap)
                        continue
                    t_finish = clock + (v_finish - group.v) / group.slope
                    # A tie goes to the class found first.
                    if t_finish <= t_next and (due is None or t_finish < t_next):
                        due = leaf
                        t_next = t_finish
                    break
            dt = t_next - clock
            if dt > 0.0:
                if self.active_mask:
                    for group in served:
                        group.v += group.slope * dt
                    drained = rate * dt
                    if drained > self._total:
                        drained = self._total
                    self._total -= drained
                    self.drained_bytes += drained
                    if due is None:
                        # The common case: the final piece reached now.
                        self._clock = now
                        return pieces + 1
                clock = t_next
            if due is None:
                break
            # Pin the emptying leaf at exactly zero (no float crumbs).
            due.bytes_touch = 0.0
            due.v_touch = due.group.v  # type: ignore[union-attr]
            self._deactivate(due)
            pieces += 1
        self._clock = now
        return pieces

    # ------------------------------------------------------------------
    # Structure changes
    # ------------------------------------------------------------------

    def set_rate(self, rate: float) -> None:
        """Change the cumulative service rate at the current clock.

        The caller must have :meth:`advance`\\ d to the mutation instant
        first.  Only ``dV/dt`` slopes change: every queue's pending
        empty event is a fixed *virtual* instant, so the heap entries
        stay valid and vtime monotonicity is preserved across the
        change — the cheap path live churn takes for rate-only updates.
        """
        require_positive("rate", rate)
        self._rate = rate
        self._reslope(self._root)

    def offer(self, queue: int, size: float, limit: float) -> tuple[float, float]:
        """The admit decision at the current clock: enqueue ``size``
        bytes into ``queue`` unless that would take it past ``limit``.

        Returns ``(length, rate)``: the queue's settled length *before*
        the offer, and its service rate :meth:`rate_of` after it — or a
        negative rate when the bytes did not fit and nothing changed.

        For a live leaf :meth:`length`, :meth:`_repost` and
        :meth:`rate_of` are inlined with their float operations in their
        order, and a new empty event replaces the leaf's own live entry
        when that heads the heap (the stale one :meth:`advance` would
        pop): the live entries and their order are unchanged.
        """
        leaf = self._leaves[queue]
        length = leaf.bytes_touch
        active = leaf.active
        if active:
            group = leaf.group
            v = group.v
            drained = leaf.weight * (v - leaf.v_touch)
            if drained > 0.0:
                length -= drained
                if length < 0.0:
                    length = 0.0
                leaf.bytes_touch = length
                leaf.v_touch = v
        occupancy = length + size
        if occupancy > limit:
            return length, -1.0
        leaf.bytes_touch = occupancy
        self._total += size
        if not active:
            if occupancy > _EPSILON:
                self._activate(leaf)
            return length, self.rate_of(queue)
        leaf.v_touch = v
        epoch = leaf.epoch
        leaf.epoch = epoch + 1
        seq = self._seq = self._seq + 1
        entry = (v + occupancy / leaf.weight, seq, epoch + 1, leaf)
        heap = group.heap
        head = heap[0]
        if head[3] is leaf and head[2] == epoch:
            heapreplace(heap, entry)
        else:
            heappush(heap, entry)
            if len(heap) > _HEAP_SLACK * (group.active_count + 1):
                heap[:] = [e for e in heap if e[3].active and e[3].epoch == e[2]]
                heapify(heap)
        # rate_of inlined.
        rate = self._rate
        for node in leaf.spine:
            group = node.group
            if group is not node.parent.winning:
                return length, 0.0
            members = group.members
            if members is None:
                total = group.weight
            else:
                total = group.share_weight
                if total is None:
                    total = group.share_weight = sum(
                        m.weight for m in members if m.active
                    )
            rate = rate * node.weight / total
        return length, rate

    def add(self, queue: int, size: float) -> None:
        """Enqueue ``size`` bytes into ``queue`` at the current clock."""
        self.offer(queue, size, inf)

    def remove(self, queue: int, size: float) -> None:
        """Take ``size`` bytes out of ``queue`` (magic reclaim) at the
        current clock; deactivates the queue if it empties."""
        leaf = self._leaves[queue]
        current = self.length(queue)
        remaining = current - size
        if remaining < _EPSILON:
            remaining = 0.0
        self._total -= current - remaining
        if self._total < 0.0:
            self._total = 0.0
        leaf.bytes_touch = remaining
        if remaining == 0.0 and leaf.active:
            self._deactivate(leaf)
        elif leaf.active:
            self._repost(leaf)

    def _repost(self, leaf: _Node) -> None:
        """Refresh a live leaf's predicted empty event after its length
        changed (its old heap entry is lazily discarded by the epoch)."""
        group = leaf.group
        assert group is not None
        leaf.v_touch = group.v
        leaf.epoch += 1
        self._seq += 1
        v_finish = group.v + leaf.bytes_touch / leaf.weight
        heap = group.heap
        heappush(heap, (v_finish, self._seq, leaf.epoch, leaf))
        if len(heap) > _HEAP_SLACK * (group.active_count + 1):
            # Valid entries are totally ordered by (v_finish, seq), so
            # dropping the stale ones changes no pop.
            heap[:] = [e for e in heap if e[3].active and e[3].epoch == e[2]]
            heapify(heap)

    def _activate(self, leaf: _Node) -> None:
        self.active_mask |= 1 << leaf.queue  # type: ignore[operator]
        leaf.active = True
        self._repost(leaf)
        node: _Node = leaf
        while True:
            group = node.group
            parent = node.parent
            if parent is None:
                break
            group.weight += node.weight
            group.share_weight = None
            group.active_count += 1
            if node.children:
                group.active_internal.append(node)
            parent.active_count += 1
            if parent.winning is None or group.priority < parent.winning.priority:
                parent.winning = group
            if parent.active:
                node = parent
                break
            parent.active = True
            node = parent
        self._reslope(node)

    def _deactivate(self, leaf: _Node) -> None:
        self.active_mask &= ~(1 << leaf.queue)  # type: ignore[operator]
        leaf.active = False
        leaf.epoch += 1
        if self.active_mask == 0:
            # Everything is empty: kill accumulated float crumbs so the
            # next busy period starts from an exact zero.
            self._total = 0.0
        node: _Node = leaf
        while True:
            group = node.group
            parent = node.parent
            if parent is None:
                break
            group.weight -= node.weight
            group.share_weight = None
            group.active_count -= 1
            if node.children:
                group.active_internal.remove(node)
            if group.active_count == 0:
                group.weight = 0.0
                if group.slope != 0.0:
                    group.slope = 0.0
                    self._served.remove(group)
            parent.active_count -= 1
            if group.active_count == 0 and parent.winning is group:
                parent.winning = self._best_group(parent)
            node = parent
            if parent.active_count > 0:
                break
            parent.active = False
        self._reslope(node)

    @staticmethod
    def _best_group(node: _Node) -> _Group | None:
        best: _Group | None = None
        for group in node.groups.values():
            if group.active_count > 0 and (
                best is None or group.priority < best.priority
            ):
                best = group
        return best

    def _reslope(self, top: _Node) -> None:
        """Re-derive dV/dt below ``top`` after a structure change.

        ``top`` is the highest node whose class weights or winning class
        changed; its own assigned rate did not, so nothing outside its
        subtree moves.  O(served internal nodes below ``top``): O(1) for
        a leaf joining or leaving an already-active class of leaves.
        A frozen class (slope 0) has only frozen classes beneath it, so
        one that stays frozen is not descended into.  A class of leaves
        (``sole``) has nothing beneath it and is set in place — as
        ``top`` and as a member of the node being walked — without a
        stack entry: that is every class of a two-level tree, where the
        stack round trip per class cost 8% of ``openloop_bcpqp``'s time
        per packet.  Every assignment keeps ``_served``.
        """
        group = top.group
        rate = self._rate if group is None else top.weight * group.slope
        served = self._served
        group = top.sole
        if group is not None:
            if group is top.winning and group.weight > 0.0:
                slope = rate / group.weight
            else:
                slope = 0.0
            if group.slope == 0.0:
                if slope == 0.0:
                    return
                insort(served, group, key=_served_order)
            elif slope == 0.0:
                served.remove(group)
            group.slope = slope
            return
        stack: list[tuple[_Node, float]] = []
        node = top
        while True:
            winning = node.winning
            for group in node.groups.values():
                if group is winning and group.weight > 0.0:
                    slope = rate / group.weight
                else:
                    slope = 0.0
                if group.slope == 0.0:
                    if slope == 0.0:
                        continue
                    insort(served, group, key=_served_order)
                elif slope == 0.0:
                    served.remove(group)
                group.slope = slope
                for child in group.active_internal:
                    below = child.sole
                    if below is None:
                        stack.append((child, child.weight * slope))
                        continue
                    # A class of leaves: one group, always its winner
                    # while anything in it is active.
                    if below.weight > 0.0:
                        inner = child.weight * slope / below.weight
                    else:
                        inner = 0.0
                    if below.slope == 0.0:
                        if inner == 0.0:
                            continue
                        insort(served, below, key=_served_order)
                    elif inner == 0.0:
                        served.remove(below)
                    below.slope = inner
            if not stack:
                return
            node, rate = stack.pop()
