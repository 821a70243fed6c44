"""Policy trees and their fluid (GPS) rate shares."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union


@dataclass(frozen=True)
class Leaf:
    """A leaf of the policy tree, bound to queue index ``queue``.

    ``weight`` is the share weight relative to siblings of equal priority;
    ``priority`` orders siblings (smaller = served strictly first).
    """

    queue: int
    weight: float = 1.0
    priority: int = 0

    def __post_init__(self) -> None:
        if self.queue < 0:
            raise ValueError(f"queue index must be >= 0, got {self.queue}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class ClassNode:
    """An internal traffic class grouping children under one share."""

    children: tuple["Node", ...]
    weight: float = 1.0
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("a ClassNode needs at least one child")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


Node = Union[Leaf, ClassNode]


@dataclass
class _CompiledNode:
    """Flattened node with precomputed subtree leaf sets for fast traversal.

    ``leaf_mask`` is the same leaf set as a bitmask (bit ``q`` set when
    queue ``q`` lives under this subtree), so activity checks against an
    active-set bitmask are single AND operations instead of per-leaf scans.
    """

    node: Node
    leaves: tuple[int, ...]
    leaf_mask: int = 0
    children: list["_CompiledNode"] = field(default_factory=list)


class Policy:
    """A validated, immutable policy tree over queues ``0..num_queues-1``.

    Semantics at every internal node, mirroring how a policy-rich shaper
    serves real queues (§3.2):

    * only children whose subtree contains an *active* (non-empty) queue
      compete for service;
    * among active children, the smallest ``priority`` value wins everything
      (strict priority);
    * within the winning priority level, service is split proportionally to
      ``weight`` (weighted fairness; equal weights give per-flow fairness).

    :meth:`fluid_rates` returns the resulting instantaneous service rate of
    each queue — the GPS idealization that DRR/WRR schedulers approximate,
    and exactly the ``r*_i`` estimate BC-PQP's burst control needs.
    """

    def __init__(self, root: Node) -> None:
        self._root = self._compile(root)
        queues = sorted(self._root.leaves)
        if queues != list(range(len(queues))):
            raise ValueError(
                "policy leaves must cover queue indices 0..N-1 exactly once, "
                f"got {queues}"
            )
        self._num_queues = len(queues)

    @classmethod
    def _compile(cls, node: Node) -> _CompiledNode:
        if isinstance(node, Leaf):
            return _CompiledNode(
                node=node, leaves=(node.queue,), leaf_mask=1 << node.queue
            )
        children = [cls._compile(c) for c in node.children]
        leaves: list[int] = []
        mask = 0
        for child in children:
            leaves.extend(child.leaves)
            mask |= child.leaf_mask
        return _CompiledNode(
            node=node, leaves=tuple(leaves), leaf_mask=mask, children=children
        )

    @property
    def root(self) -> Node:
        """The root node of the (immutable) tree."""
        return self._root.node

    @property
    def num_queues(self) -> int:
        """Number of queues the policy covers."""
        return self._num_queues

    def __repr__(self) -> str:
        # Deterministic (node dataclass reprs, no object ids): the sweep
        # runner's result cache hashes configs by repr.
        return f"Policy({self.root!r})"

    def _active_mask(self, active: Sequence[bool] | int) -> int:
        """Normalize an activity description to a bitmask."""
        if isinstance(active, int):
            if active < 0 or active >> self._num_queues:
                raise ValueError(
                    f"active mask {active:#x} has bits outside "
                    f"0..{self._num_queues - 1}"
                )
            return active
        if len(active) != self._num_queues:
            raise ValueError(
                f"expected {self._num_queues} activity flags, got {len(active)}"
            )
        mask = 0
        for i, flag in enumerate(active):
            if flag:
                mask |= 1 << i
        return mask

    def fluid_rates(self, active: Sequence[bool] | int, rate: float) -> list[float]:
        """Instantaneous GPS service rate of each queue.

        ``active`` says which queues currently hold data — either one flag
        per queue or a bitmask (bit ``i`` set when queue ``i`` is occupied).
        The full ``rate`` is always distributed among active queues (work
        conservation); inactive queues get 0.  If nothing is active, all
        rates are 0.

        The tree is walked on every call: this is the written
        specification of the shares (the production engine answers
        ``r*_i`` itself, :meth:`repro.core.gps.VirtualTimeGps.rate_of`),
        read only by the two O(N) reference disciplines and the checker.
        """
        return self._rates_for(self._active_mask(active), rate)

    def fluid_rate_of(
        self, queue: int, active: Sequence[bool] | int, rate: float
    ) -> float:
        """Single-queue GPS rate: entry ``queue`` of :meth:`fluid_rates`.

        The ``quantum`` and ``fluid-ref`` disciplines read BC-PQP's
        ``r*_i`` here; ``fluid`` reads it off the virtual-time engine
        (:meth:`repro.core.gps.VirtualTimeGps.rate_of`), for which this
        is the independent oracle.
        """
        if not 0 <= queue < self._num_queues:
            raise ValueError(f"queue {queue} out of range 0..{self._num_queues - 1}")
        return self._rates_for(self._active_mask(active), rate)[queue]

    def _rates_for(self, mask: int, rate: float) -> list[float]:
        """Rate vector for an active-set bitmask: one walk of the tree."""
        rates = [0.0] * self._num_queues
        if rate > 0 and mask:
            self._assign(self._root, rate, mask, rates)
        return rates

    def _assign(
        self,
        node: _CompiledNode,
        rate: float,
        mask: int,
        out: list[float],
    ) -> None:
        if isinstance(node.node, Leaf):
            out[node.node.queue] = rate
            return
        live = [c for c in node.children if mask & c.leaf_mask]
        if not live:
            return
        top = min(c.node.priority for c in live)
        winners = [c for c in live if c.node.priority == top]
        total_weight = sum(c.node.weight for c in winners)
        for child in winners:
            self._assign(child, rate * child.node.weight / total_weight, mask, out)

    # ------------------------------------------------------------------
    # Factories for the policies used throughout the paper.
    # ------------------------------------------------------------------

    @staticmethod
    def fair(num_queues: int) -> "Policy":
        """Per-flow fairness: round-robin across ``num_queues`` queues."""
        if num_queues < 1:
            raise ValueError("need at least one queue")
        return Policy(ClassNode(tuple(Leaf(i) for i in range(num_queues))))

    @staticmethod
    def weighted(weights: Sequence[float]) -> "Policy":
        """Weighted fairness with ``weights[i]`` for queue ``i``."""
        if not weights:
            raise ValueError("need at least one weight")
        return Policy(
            ClassNode(tuple(Leaf(i, weight=w) for i, w in enumerate(weights)))
        )

    @staticmethod
    def prioritized(
        priorities: Sequence[int], weights: Sequence[float] | None = None
    ) -> "Policy":
        """Strict priority by ``priorities[i]`` (smaller first); weighted
        fair within each priority level."""
        if not priorities:
            raise ValueError("need at least one queue")
        if weights is None:
            weights = [1.0] * len(priorities)
        if len(weights) != len(priorities):
            raise ValueError("priorities and weights must have equal length")
        return Policy(
            ClassNode(
                tuple(
                    Leaf(i, weight=w, priority=p)
                    for i, (p, w) in enumerate(zip(priorities, weights))
                )
            )
        )

    @staticmethod
    def nested(groups: Sequence[Sequence[float]], group_weights: Sequence[float] | None = None,
               group_priorities: Sequence[int] | None = None) -> "Policy":
        """Two-level hierarchy: ``groups[g]`` lists the member queue weights
        of group ``g``; queues are numbered consecutively across groups.

        Example (§3.2): two classes, the first with 2x the weight of the
        second, per-flow fairness within each class::

            Policy.nested([[1, 1], [1, 1]], group_weights=[2, 1])
        """
        if not groups:
            raise ValueError("need at least one group")
        if group_weights is None:
            group_weights = [1.0] * len(groups)
        if group_priorities is None:
            group_priorities = [0] * len(groups)
        if len(group_weights) != len(groups) or len(group_priorities) != len(groups):
            raise ValueError("group metadata must match number of groups")
        nodes: list[Node] = []
        queue = 0
        for g, members in enumerate(groups):
            if not members:
                raise ValueError(f"group {g} is empty")
            leaves = tuple(
                Leaf(queue + j, weight=w) for j, w in enumerate(members)
            )
            queue += len(members)
            nodes.append(
                ClassNode(
                    leaves,
                    weight=group_weights[g],
                    priority=group_priorities[g],
                )
            )
        return Policy(ClassNode(tuple(nodes)))
