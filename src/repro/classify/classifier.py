"""Classifiers mapping a packet's flow identity to a queue index."""

from __future__ import annotations

import hashlib
from typing import Protocol, runtime_checkable

from repro.net.packet import FlowId


@runtime_checkable
class FlowClassifier(Protocol):
    """Maps a flow to one of ``num_queues`` queues."""

    num_queues: int

    def queue_of(self, flow: FlowId) -> int:
        """Queue index (0-based) for ``flow``."""
        ...  # pragma: no cover - protocol definition


class SlotClassifier:
    """Exact per-flow queues: flow slot *is* the queue index.

    This models the testbed's exact flow tables: a restarting on-off flow
    (new incarnation, same slot) keeps its queue.
    """

    def __init__(self, num_queues: int) -> None:
        if num_queues < 1:
            raise ValueError("need at least one queue")
        self.num_queues = num_queues

    def queue_of(self, flow: FlowId) -> int:
        if not 0 <= flow.slot < self.num_queues:
            raise ValueError(
                f"flow slot {flow.slot} outside 0..{self.num_queues - 1}"
            )
        return flow.slot


class HashClassifier:
    """Hashes flow identifiers into ``num_queues`` buckets (§3.2's
    "approximate it by hashing the flow identifiers").

    Uses a keyed stable hash so collisions are reproducible across runs.
    The hash is paid once per flow: flow ids carry a cached ``__hash__``,
    so every later packet is one dict probe (one entry per flow seen).
    """

    def __init__(self, num_queues: int, *, salt: int = 0) -> None:
        if num_queues < 1:
            raise ValueError("need at least one queue")
        self.num_queues = num_queues
        self._salt = salt
        self._queues: dict[FlowId, int] = {}

    def queue_of(self, flow: FlowId) -> int:
        queue = self._queues.get(flow)
        if queue is None:
            key = f"{self._salt}|{flow.aggregate}|{flow.slot}".encode()
            digest = hashlib.sha256(key).digest()
            queue = int.from_bytes(digest[:4], "big") % self.num_queues
            self._queues[flow] = queue
        return queue


class SingleQueueClassifier:
    """Everything into queue 0 (single-queue shaper / plain policer)."""

    num_queues = 1

    def queue_of(self, flow: FlowId) -> int:  # noqa: ARG002 - protocol
        return 0
