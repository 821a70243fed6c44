"""Operation-level CPU cost accounting.

The paper uses CPU cycles per packet (measured on a DPDK middlebox) as its
scalability proxy (Figure 5).  We cannot measure DPDK cycles in a simulator,
so each limiter *counts the primitive operations* it performs per packet and
a cost table converts counts into modeled cycles.  The table prices are
deliberately generic x86 figures — the point is that the efficiency ranking
emerges from each limiter's operation mix rather than being asserted:

* a policer touches a couple of cache-resident counters (ALU class);
* FairPolicer additionally does per-packet token generation/allocation and
  a flow-table lookup (map class);
* phantom-queue policers touch counters plus an occasional fluid-drain
  recomputation (ALU class, amortized);
* a shaper stores the packet to buffer memory on enqueue, fetches it back
  on dequeue (DRAM class once the working set outgrows the LLC — the
  pointer-chasing cost §2.1 describes), and pays for a dequeue timer event.

The modeled counts are pinned to the *paper's* per-packet operations, not
to the simulator's Python work.  Charges are driven by mechanism-level
quantities (``drain_recomputes`` = fluid linear pieces / phantom DRR
dequeues, window rolls, timer events) that every service discipline
reports identically, so optimizing the simulation — e.g. the virtual-time
drain engine skipping per-queue rescans — leaves modeled cycles/packet
untouched.  Wall-clock benchmarks move; the cost model must not.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Op(Enum):
    """Primitive operation classes a limiter can charge."""

    #: Arithmetic / cache-resident counter update (tokens, byte counters).
    ALU = "alu"
    #: Hash/flow-table lookup touching L2/LLC-resident structures.
    MAP = "map"
    #: Packet-buffer store to memory (enqueue of a real packet).
    PKT_STORE = "pkt_store"
    #: Packet-buffer fetch from memory (dequeue + NIC descriptor setup);
    #: pointer chasing across queues makes this a DRAM-class reference.
    PKT_FETCH = "pkt_fetch"
    #: Arming/serving a timer (shaper dequeue scheduling, timer wheel slot).
    TIMER = "timer"
    #: Scheduler bookkeeping (DRR deficit/cursor updates).
    SCHED = "sched"

    #: Positional index into :class:`CostMeter`'s counter list.  Plain
    #: attribute reads beat ``Enum.__hash__`` on the per-packet charge
    #: path; counts and totals are unchanged.
    index: int


for _index, _op in enumerate(Op):
    _op.index = _index
_OPS = tuple(Op)


@dataclass(frozen=True)
class CostTable:
    """Cycles charged per operation class (generic x86 estimates)."""

    alu: float = 2.0
    map: float = 18.0
    pkt_store: float = 70.0
    pkt_fetch: float = 120.0
    timer: float = 45.0
    sched: float = 8.0

    def price(self, op: Op) -> float:
        """Cycles for one operation of class ``op``."""
        return getattr(self, op.value)


class CostMeter:
    """Per-limiter accumulator of primitive-operation counts."""

    def __init__(self) -> None:
        #: Operation counts indexed by :attr:`Op.index`.  A per-packet hot
        #: path may add to the list directly instead of calling
        #: :meth:`charge` once per op class; while every charge is
        #: integer-valued, the order of the additions cannot change a total.
        self.counts: list[float] = [0.0] * len(_OPS)

    def charge(self, op: Op, count: float = 1.0) -> None:
        """Record ``count`` operations of class ``op``."""
        self.counts[op.index] += count

    def count(self, op: Op) -> float:
        """Total operations recorded for ``op``."""
        return self.counts[op.index]

    def cycles(self, table: CostTable | None = None) -> float:
        """Total modeled cycles under ``table`` (default prices)."""
        table = table or CostTable()
        counts = self.counts
        return sum(table.price(op) * counts[op.index] for op in _OPS)

    def cycles_per_packet(
        self, packets: int, table: CostTable | None = None
    ) -> float:
        """Modeled cycles divided by ``packets`` (0 if none processed)."""
        if packets <= 0:
            return 0.0
        return self.cycles(table) / packets

    def snapshot(self) -> dict[str, float]:
        """Operation counts keyed by class name (for reports/tests)."""
        counts = self.counts
        return {op.value: counts[op.index] for op in _OPS}

    def reset(self) -> None:
        """Zero all counters."""
        counts = self.counts
        for i in range(len(counts)):
            counts[i] = 0.0
