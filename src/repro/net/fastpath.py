"""The drain kernel shared by :class:`~repro.net.pipe.Pipe` and
:class:`~repro.net.link.Link`.

``drain_coalesced`` is the one delivery loop of the packet path.  Each
invocation pops the head of a coalesced FIFO, collects the longest
*same-instant* prefix whose reserved ``(time, seq)`` keys all precede
every other heap event (capped at ``Simulator.batch_limit`` packets),
and hands the whole prefix to the receiver in one ``receive_batch``
call.  Between prefixes it either continues inline (same instant, still
globally next), advances the simulation clock inline (strictly later
instant, still globally next, and an un-budgeted ``run()`` is driving —
see ``Simulator._advance_bound``), or re-arms a heap event for the new
head.

Order-safety argument
---------------------
One heap event per packet, each at its reserved ``(time, seq)``, is the
reference semantics; delivering packet by packet and checking *after*
each one whether the next pending ``(t, s)`` still precedes the heap
head realises it exactly.  Collecting the guarded prefix *before*
delivering is equivalent because every event pushed during delivery of
a batch member carries ``time >= now`` and a seq **greater** than every
seq reserved before it — so a push can never slip in front of a
same-instant pending member, and the prefix guard's outcome is invariant
under the deliveries it elides.  Nothing removes a heap tuple but the
run loop popping it (there is no cancellation at this level), so the
guard's comparison target is stable too.  Inline clock advancement fires
the exact event the run loop would have popped next, at the same
``(time, seq)``, with the same clock value — only the heap round-trip
(push, sift, pop) is skipped, none of which is observable to components.  The batch cap therefore changes
bookkeeping granularity only: every ``batch_limit`` yields the same
simulation (pinned by ``tests/test_engine_equivalence.py`` and
``tests/test_batching.py``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.net.packet import Packet
from repro.sim.simulator import Simulator


def drain_coalesced(
    sim: Simulator,
    pending: Any,
    sink: Any,
    rearm: Callable[[], None],
    scratch: list[Packet],
) -> bool:
    """Drain ``pending`` (a deque of ``(time, seq, packet)``) into
    ``sink`` in guarded same-instant batches.

    Returns ``True`` when the deque is empty (the caller must clear its
    armed flag) and ``False`` when a heap event was re-armed for the
    remaining head via ``rearm``.
    """
    heap = sim._heap
    cap = sim._batch_cap
    heappush = heapq.heappush
    while True:
        head = pending.popleft()
        t0 = head[0]
        scratch.clear()
        scratch.append(head[2])
        n = 1
        while pending:
            if n == cap:
                break
            nxt = pending[0]
            t1 = nxt[0]
            if t1 != t0:
                break
            if heap:
                top = heap[0]
                ht = top[0]
                if ht < t1 or (ht == t1 and top[1] < nxt[1]):
                    break
            pending.popleft()
            scratch.append(nxt[2])
            n += 1
        if n > 1:
            sim._batched_deliveries += n
        sink.receive_batch(scratch)
        if not pending:
            return True
        nxt = pending[0]
        t1 = nxt[0]
        s1 = nxt[1]
        now = sim._now
        if t1 <= now:
            # Same instant: continue inline while our head still precedes
            # the heap top.
            if not heap:
                continue
            top = heap[0]
            ht = top[0]
            if ht > t1 or (ht == t1 and top[1] > s1):
                continue
        else:
            bound = sim._advance_bound
            if bound is not None and t1 <= bound:
                # Strictly later instant: if our head is the globally
                # next event, fire it inline.
                if not heap:
                    sim._now = t1
                    sim._inline_advances += 1
                    continue
                top = heap[0]
                ht = top[0]
                if ht > t1 or (ht == t1 and top[1] > s1):
                    sim._now = t1
                    sim._inline_advances += 1
                    continue
        # call_at_reserved(t1, s1, rearm), inlined: identical
        # bookkeeping, no call.
        heappush(heap, (t1, s1, rearm, ()))
        sim._heap_pushes += 1
        if len(heap) > sim._peak_heap:
            sim._peak_heap = len(heap)
        return False

