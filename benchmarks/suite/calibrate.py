"""Calibration kernel: the host-speed yardstick of the benchmark suite.

A burst runs a fixed mix of the interpreter operations the simulator
spends its time in -- heap push/pop of ``(float, int, object)`` tuples,
dict get/set, deque append/popleft, slotted-attribute writes, float adds
and a method call -- hopping pseudo-randomly over a few MB of live
objects so that cache and memory-bandwidth contention from a neighbouring
process slows it the way it slows the simulator.

The module is stdlib-only and imports nothing from ``repro``: no change
under ``src/`` can make it faster, so dividing a segment's us/packet by
the adjacent bursts' us/iteration cancels host speed and leaves the
program's cost in ``cal_us`` -- "microseconds on a machine whose
calibration iteration takes exactly 1 us".
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque

#: Iterations of one between-segment burst (~3.5 ms on the reference box).
BURST_ITERATIONS = 2500

_CELLS = 1 << 15  # slotted objects in the working set
_TABLE = 1 << 16  # dict entries in the working set
_HEAP = 1 << 10   # standing heap depth
_FIFO = 1 << 8    # standing deque depth


class _Cell:
    __slots__ = ("count", "total", "stamp")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.stamp = 0.0

    def bump(self, amount: float) -> float:
        self.total += amount
        return self.total


class Calibrator:
    """Owns the working set; :meth:`burst` times ``iterations`` steps."""

    def __init__(self) -> None:
        start = time.process_time()
        self._cells = [_Cell() for _ in range(_CELLS)]
        self._table = {i: float(i) for i in range(_TABLE)}
        self._heap = [(float(i), i, self._cells[i]) for i in range(_HEAP)]
        heapq.heapify(self._heap)
        self._fifo = deque(
            (float(i), i, self._cells[i]) for i in range(_FIFO)
        )
        self._seq = _HEAP
        self._state = 12345
        #: us/iteration of every burst so far, in order.
        self.samples: list[float] = []
        #: CPU seconds spent building the working set and inside bursts
        #: (the harness subtracts it from the repeat's own cost).
        self.cpu_seconds = time.process_time() - start

    def burst(self, iterations: int = BURST_ITERATIONS) -> float:
        """Run ``iterations`` kernel steps; return CPU-us per iteration."""
        cells = self._cells
        table = self._table
        heap = self._heap
        fifo = self._fifo
        push = heapq.heappush
        pop = heapq.heappop
        seq = self._seq
        state = self._state
        cell_mask = _CELLS - 1
        table_mask = _TABLE - 1
        # The kernel allocates only short-lived tuples in steady state;
        # disabling the collector keeps a generation-2 pass over the
        # *simulator's* heap from being billed to the yardstick.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.process_time()
        for _ in range(iterations):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            cell = cells[(state >> 8) & cell_mask]
            key = (state >> 4) & table_mask
            now, _old_seq, other = pop(heap)
            value = table.get(key, 0.0) + now
            table[key] = value
            cell.count += 1
            cell.stamp = now
            other.bump(value)
            fifo.append((now, seq, cell))
            when, _fifo_seq, third = fifo.popleft()
            third.total += when
            push(heap, (now + 1.0 + (state & 1023) * 0.001, seq, cell))
            seq += 1
        elapsed = time.process_time() - start
        if gc_was_enabled:
            gc.enable()
        self._seq = seq
        self._state = state
        self.cpu_seconds += elapsed
        per_iter = elapsed / iterations * 1e6
        self.samples.append(per_iter)
        return per_iter
