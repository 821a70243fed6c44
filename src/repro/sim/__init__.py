"""Discrete-event simulation engine.

The engine is deliberately tiny: a binary-heap event queue with a stable
tie-break and a monotonically advancing clock.  A pending event is the
heap tuple ``(time, seq, callback, args)``; once pushed it fires.  All
higher layers (links, TCP endpoints, rate limiters) are plain callback-driven
objects that hold a reference to the :class:`~repro.sim.simulator.Simulator`.

Cancellation lives one layer up, in exactly one place:
:class:`~repro.sim.timer.Timer` keeps its deadline in plain attributes,
so rescheduling and cancelling cost no heap traffic and the heap itself
never holds a dead entry it has to know about.
"""

from repro.sim.rng import RngFactory
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.timer import Timer

__all__ = ["RngFactory", "SimulationError", "Simulator", "Timer"]
