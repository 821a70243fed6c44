"""Runtime validation: in-simulator invariant checking and fuzzing.

``InvariantChecker`` is a pluggable observer the simulation components
(limiters, TCP senders, middleboxes) report into; it asserts the paper's
mechanism invariants (§3 sizing/occupancy, §4 window accounting, §6.2
cost accounting) while a run executes.  It is off by default and attaches
by wrapping instance-level bound methods, so the disabled path has
literally zero per-packet overhead.

``python -m repro.validate --fuzz N --seed S`` runs the cross-engine
differential fuzzer: seeded random scenarios executed under the phantom
schemes x {fluid, fluid-ref, quantum} service disciplines, diffing drop
decisions, drained bytes, magic fills/reclaims and goodput.  The
``fluid-ref`` engine it holds production to lives here too
(:mod:`repro.validate.reference`), loaded only when a run asks for it.
"""

from repro.validate.checker import InvariantChecker, InvariantViolation

__all__ = ["InvariantChecker", "InvariantViolation"]
