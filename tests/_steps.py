"""Exact step counts: Python ``line`` events, no wall clock.

A deterministic simulation executes the same source lines on every host,
so the number of ``line`` events a run raises inside the code under test
is an integer that repeats exactly.  The complexity pins
(``test_scaling_smoke.py``, ``test_endpoint.py::TestRecoveryCost``)
compare two such integers, which a noisy box cannot move.
"""

import contextlib
import inspect
import sys
import types


@contextlib.contextmanager
def counting(*, under=None, inside=None, entry=None):
    """Count what the ``with`` body executes; read the result after it.

    Yields an object whose ``lines`` is the number of ``line`` events
    raised in frames whose code is defined in a file whose path starts
    with ``under``, or inside the source of the class ``inside`` (its
    lambdas and comprehensions included), and whose ``entries`` is the
    number of calls of the function ``entry``.  Frames anywhere else —
    the test's own driver loop, the standard library — are not counted.
    The tracer that was installed before the block is back in place
    after it.
    """
    if inside is not None:
        filename = inspect.getsourcefile(inside)
        source, first = inspect.getsourcelines(inside)
        span = range(first, first + len(source))

        def counted(code):
            return code.co_filename == filename and code.co_firstlineno in span
    else:
        def counted(code):
            return code.co_filename.startswith(under)

    entry_code = entry.__code__ if entry is not None else None
    lines = entries = 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count

    def tracer(frame, event, arg):
        nonlocal entries
        code = frame.f_code
        if code is entry_code:
            entries += 1
        return count if counted(code) else None

    steps = types.SimpleNamespace(lines=0, entries=0)
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield steps
    finally:
        sys.settrace(previous)
        steps.lines, steps.entries = lines, entries
