"""The repo benchmark's span table still resolves against ``src/``.

``benchmarks/suite/`` sits outside tier-1's ``testpaths``, yet its span
recorder (``spans.py``) names classes, methods and module functions of
the program by string.  A deletion under ``src/`` that one of those names
depends on would otherwise surface only when the benchmark's traced
repeat runs; here it fails tier-1.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "suite" / "spans.py"
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("suite_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_table_installs_and_uninstalls_cleanly():
    spans = _load_spans()
    for module_name, class_name, _patterns, _layer in spans.BOUNDARIES:
        module = importlib.import_module(module_name)
        assert isinstance(getattr(module, class_name, None), type), (
            f"{module_name}.{class_name}"
        )
    for module_name, function_name, _layer in spans.FUNCTION_BOUNDARIES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, function_name, None)), (
            f"{module_name}.{function_name}"
        )
    for module_name, class_name in spans.REGISTERED:
        module = importlib.import_module(module_name)
        assert isinstance(getattr(module, class_name, None), type), (
            f"{module_name}.{class_name}"
        )

    from repro.sched.drr import ActiveSetDrr
    from repro.sim.simulator import Simulator

    run = Simulator.__dict__["run"]
    recorder = spans.SpanRecorder()
    try:
        recorder.install()
        patched = {(target, name) for target, name, _own, _orig
                   in recorder._installed}
    finally:
        recorder.uninstall()
    assert Simulator.__dict__["run"] is run
    assert (Simulator, "run") in patched
    # Every class row wraps something, except the method-less placeholder
    # the table still names.
    for module_name, class_name, _patterns, _layer in spans.BOUNDARIES:
        cls = getattr(importlib.import_module(module_name), class_name)
        wrapped = {name for target, name in patched if target is cls}
        if cls is ActiveSetDrr:
            assert wrapped == set()
        else:
            assert wrapped, f"{class_name}: no method matched"
    assert not [name for name in vars(ActiveSetDrr)
                if not name.startswith("__")]
