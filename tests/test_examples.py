"""Every script under ``examples/`` runs end to end, at a shorter horizon."""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))
#: Past every example's 5 s warmup, and short enough to keep tier-1 cheap.
HORIZON = 6.0


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.HORIZON > HORIZON
    module.HORIZON = HORIZON
    module.main()
    assert "Mbps" in capsys.readouterr().out
