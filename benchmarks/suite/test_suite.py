"""Self-tests of the benchmark harness.

Run with ``python -m pytest benchmarks/suite -q`` (outside tier-1's
``testpaths``, so tier-1 time is unchanged).
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
REPO = SUITE.parents[1]
for path in (str(REPO / "src"), str(SUITE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import estimate  # noqa: E402
import spans  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from segments import SegmentDriver, boundaries  # noqa: E402


# ----------------------------------------------------------------------
# Calibration kernel
# ----------------------------------------------------------------------


def test_calibration_imports_nothing_from_repro():
    tree = ast.parse((SUITE / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "gc", "heapq", "time", "collections"}
    # And at run time: a fresh interpreter that imports and runs the
    # kernel has loaded no module of the program.
    code = (
        "import sys; sys.path.insert(0, %r); import calibrate; "
        "calibrate.Calibrator().burst(100); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
        % str(SUITE)
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_calibration_scales_linearly():
    cal = Calibrator()
    cal.burst(20_000)  # warm the working set
    ratios = []
    for _ in range(5):
        before = cal.cpu_seconds
        cal.burst(20_000)
        small = cal.cpu_seconds - before
        before = cal.cpu_seconds
        cal.burst(80_000)
        ratios.append((cal.cpu_seconds - before) / small)
    ratios.sort()
    assert 3.2 < ratios[len(ratios) // 2] < 4.8


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def test_span_self_time_on_a_synthetic_tree():
    now = [0]
    rec = spans.SpanRecorder(clock=lambda: now[0])

    def leaf():
        now[0] += 10

    leaf = rec.wrap(leaf, "leaf", "core")

    def middle():
        now[0] += 4
        leaf()
        now[0] += 6

    middle = rec.wrap(middle, "middle", "net.pipe")

    def top():
        now[0] += 5
        middle()
        middle()

    top = rec.wrap(top, "top", "sim")

    before = rec.snapshot()
    now[0] += 5  # time in no span at all
    top()
    delta = rec.since(before)
    names = delta["names"]
    assert names["leaf"]["calls"] == 2 and names["leaf"]["self_ns"] == 20
    assert names["middle"]["total_ns"] == 40 and names["middle"]["self_ns"] == 20
    assert names["top"]["total_ns"] == 45 and names["top"]["self_ns"] == 5
    assert names["top"]["child_calls"] == 2
    assert delta["edges"] == {"<root>>top": 1, "top>middle": 2, "middle>leaf": 2}
    rows = spans.layer_rows(delta, segment_ns=50, outer_ns=0.0)
    assert rows["share"] == {
        "core": 0.4, "net.pipe": 0.4, "sim": 0.1, "harness.unattributed": 0.1,
    }
    assert sum(rows["share"].values()) == pytest.approx(1.0)


def test_crossing_cost_is_subtracted_per_crossing():
    now = [0]
    rec = spans.SpanRecorder(clock=lambda: now[0])
    rec.inner_ns, rec.outer_ns = 2.0, 3.0

    def child():
        now[0] += 12

    child = rec.wrap(child, "child", "core")

    def parent():
        now[0] += 20
        child()

    parent = rec.wrap(parent, "parent", "sim")
    before = rec.snapshot()
    parent()
    names = rec.since(before)["names"]
    assert names["child"]["self_ns"] == 12 - 2.0
    # One own crossing (inner) and one crossing made from it (outer).
    assert names["parent"]["self_ns"] == 20 - 2.0 - 3.0


def test_install_wraps_and_uninstall_restores():
    from repro.cc.endpoint import TcpSender
    from repro.core.bcpqp import BCPQP
    from repro.limiters.base import RateLimiter
    from repro.sim.simulator import Simulator

    originals = (Simulator.run, BCPQP.receive_batch, TcpSender.receive_batch)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert Simulator.run is not originals[0]
        assert "receive" in vars(BCPQP)  # inherited entry wrapped on the class
        # The fused-path latch inspects these; none may be replaced.
        for name in ("_transmit", "_try_send", "_process_ack", "_advance_una",
                     "_update_rto", "_detect_losses", "_arm_pacing_timer"):
            assert getattr(TcpSender, name) not in rec._wrapped
    finally:
        rec.uninstall()
    assert (Simulator.run, BCPQP.receive_batch,
            TcpSender.receive_batch) == originals
    assert "receive" not in vars(BCPQP)
    assert BCPQP.receive is RateLimiter.receive


# ----------------------------------------------------------------------
# Digests and segmentation
# ----------------------------------------------------------------------

_DIGEST_INPUT = "[1, 2.5, 'bcpqp', [0.1, -0.0, 3], (7,), True]"


def test_digest_is_stable_across_processes():
    from workloads import digest_of

    here = digest_of(eval(_DIGEST_INPUT))
    code = (
        "import sys; sys.path[:0] = [%r, %r]; from workloads import digest_of; "
        "print(digest_of(%s))" % (str(REPO / "src"), str(SUITE), _DIGEST_INPUT)
    )
    for hashseed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == here
    assert digest_of([1, 2.0]) != digest_of([1.0, 2.0])  # types are encoded
    assert digest_of([[1], 2]) != digest_of([1, [2]])    # nesting is encoded


def test_boundaries_are_exact_multiples():
    ends = boundaries(6.0, 0.05)
    assert len(ends) == 120 and ends[-1] == 6.0
    assert ends[19] == 20 * 0.05
    assert boundaries(1.2, 0.5) == [0.5, 1.0, 1.2]


def test_segmented_run_equals_one_shot():
    from repro.runner.aggregate import simulate_aggregate
    from workloads import WORKLOADS, outcome_digest

    cell = WORKLOADS["sat_bcpqp"]
    scale = 5.0 / cell.span  # 5 s of measured span
    driver = SegmentDriver(Calibrator())
    segmented = cell.run(3, scale, driver)
    one_shot = simulate_aggregate(cell.config(3, scale))
    assert segmented.digest == outcome_digest(one_shot)
    assert all(passed for _, passed, _ in segmented.checks)
    assert len(driver.measured()) == 10
    assert sum(s.packets for s in driver.rows) == one_shot.arrived_packets


def test_segmented_fleet_equals_simulate_shard():
    from repro.fleet.shard import simulate_shard
    from repro.fleet.spec import shard_configs
    from repro.metrics.merge import merge_shard_summaries
    from repro.sim.simulator import Simulator
    from workloads import WORKLOADS

    fleet = WORKLOADS["fleet_250"]
    run_before = Simulator.run
    driver = SegmentDriver(Calibrator())
    segmented = fleet.run(3, 0.1, driver)
    assert Simulator.run is run_before  # the stand-in put itself away
    config = shard_configs(fleet.spec(3, 0.1), 1)[0]
    one_shot = merge_shard_summaries([simulate_shard(config)])
    assert segmented.digest == one_shot.digest
    assert all(passed for _, passed, _ in segmented.checks)
    assert len(driver.measured()) == 12
    assert sum(s.packets for s in driver.rows) == one_shot.arrived_packets


# ----------------------------------------------------------------------
# Estimators, comparison, contract file
# ----------------------------------------------------------------------


def test_weighted_quantile():
    assert estimate.weighted_quantile([3.0, 1.0, 2.0], [1, 1, 1], 0.5) == 2.0
    assert estimate.weighted_quantile([1.0, 2.0], [1, 9], 0.5) == 2.0
    assert estimate.weighted_quantile([1.0, 2.0], [9, 1], 0.9) == 1.0


def _results(cost_runs, digest="d"):
    entries = {}
    for name, meta in estimate.END_TO_END.items():
        runs = cost_runs if name == "cost_per_pkt" else [1.0, 1.0, 1.0]
        runs = sorted(runs)
        entries[name] = {"value": runs[1], "unit": meta["unit"], "runs": runs,
                         "spread": estimate.spread(runs)}
    return {"workloads": {"sat_bcpqp": {"end_to_end": entries,
                                        "sim_digest": digest}}}


def test_compare_verdicts():
    bound = estimate.END_TO_END["cost_per_pkt"]["bound"]

    def verdict(a_runs, b_runs, **kw):
        rows = estimate.compare(_results(a_runs), _results(b_runs, **kw))
        return {r["metric"]: r["verdict"] for r in rows}

    tight = [10.0, 10.01, 10.02]
    assert verdict(tight, tight)["cost_per_pkt"] == "ok"
    worse = [v * (1 + 2 * bound) for v in tight]
    assert verdict(tight, worse)["cost_per_pkt"] == "regressed"
    # A spread wider than the bound hides a small shift ...
    noisy = [10.0, 10.0 * (1 + bound), 10.0 * (1 + 3 * bound)]
    assert verdict(tight, noisy)["cost_per_pkt"] == "unresolved"
    # ... unless every run of one side beats every run of the other.
    better = [v * 0.5 for v in noisy]
    assert verdict(tight, better)["cost_per_pkt"] == "ok"
    assert verdict(tight, tight, digest="e")["sim_digest"] == "behaviour changed"


def test_manifest_meets_the_contract():
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/suite"]
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")
    seen = set()
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for entry in (manifest["workloads"] + manifest["end_to_end"]
                  + manifest["per_layer"]):
        assert name.match(entry["name"]) and entry["name"] not in seen
        seen.add(entry["name"])
        assert unit.match(entry.get("unit", "s"))
        assert entry.get("better", "lower") in ("lower", "higher")
    setup = estimate.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert 2 <= len(manifest["workloads"]) <= 8
    assert len(manifest["per_layer"]) <= 128
    # Every layer of the boundary table has its two rows.
    for layer in spans.LAYERS:
        assert f"{layer}.self_share" in estimate.PER_LAYER
        assert f"{layer}.calls_per_pkt" in estimate.PER_LAYER


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------


def test_quick_suite_has_no_failed_checks(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--quick", "--repeats", "1",
         "--out", str(out)],
        cwd=REPO, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    results = json.loads(out.read_text())
    assert list(results["workloads"]) == estimate.WORKLOAD_NAMES
    for name, result in results["workloads"].items():
        assert result["checks_failed"] == 0 and result["checks_attempted"] >= 5
        layer = {k: v["value"] for k, v in result["per_layer"].items()}
        shares = sum(v for k, v in layer.items() if k.endswith(".self_share"))
        shares += layer["harness.gen_share"] + layer["harness.unattributed_share"]
        assert shares == pytest.approx(1.0), name
        assert layer["harness.unattributed_share"] <= 0.10
        assert layer["harness.trace_overhead"] > 1.0
        assert set(result["end_to_end"]) == set(estimate.END_TO_END)
        assert all(v["value"] > 0 for v in result["end_to_end"].values())
    assert "checks_failed=0" in done.stdout
