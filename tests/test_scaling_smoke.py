"""Smoke tests for the drain-scalability regression guard.

The paper's Figure 5 claim — cost per packet stays flat as aggregates
grow — must hold for our own hot path now that the phantom drain is
O(log N).  Two guards:

* a deterministic one on *modeled* cycles/packet, which by design counts
  the paper's per-packet operations and so must not grow with N at all;
* a wall-clock one driven through ``benchmarks/report.py --check``, kept
  loose (CI machines are noisy) but far below the ~100x an O(N)-per-
  arrival drain would show at N=1000 vs N=10.

The event-engine overhaul rides the same marker: its gates (heap
pushes/packet, events/packet, peak heap vs the pinned pre-overhaul
engine) are deterministic counters and run exactly.  The fleet gate is
exercised on a synthetic section (digest equality and same-run shard
efficiency only; no committed wall clock is read).

Marked ``scaling`` so wall-clock-sensitive environments can deselect
them with ``-m "not scaling"``.
"""

import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

import report  # noqa: E402

pytestmark = pytest.mark.scaling


@pytest.fixture(scope="module")
def scaling():
    # One timing round keeps the smoke test quick; the ratio check below
    # is loose enough that a single median sample suffices.
    return report.scaling_section(rounds=1, ns=(10, 100, 1000))


class TestScalingSmoke:
    def test_check_passes_at_loose_multiple(self, scaling):
        # An O(N)-per-arrival drain shows ~100x here; O(log N) shows ~1x.
        assert report.check_scaling(scaling, multiple=8.0) == []

    @pytest.mark.parametrize("scheme", report.SCALING_SCHEMES)
    def test_modeled_cycles_stay_flat(self, scaling, scheme):
        # Deterministic: the cost model charges the paper's per-packet
        # operations, so N=1000 must stay within jitter (window-roll and
        # activation transients) of N=10 — never a linear blowup.
        per_n = scaling["schemes"][scheme]
        small = per_n["10"]["modeled_cycles_per_packet"]
        big = per_n["1000"]["modeled_cycles_per_packet"]
        assert big <= 1.5 * small

    def test_check_flags_regressions(self):
        # The guard itself must trip when handed a linear blowup.
        fake = {
            "schemes": {
                "pqp": {
                    "10": {"seconds_per_packet": 1e-6},
                    "1000": {"seconds_per_packet": 1e-4},
                }
            }
        }
        failures = report.check_scaling(fake, multiple=3.0)
        assert len(failures) == 1 and "pqp" in failures[0]

    def test_shaper_rows_are_gated_in_the_same_run(self, scaling):
        # Wall-clock half, kept loose: the stateless head-list scan the
        # occupancy-tracked scheduler replaced measured ~300x here.
        rows = scaling["schemes"]["shaper"]
        assert sorted(rows, key=int) == ["10", "100", "1000"]
        assert (
            rows["1000"]["seconds_per_packet"]
            <= 5.0 * rows["10"]["seconds_per_packet"]
        )
        # Deterministic half: enqueue + dequeue charge the same ops per
        # packet at every queue count.
        assert rows["1000"]["modeled_cycles_per_packet"] == pytest.approx(
            rows["10"]["modeled_cycles_per_packet"], rel=0.01
        )
        # The gate itself uses the shaper's own multiple, not --check-multiple.
        cliff = {"schemes": {"shaper": {
            "10": {"seconds_per_packet": 1e-6},
            "1000": {"seconds_per_packet": 2.6e-6},
        }}}
        failures = report.check_scaling(cliff, multiple=1e9)
        assert len(failures) == 1 and "shaper" in failures[0]

    def test_nested_cell_is_gated_against_the_flat_cell(self, scaling):
        # Deterministic half: the policy-rich cell charges the paper's
        # per-packet operations like any flat cell.  Wall-clock half: the
        # same-run ratio gate trips on a share-lookup cliff.
        nested = scaling["nested"]
        flat = scaling["schemes"]["bcpqp"]["100"]
        assert nested["modeled_cycles_per_packet"] <= 1.5 * (
            flat["modeled_cycles_per_packet"]
        )
        assert nested["multiple_of_flat_100"] == pytest.approx(
            nested["seconds_per_packet"] / flat["seconds_per_packet"], abs=1e-3
        )
        cliff = {**scaling, "nested": {**nested, "multiple_of_flat_100": 4.5}}
        failures = report.check_scaling(cliff, multiple=1e9)
        assert len(failures) == 1 and "nested" in failures[0]

    def test_idle_class_rows_are_gated_in_the_same_run(self, scaling):
        idle = scaling["idle_classes"]
        rows = idle["classes"]
        assert sorted(rows, key=int) == ["4", "64", "1024"]
        # Deterministic half: the same traffic charges the same ops
        # however many idle classes surround it.
        assert (
            rows["1024"]["modeled_cycles_per_packet"]
            == rows["4"]["modeled_cycles_per_packet"]
        )
        # Wall-clock half, kept loose: a drain that walks every internal
        # node per advance measured ~7x here.
        assert (
            rows["1024"]["seconds_per_packet"]
            <= 3.0 * rows["4"]["seconds_per_packet"]
        )
        assert idle["multiple_of_fewest"] == pytest.approx(
            rows["1024"]["seconds_per_packet"]
            / rows["4"]["seconds_per_packet"], abs=1e-3
        )
        cliff = {**scaling, "idle_classes": {**idle, "multiple_of_fewest": 2.1}}
        failures = report.check_scaling(cliff, multiple=1e9)
        assert len(failures) == 1 and "1024 classes" in failures[0]


@pytest.fixture(scope="module")
def eventloop():
    # Default horizon: the deterministic gates compare against the pinned
    # pre-overhaul counters, which were measured at the default workload.
    return report.eventloop_section()


class TestEventloopSmoke:
    def test_deterministic_gates_pass(self, eventloop):
        # Heap-push / events-per-packet / peak-heap gates: exact on any
        # machine.  No wall clock is gated.
        assert report.check_eventloop(eventloop) == []

    @pytest.mark.parametrize("scheme", report.PRE_PR_EVENTLOOP)
    def test_workload_unchanged_vs_pre_overhaul(self, eventloop, scheme):
        # Same packets arrived => the coalesced engine runs the *same*
        # simulation, so the per-packet counter ratios are meaningful.
        cell = eventloop["schemes"][scheme]
        assert (
            cell["arrived_packets"]
            == report.PRE_PR_EVENTLOOP[scheme]["arrived_packets"]
        )

    def test_check_flags_regressions(self, eventloop):
        # Feed the gate a cell that regressed back to pre-overhaul costs.
        pre = report.PRE_PR_EVENTLOOP["bcpqp"]
        fake = {"schemes": {"bcpqp": dict(pre)}}
        failures = report.check_eventloop(fake)
        assert any("heap pushes" in f for f in failures)
        assert any("peak heap" in f for f in failures)
        # A slow box alone must not trip the gate.
        slow = {"schemes": {"bcpqp": {
            **eventloop["schemes"]["bcpqp"], "us_per_packet": 1e9,
        }}}
        assert report.check_eventloop(slow) == []


class TestFleetGate:
    """``check_fleet`` gates what this run measured and nothing else: no
    headline cell is needed and none is compared."""

    SECTION = {
        "cells": {
            "baseline": {"digest": "a" * 64, "us_per_packet": 30.0},
            "invariance": {"digest": "a" * 64, "us_per_packet": 31.0},
            "scaled": {"digest": "b" * 64, "us_per_packet": 33.0},
        },
        "digests_match": True,
        "shard_efficiency": 0.909,
    }

    def test_passes_without_a_headline_cell(self):
        assert report.check_fleet(self.SECTION, min_efficiency=0.7) == []

    def test_a_slow_headline_cell_is_not_gated(self):
        section = {**self.SECTION, "headline": {"us_per_packet": 1e9}}
        assert report.check_fleet(section, min_efficiency=0.7) == []

    def test_flags_digest_mismatch_and_low_efficiency(self):
        broken = {**self.SECTION, "digests_match": False,
                  "shard_efficiency": 0.5}
        failures = report.check_fleet(broken, min_efficiency=0.7)
        assert len(failures) == 2
        assert "invariance" in failures[0] and "efficiency" in failures[1]
