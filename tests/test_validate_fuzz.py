"""Differential-fuzzer smoke tests (marked ``validate``).

A small fixed-seed slice of the fuzz corpus, wired like the scaling
smoke tests: deselected from the default tier-1 run (``-m "not
validate"`` is implied by selecting none), selected in CI with
``-m validate``.  The full acceptance gate is::

    python -m repro.validate --fuzz 200 --seed 1
"""

import pytest

from repro.validate.fuzz import (
    BASELINES,
    FuzzCase,
    fuzz,
    generate_case,
    run_case,
)

pytestmark = pytest.mark.validate

#: Small fixed budget: a few cases through all 7 engine combinations
#: (3 services x 2 phantom schemes + 1 baseline scheme), plus the sharded-fleet diff tier on cases that
#: draw ``shards > 1``.
SMOKE_CASES = 6
SMOKE_SEED = 1


def _fleet_sims(case: FuzzCase) -> int:
    """Extra simulations the sharded-fleet diff tier adds to a case."""
    return 0 if case.shards <= 1 else 1 + case.shards


class TestFuzzSmoke:
    def test_corpus_slice_is_clean(self):
        failures, simulations = fuzz(SMOKE_CASES, SMOKE_SEED)
        assert simulations == sum(
            7 + _fleet_sims(generate_case(SMOKE_SEED, i))
            for i in range(SMOKE_CASES)
        )
        for failing in failures:
            for message in failing.violations + failing.divergences:
                print(message)
        assert failures == []

    def test_generation_is_deterministic(self):
        a = generate_case(SMOKE_SEED, 3)
        b = generate_case(SMOKE_SEED, 3)
        assert a == b
        assert generate_case(SMOKE_SEED + 1, 3) != a

    def test_case_json_round_trip(self):
        case = generate_case(SMOKE_SEED, 4)
        assert FuzzCase.from_json(case.to_json()) == case

    def test_round_trip_preserves_shards(self):
        case = next(
            generate_case(SMOKE_SEED, i)
            for i in range(32)
            if generate_case(SMOKE_SEED, i).shards > 1
        )
        assert FuzzCase.from_json(case.to_json()).shards == case.shards

    def test_legacy_case_json_defaults_to_unsharded(self):
        # Corpus lines recorded before the fleet tier carry no "shards"
        # key; they must keep meaning the single-process engine.
        case = generate_case(SMOKE_SEED, 4)
        payload = case.to_json()
        import json

        stripped = json.dumps(
            {k: v for k, v in json.loads(payload).items() if k != "shards"}
        )
        assert FuzzCase.from_json(stripped).shards == 1

    def test_shard_counts_are_drawn(self):
        drawn = {generate_case(SMOKE_SEED, i).shards for i in range(32)}
        assert 1 in drawn  # keeps cheap unsharded cases in the corpus
        assert any(s > 1 for s in drawn)

    def test_batch_limits_are_drawn(self):
        # The draw selects nothing now but stays as recorded, so every
        # later draw and the corpus JSON keep their values.
        drawn = {generate_case(SMOKE_SEED, i).batch for i in range(24)}
        assert 1 in drawn
        assert None in drawn
        assert any(b is not None and b > 1 for b in drawn)

    def test_baselines_rotate(self):
        drawn = {generate_case(SMOKE_SEED, i).baseline
                 for i in range(len(BASELINES))}
        assert drawn == set(BASELINES)

    def test_minimization_edits(self):
        case = generate_case(SMOKE_SEED, 0)
        while case.num_flows < 2:
            case = generate_case(SMOKE_SEED, case.index + 1)
        smaller = case.drop_flow(0)
        assert smaller.num_flows == case.num_flows - 1
        assert smaller.ccs == case.ccs[1:]
        shorter = case.with_horizon(case.horizon / 2)
        assert shorter.horizon == pytest.approx(case.horizon / 2)

    def test_single_case_report_shape(self):
        case = generate_case(SMOKE_SEED, 0)
        report = run_case(case)
        assert report.simulations == 7 + _fleet_sims(case)
        assert report.violations == []
        assert report.divergences == []
        assert not report.failed
