"""Differential-fuzzer smoke tests (marked ``validate``).

A small fixed-seed slice of the fuzz corpus, wired like the scaling
smoke tests: deselected from the default tier-1 run (``-m "not
validate"`` is implied by selecting none), selected in CI with
``-m validate``.  The full acceptance gate is::

    python -m repro.validate --fuzz 200 --seed 1
"""

import pytest

from repro.validate.__main__ import main as validate_main
from repro.validate.fuzz import (
    BASELINES,
    FuzzCase,
    fuzz,
    generate_case,
    run_case,
)

pytestmark = pytest.mark.validate

#: Small fixed budget: a few cases through all 5 engine combinations
#: (2 services x 2 phantom schemes + 1 baseline scheme), plus the
#: sharded-fleet diff tier on cases that draw ``shards > 1``.
SMOKE_CASES = 6
SMOKE_SEED = 1
#: Simulations every case runs before the fleet tier.
ENGINE_SIMS = 5
#: ``generate_case(1, 0).to_json()`` as recorded while the fuzzer still
#: ran a third (quantum) engine, less the retired ``batch`` key.  A case
#: names no engines, so a corpus line from then parses and runs unchanged.
RECORDED_CASE = (
    '{"index":0,"seed":980261747,"ccs":["vegas","vegas"],'
    '"rtts":[0.0902608203447093,0.05361506278963951],'
    '"starts":[0.07985857570806963,0.0014907475329350994],'
    '"rate":1493802.2059638107,"horizon":1.4184371282273929,'
    '"warmup":0.25,"policy_kind":"prioritized","weights":[2.0,1.0],'
    '"priorities":[1,0],"baseline":"shaper","shards":3,'
    '"impair":null,"churn":null}'
)


#: ``generate_case(1, 3, impair=True, churn=True).to_json()``, recorded
#: before ``from_json`` checked its input (nested impairment and churn
#: objects included), less the retired ``batch`` key.
RECORDED_IMPAIRED_CHURNED_CASE = (
    '{"index":3,"seed":685944686,"ccs":["reno","newreno"],'
    '"rtts":[0.012306845229464146,0.07470861777956057],'
    '"starts":[0.1428185736878211,0.18731047839189965],'
    '"rate":1089669.1980856701,"horizon":1.315574797354094,'
    '"warmup":0.25,"policy_kind":"prioritized","weights":[2.0,3.0],'
    '"priorities":[0,0],"baseline":"fairpolicer","shards":1,'
    '"impair":{"loss":0.0,"ge":null,"ack_loss":0.0,'
    '"jitter":0.006916489452724665,"reorder":0.07109724315755657,'
    '"reorder_extra":0.006090632294981098,"duplicate":0.0,"corrupt":0.0,'
    '"trace_rates":null,"trace_buffer":null,"trace_delay":0.0},'
    '"churn":{"actions":[{"time":0.7988110653122633,"rate":null,'
    '"weights":null,"priorities":null,'
    '"capacity_scale":1.7787685240547764},'
    '{"time":0.7075063926331991,"rate":null,"weights":[1.0,1.0],'
    '"priorities":null,"capacity_scale":1.4692541217703494},'
    '{"time":0.6967964132161504,"rate":null,"weights":[1.0,1.0],'
    '"priorities":null,"capacity_scale":1.3315184572020344},'
    '{"time":0.7131073807705932,"rate":null,"weights":[1.0,1.0,1.0,1.0],'
    '"priorities":null,"capacity_scale":1.3930155705874048}]}}'
)


def _fleet_sims(case: FuzzCase) -> int:
    """Extra simulations the sharded-fleet diff tier adds to a case."""
    return 0 if case.shards <= 1 else 1 + case.shards


class TestFuzzSmoke:
    def test_corpus_slice_is_clean(self):
        failures, simulations = fuzz(SMOKE_CASES, SMOKE_SEED)
        assert simulations == sum(
            ENGINE_SIMS + _fleet_sims(generate_case(SMOKE_SEED, i))
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

    @pytest.mark.parametrize("text,message", [
        ('{"bogus":1}', "'bogus'"),
        ("[1,2]", "expected a JSON object"),
        ("null", "expected a JSON object"),
        # A line recorded while cases still carried a batch limit.
        pytest.param(RECORDED_CASE.replace('"shards"', '"batch":1,"shards"'),
                     "'batch'", id="retired-batch-key"),
        # json.loads accepts NaN; the impairment spec does not.
        pytest.param(RECORDED_CASE.replace(
            '"impair":null', '"impair":{"jitter":NaN}'),
            "jitter must be finite", id="nan-jitter"),
    ])
    def test_malformed_case_json_fails_typed(self, text, message, capsys):
        with pytest.raises(ValueError, match=message):
            FuzzCase.from_json(text)
        assert validate_main(["--case", text]) == 2
        assert message in capsys.readouterr().err

    def test_recorded_case_json_still_round_trips(self):
        case = FuzzCase.from_json(RECORDED_IMPAIRED_CHURNED_CASE)
        assert case == generate_case(SMOKE_SEED, 3, impair=True, churn=True)
        assert case.to_json() == RECORDED_IMPAIRED_CHURNED_CASE

    def test_shard_counts_are_drawn(self):
        drawn = {generate_case(SMOKE_SEED, i).shards for i in range(32)}
        assert 1 in drawn  # keeps cheap unsharded cases in the corpus
        assert any(s > 1 for s in drawn)

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
        case = FuzzCase.from_json(RECORDED_CASE)
        assert case == generate_case(SMOKE_SEED, 0)
        report = run_case(case)
        assert report.simulations == ENGINE_SIMS + _fleet_sims(case)
        assert report.violations == []
        assert report.divergences == []
        assert not report.failed
