"""Deterministic chaos harness for the supervised sweep runner.

Seeded/explicit fault plans kill workers mid-cell (SIGKILL, as an OOM
killer would), hang them (recovered by the task timeout), raise
transient exceptions, and corrupt at-rest cache/journal entries — and
every test asserts the three properties the fault-tolerance layer
promises:

* **recovery** — the sweep completes despite the faults;
* **accounting** — retries/crashes/timeouts are counted exactly (the
  plans are deterministic, so the counts are too);
* **identity** — recovered output is byte-identical to a clean serial
  run (supervision changes availability, never values).

Fast fixed-seed smoke slice: ``pytest -m chaos`` (the whole module).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.experiments.common import print_table
from repro.runner.pool import _task_name
from repro.runner import (
    AggregateConfig,
    FaultPlan,
    ResultCache,
    RetryPolicy,
    SweepError,
    SweepJournal,
    TransientFault,
    corrupt_file,
    run_supervised,
    run_tasks,
    simulate_aggregate,
)
from repro.units import mbps, ms
from repro.workload.spec import FlowSpec

pytestmark = pytest.mark.chaos

#: No backoff sleeping in tests: retry schedules stay deterministic
#: through RetryPolicy.delay() but cost zero wall clock.
FAST = RetryPolicy(retries=2, backoff_base=0.0)


def _double(x):
    return x * 2


def _crumb_double(arg):
    """Worker that leaves one breadcrumb file per invocation."""
    value, crumb_dir = arg
    fd, _ = tempfile.mkstemp(prefix=f"cell{value}-", dir=crumb_dir)
    os.close(fd)
    return value * 2


def _crumb_count(crumb_dir, value) -> int:
    return sum(
        1 for name in os.listdir(crumb_dir)
        if name.startswith(f"cell{value}-")
    )


def _tiny_grid(n=3):
    return [
        AggregateConfig(
            scheme="bcpqp",
            specs=(FlowSpec(slot=0, cc="reno", rtt=ms(20)),
                   FlowSpec(slot=1, cc="cubic", rtt=ms(30))),
            rate=mbps(5),
            max_rtt=ms(30),
            horizon=1.5,
            warmup=0.5,
            seed=seed,
        )
        for seed in range(1, n + 1)
    ]


def _figure_table(outcomes) -> bytes:
    """Render outcomes the way the figure modules do (print_table)."""
    rows = [
        [o.scheme, f"{o.mean_normalized_throughput:.3f}",
         f"{o.drop_rate:.4f}", o.arrived_packets,
         f"{o.cycles_per_packet:.2f}"]
        for o in outcomes
    ]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        print_table(["scheme", "mean", "drops", "pkts", "cycles"], rows)
    return buffer.getvalue().encode()


class TestFaultRecovery:
    def test_sigkilled_worker_does_not_take_down_the_sweep(self):
        plan = FaultPlan.explicit({1: ["kill"]})
        report = run_supervised(
            _double, range(6), jobs=2, policy=FAST, fault_plan=plan
        )
        assert report.results == [0, 2, 4, 6, 8, 10]
        assert report.ok
        assert report.stats.crashes == 1
        assert report.stats.retries == 1

    def test_hung_cell_is_timed_out_and_retried(self):
        plan = FaultPlan.explicit({0: ["hang"]}, hang_seconds=30.0)
        report = run_supervised(
            _double, range(3), jobs=2, policy=FAST,
            task_timeout=1.0, fault_plan=plan,
        )
        assert report.results == [0, 2, 4]
        assert report.stats.timeouts == 1
        assert report.stats.retries == 1

    def test_transient_exception_is_retried_with_accounting(self):
        plan = FaultPlan.explicit({2: ["raise", "raise"]})
        report = run_supervised(
            _double, range(4), jobs=2, policy=FAST, fault_plan=plan
        )
        assert report.results == [0, 2, 4, 6]
        assert report.stats.errors == 2
        assert report.stats.retries == 2
        assert report.stats.crashes == 0

    def test_seeded_plan_is_deterministic(self):
        assert FaultPlan.seeded(7, 20, rate=0.5) == \
            FaultPlan.seeded(7, 20, rate=0.5)
        assert FaultPlan.seeded(7, 20, rate=0.5) != \
            FaultPlan.seeded(8, 20, rate=0.5)

    def test_mixed_seeded_faults_still_recover_identically(self):
        # One seeded storm over a real (tiny) simulation grid: killed,
        # raising and clean cells must all land on clean-run values.
        grid = _tiny_grid(3)
        clean = run_tasks(simulate_aggregate, grid)
        plan = FaultPlan.seeded(3, len(grid), rate=0.7,
                                kinds=("kill", "raise"))
        assert plan.plan, "seed must inject at least one fault"
        report = run_supervised(
            simulate_aggregate, grid, jobs=2, policy=FAST, fault_plan=plan
        )
        assert report.ok
        assert _figure_table(report.results) == _figure_table(clean)


class TestFailurePolicy:
    def test_exhausted_retries_record_failure_and_continue(self):
        plan = FaultPlan.explicit({0: ["raise"] * 3})
        report = run_supervised(
            _double, range(3), jobs=2, policy=FAST, fault_plan=plan
        )
        assert report.results == [None, 2, 4]
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert (failure.index, failure.kind, failure.attempts) == \
            (0, "error", 3)
        assert "TransientFault" in failure.detail

    def test_fail_fast_aborts_with_sweep_error(self):
        plan = FaultPlan.explicit({0: ["raise"] * 3})
        with pytest.raises(SweepError) as excinfo:
            run_supervised(
                _double, range(3), jobs=2, policy=FAST,
                fault_plan=plan, fail_fast=True,
            )
        assert excinfo.value.report.failures

    def test_run_tasks_surfaces_permanent_failures(self):
        plan = FaultPlan.explicit({1: ["raise"] * 2})
        with pytest.raises(SweepError):
            run_tasks(_double, range(3), jobs=2, retries=1,
                      fault_plan=plan)

    def test_circuit_breaker_degrades_parallel_to_serial(self):
        # Every cell crashes twice: the breaker must walk the worker
        # budget down (parallel -> reduced -> serial) instead of aborting,
        # and the third attempts still produce correct results.
        plan = FaultPlan.explicit({i: ["kill", "kill"] for i in range(4)})
        policy = RetryPolicy(retries=3, backoff_base=0.0,
                             breaker_threshold=2)
        report = run_supervised(
            _double, range(4), jobs=4, policy=policy, fault_plan=plan
        )
        assert report.results == [0, 2, 4, 6]
        assert report.stats.crashes == 8
        assert len(report.stats.degradations) >= 2
        assert "serial" in report.stats.degradations[-1]


class TestCorruptCache:
    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _tiny_grid(1)[0]
        first = run_tasks(simulate_aggregate, [config], cache=cache)
        entries = list(tmp_path.glob("*.pkl"))
        assert len(entries) == 1
        corrupt_file(entries[0], mode="truncate")
        second = run_tasks(simulate_aggregate, [config], cache=cache)
        assert cache.corrupt == 1
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [entries[0].name]
        assert _figure_table(first) == _figure_table(second)
        # The recomputed value was re-stored and verifies again.
        assert len(list(tmp_path.glob("*.pkl"))) == 1

    def test_garbled_entry_detected_by_checksum(self, tmp_path):
        # Same length, flipped bytes: only the digest can catch this.
        cache = ResultCache(tmp_path)
        cache.store("abc", {"x": list(range(100))})
        corrupt_file(tmp_path / "abc.pkl", mode="garble")
        hit, value = cache.load("abc")
        assert not hit and value is None
        assert cache.corrupt == 1

    def test_supervised_sweep_rides_through_corrupt_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        clean = run_tasks(_double, range(4), cache=cache)
        for entry in tmp_path.glob("*.pkl"):
            corrupt_file(entry, mode="truncate")
        report = run_supervised(
            _double, range(4), jobs=2, policy=FAST, cache=cache
        )
        assert report.results == clean
        assert cache.corrupt == 4


class TestJournalResume:
    def test_resume_replays_only_missing_cells(self, tmp_path):
        crumbs = tmp_path / "crumbs"
        crumbs.mkdir()
        cells = [(i, str(crumbs)) for i in range(5)]
        # First run: cell 3 fails permanently, the rest complete.
        plan = FaultPlan.explicit({3: ["raise"] * 2})
        policy = RetryPolicy(retries=1, backoff_base=0.0)
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        report = run_supervised(
            _crumb_double, cells, jobs=2, policy=policy,
            journal=journal, fault_plan=plan,
        )
        assert report.results == [0, 2, 4, None, 8]
        counts_before = {i: _crumb_count(crumbs, i) for i in range(5)}
        # Resume: only the missing cell reruns; replayed results are
        # loaded from the journal, not recomputed.
        journal2 = SweepJournal(tmp_path / "sweep.jsonl")
        report2 = run_supervised(
            _crumb_double, cells, jobs=2, policy=policy, journal=journal2
        )
        assert report2.results == [0, 2, 4, 6, 8]
        assert report2.stats.replayed == 4
        for i in (0, 1, 2, 4):
            assert _crumb_count(crumbs, i) == counts_before[i]
        assert _crumb_count(crumbs, 3) == counts_before[3] + 1

    def test_interrupted_resume_tables_are_byte_identical(self, tmp_path):
        # The acceptance property: interrupt a figure sweep mid-way,
        # resume it, and the rendered table must match an uninterrupted
        # serial run byte for byte.
        grid = _tiny_grid(3)
        uninterrupted = _figure_table(run_tasks(simulate_aggregate, grid))
        # "Ctrl-C" stand-in: fail-fast aborts the sweep after at least
        # one cell has been journaled (cell 1 permanently faults).
        plan = FaultPlan.explicit({1: ["raise"]})
        journal = SweepJournal(tmp_path / "fig.jsonl")
        with pytest.raises(SweepError):
            run_supervised(
                simulate_aggregate, grid, jobs=1,
                policy=RetryPolicy(retries=0, backoff_base=0.0),
                journal=journal, fault_plan=plan, fail_fast=True,
            )
        assert journal.results, "interruption must leave journaled cells"
        resumed = run_supervised(
            simulate_aggregate, grid, jobs=1,
            policy=RetryPolicy(retries=0, backoff_base=0.0),
            journal=SweepJournal(tmp_path / "fig.jsonl"),
        )
        assert resumed.ok
        assert resumed.stats.replayed >= 1
        assert _figure_table(resumed.results) == uninterrupted

    def test_torn_journal_line_is_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        report = run_supervised(_double, range(3), jobs=1, policy=FAST,
                                journal=journal)
        assert report.results == [0, 2, 4]
        # A crash mid-append leaves a torn trailing line.
        with (tmp_path / "sweep.jsonl").open("a") as fh:
            fh.write('{"done": 99, "resul')
        journal2 = SweepJournal(tmp_path / "sweep.jsonl")
        journal2.bind(_task_name(_double), [repr(x) for x in range(3)])
        assert sorted(journal2.results) == [0, 1, 2]
        journal2.close()

    def test_corrupt_journal_result_reruns_cell(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        run_supervised(_double, range(3), jobs=1, policy=FAST,
                       journal=journal)
        corrupt_file(Path(f"{tmp_path / 'sweep.jsonl'}.d") / "1.pkl",
                     mode="truncate")
        journal2 = SweepJournal(tmp_path / "sweep.jsonl")
        report = run_supervised(_double, range(3), jobs=1, policy=FAST,
                                journal=journal2)
        assert report.results == [0, 2, 4]
        assert report.stats.replayed == 2

    def test_stale_journal_for_different_grid_is_rotated(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        run_supervised(_double, range(3), jobs=1, policy=FAST,
                       journal=journal)
        journal2 = SweepJournal(tmp_path / "sweep.jsonl")
        with pytest.warns(RuntimeWarning, match="different grid"):
            report = run_supervised(_double, range(4), jobs=1, policy=FAST,
                                    journal=journal2)
        assert report.results == [0, 2, 4, 6]
        assert report.stats.replayed == 0
        assert (tmp_path / "sweep.jsonl.stale").exists()

    def test_journal_records_fault_events(self, tmp_path):
        plan = FaultPlan.explicit({0: ["raise"]})
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        run_supervised(_double, range(2), jobs=1, policy=FAST,
                       journal=journal, fault_plan=plan)
        lines = [
            json.loads(raw)
            for raw in (tmp_path / "sweep.jsonl").read_text().splitlines()
        ]
        events = [l for l in lines if "event" in l]
        assert [(e["event"], e["index"]) for e in events] == [("error", 0)]


class TestRetrySchedule:
    def test_backoff_grows_and_is_deterministic(self):
        policy = RetryPolicy(retries=5, backoff_base=0.5, jitter=0.1,
                             seed=42)
        delays = [policy.delay(3, attempt) for attempt in range(4)]
        assert delays == [policy.delay(3, a) for a in range(4)]
        for earlier, later in zip(delays, delays[1:]):
            assert later > earlier
        for attempt, delay in enumerate(delays):
            base = 0.5 * 2.0 ** attempt
            assert base <= delay <= base * 1.1

    def test_backoff_respects_ceiling(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_max=2.0, jitter=0.0)
        assert policy.delay(0, 10) == 2.0


class TestBadLimits:
    """A time limit or count that cannot be right fails before any worker
    starts, in the library and in every CLI that takes it."""

    @pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf")])
    def test_task_timeout_must_be_finite_and_positive(self, timeout,
                                                      monkeypatch):
        from repro.runner import pool

        def no_workers(*args, **kwargs):
            raise AssertionError("a worker context was opened")

        monkeypatch.setattr(pool, "_pool_context", no_workers)
        with pytest.raises(ValueError, match="task timeout"):
            run_supervised(_double, [1], jobs=2, task_timeout=timeout)

    @pytest.mark.parametrize("field,value", [
        ("retries", -2), ("backoff_base", -0.5), ("backoff_factor", float("nan")),
        ("backoff_max", float("inf")), ("jitter", -0.1),
    ])
    def test_retry_policy_rejects_impossible_values(self, field, value):
        with pytest.raises(ValueError):
            RetryPolicy(**{field: value})

    @pytest.mark.parametrize("args", [
        ["--jobs", "-3"], ["--retries", "-2"], ["--task-timeout", "-1"],
        ["--task-timeout", "0"], ["--task-timeout", "nan"],
        ["--task-timeout", "inf"],
    ])
    def test_clis_exit_2(self, args):
        from repro.experiments import fleet_scale
        from repro.experiments.__main__ import _parse_args
        from repro.validate.__main__ import main as validate_main

        entries = [
            lambda: validate_main(["--fuzz", "2", "--seed", "1", *args]),
            lambda: _parse_args(args),
        ]
        if args[0] == "--jobs":
            entries.append(lambda: fleet_scale._cli(["--aggregates", "2",
                                                     *args]))
        for entry in entries:
            with pytest.raises(SystemExit) as exited, \
                    contextlib.redirect_stderr(io.StringIO()):
                entry()
            assert exited.value.code == 2

    def test_zero_jobs_keeps_its_meaning(self):
        from repro.experiments.__main__ import _parse_args

        assert _parse_args(["--jobs", "0"]).jobs == 0
        assert _parse_args(["--retries", "0"]).retries == 0
