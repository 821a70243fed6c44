"""CLI for the cross-engine differential fuzzer.

Examples
--------
Run the standard corpus (the CI acceptance gate)::

    python -m repro.validate --fuzz 200 --seed 1

Fan out over worker processes::

    python -m repro.validate --fuzz 200 --seed 1 --jobs 8

Re-run one generated case, or an explicit (minimized) repro::

    python -m repro.validate --index 17 --seed 1
    python -m repro.validate --case '{"index":17,...}'
"""

from __future__ import annotations

import argparse
import sys

from repro.runner.supervisor import non_negative_int, positive_seconds
from repro.validate.fuzz import (
    CaseReport,
    FuzzCase,
    fuzz,
    generate_case,
    minimize,
    run_case,
    run_case_supervised,
)


def _report_failure(
    report: CaseReport,
    *,
    shrink: bool = True,
    task_timeout: float | None = None,
) -> None:
    case = report.case
    print(f"case {case.index} FAILED:")
    for message in report.violations:
        print(f"  violation: {message}")
    for message in report.divergences:
        print(f"  divergence: {message}")
    if report.crash:
        print(f"  crash: {report.crash}")
    if shrink and report.crash:
        # A crashing case would take the minimizer down with it; shrink
        # each candidate in a disposable supervised worker instead.
        repro = minimize(
            case,
            runner=lambda c: run_case_supervised(c, task_timeout=task_timeout),
        )
    elif shrink:
        repro = minimize(case)
    else:
        repro = case
    print(f"  repro: python -m repro.validate --case '{repro.to_json()}'")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="Invariant-checked cross-engine differential fuzzing.",
    )
    parser.add_argument(
        "--fuzz", type=int, metavar="N", help="run cases 0..N-1"
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="corpus root seed (default 1)"
    )
    parser.add_argument(
        "--jobs", "-j", type=non_negative_int, default=None,
        help="worker processes for --fuzz (default: in-process); with "
        "workers, cases run under the supervised pool — a crashing case "
        "becomes a reported finding instead of killing the campaign",
    )
    parser.add_argument(
        "--retries", type=non_negative_int, default=1,
        help="supervised-pool retries per case before a crash/hang is "
        "reported as a finding (default 1; --jobs only)",
    )
    parser.add_argument(
        "--task-timeout", type=positive_seconds, default=None,
        metavar="SECONDS",
        help="wall-clock limit per case; a hung case is killed and "
        "reported as a finding (--jobs only)",
    )
    parser.add_argument(
        "--impair", action="store_true",
        help="draw impairment channels (loss/jitter/reorder/corrupt) per "
        "case; the impaired corpus shares scenario bodies with the clean "
        "corpus at equal (seed, index)",
    )
    parser.add_argument(
        "--churn", action="store_true",
        help="draw a live-reconfiguration plan (rate/weight/priority "
        "changes, queue resizes) per case, exercising the epoch-seam "
        "migration paths; the churned corpus shares scenario bodies with "
        "the churn-free corpus at equal (seed, index)",
    )
    parser.add_argument(
        "--index", type=int, default=None,
        help="run only generated case INDEX",
    )
    parser.add_argument(
        "--case", type=str, default=None,
        help="run one explicit case from its JSON repro line",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failing cases without minimizing them",
    )
    args = parser.parse_args(argv)

    if args.case is not None:
        try:
            case = FuzzCase.from_json(args.case)
        except ValueError as exc:
            print(f"--case: {exc}", file=sys.stderr)
            return 2
        report = run_case(case)
    elif args.index is not None:
        report = run_case(
            generate_case(
                args.seed, args.index, impair=args.impair, churn=args.churn
            )
        )
    elif args.fuzz is not None:
        if args.fuzz <= 0:
            parser.error("--fuzz needs a positive case count")
        failures, simulations = fuzz(
            args.fuzz,
            args.seed,
            jobs=args.jobs,
            retries=args.retries,
            task_timeout=args.task_timeout,
            impair=args.impair,
            churn=args.churn,
        )
        for failing in failures:
            _report_failure(
                failing,
                shrink=not args.no_shrink,
                task_timeout=args.task_timeout,
            )
        violations = sum(len(f.violations) for f in failures)
        divergences = sum(len(f.divergences) for f in failures)
        crashes = sum(1 for f in failures if f.crash)
        print(
            f"fuzz: {args.fuzz} cases, {simulations} simulations, "
            f"{violations} violations, {divergences} divergences, "
            f"{crashes} crashes"
        )
        return 1 if failures else 0
    else:
        parser.error("nothing to do: pass --fuzz N, --index I or --case JSON")
        return 2  # pragma: no cover - parser.error raises

    if report.failed:
        _report_failure(report, shrink=not args.no_shrink)
        return 1
    print(
        f"case {report.case.index} OK: {report.simulations} simulations, "
        "0 violations, 0 divergences"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
