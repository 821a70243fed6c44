"""Run experiments from the command line: ``python -m repro.experiments``.

With no arguments, prints every figure's tables back to back — the full
evaluation section of the paper, regenerated (at the documented
scaled-down defaults; individual modules accept richer configs when run
directly).  Positional arguments select figures (``fig4 fig5`` …);
``--jobs N`` fans each figure's simulation grid over N worker processes,
and ``--cache DIR`` reuses results for unchanged (config, scheme-code)
cells across invocations.  Serial runs (the default) produce output
byte-identical to the pre-runner implementation.
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import (
    appendix_a,
    churn,
    ext_ecn,
    ext_hash_classification,
    fig1_motivation,
    fig2_sizing,
    fig3_secondary_bottleneck,
    fig4_rate_enforcement,
    fig5_efficiency,
    fig6_policy,
    fig7_applications,
    fig9_video_timeseries,
    fleet_scale,
    impairments,
)
from repro.runner import ResultCache, default_jobs
from repro.runner.supervisor import non_negative_int, positive_seconds

_MODULES = (
    ("Figure 1", "fig1", fig1_motivation),
    ("Figure 2", "fig2", fig2_sizing),
    ("Figure 3", "fig3", fig3_secondary_bottleneck),
    ("Figure 4", "fig4", fig4_rate_enforcement),
    ("Figure 5", "fig5", fig5_efficiency),
    ("Figure 6", "fig6", fig6_policy),
    ("Figure 7", "fig7", fig7_applications),
    ("Figure 9", "fig9", fig9_video_timeseries),
    ("Appendix A", "appendix_a", appendix_a),
    ("Extension: ECN", "ext_ecn", ext_ecn),
    ("Extension: hashed classification", "ext_hash", ext_hash_classification),
)

# On-demand entries: selectable by name but excluded from the default
# all-figures run (the fleet demo simulates thousands of aggregates; the
# impairments grid runs 18 multi-second cells and, being off the paper's
# figure list, stays opt-in so the default run remains byte-stable).
_ON_DEMAND = (
    ("Fleet scale", "fleet", fleet_scale),
    ("Impairments", "impairments", impairments),
    ("Policy churn", "churn", churn),
)

_NAMES = tuple(name for _, name, _ in _MODULES + _ON_DEMAND)
_DEFAULT_NAMES = tuple(name for _, name, _ in _MODULES)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        choices=[[], *_NAMES],  # empty selection = all figures
        metavar="FIGURE",
        help=f"figures to run (default: all). Choices: {', '.join(_NAMES)}",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=non_negative_int,
        default=None,
        metavar="N",
        help="fan simulation grids over N worker processes "
        "(0 = one per CPU; default: serial)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="directory for the on-disk result cache (reuses results for "
        "unchanged config + scheme code)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="attach the runtime invariant checker to every simulation "
        "(figure output is unchanged; a broken invariant aborts the run)",
    )
    parser.add_argument(
        "--retries",
        type=non_negative_int,
        default=None,
        metavar="N",
        help="retry failed/crashed/hung cells up to N times with "
        "exponential backoff (enables the supervised pool: worker "
        "crashes no longer abort the sweep)",
    )
    parser.add_argument(
        "--task-timeout",
        type=positive_seconds,
        default=None,
        metavar="SECONDS",
        help="kill and retry any simulation cell exceeding this wall "
        "clock (enables the supervised pool)",
    )
    parser.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="directory of write-ahead sweep journals; completed cells "
        "are recorded as the sweep runs, and a re-run after an "
        "interruption replays them instead of re-simulating "
        "(output is byte-identical to an uninterrupted run)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the sweep on the first cell that exhausts its "
        "retries (default: finish the remaining cells, then report)",
    )
    parser.add_argument(
        "--profile",
        choices=("cprofile",),
        default=None,
        help="profile the run (forces serial execution) and print a "
        "cumulative-time table of the hottest functions afterwards, "
        "plus the packet-path entry points broken out",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> None:
    """Run the selected experiments, timing each."""
    args = _parse_args(argv)
    if args.validate:
        from repro.experiments.common import set_validate

        set_validate(True)
    supervised = (
        args.retries is not None
        or args.task_timeout is not None
        or args.resume is not None
        or args.fail_fast
    )
    if supervised:
        from repro.experiments.common import set_execution

        set_execution(
            retries=args.retries,
            task_timeout=args.task_timeout,
            fail_fast=args.fail_fast,
            journal_root=args.resume,
        )
    jobs = default_jobs() if args.jobs == 0 else args.jobs
    if args.profile:
        # Worker processes would escape the profiler; run in-process.
        jobs = None
    try:
        cache = ResultCache(args.cache) if args.cache else None
    except OSError as exc:
        raise SystemExit(f"error: cannot use cache dir {args.cache!r}: {exc}")
    selected = set(args.figures) or set(_DEFAULT_NAMES)
    grand_start = time.time()
    profiler = None
    if args.profile == "cprofile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        for label, name, module in _MODULES + _ON_DEMAND:
            if name not in selected:
                continue
            print("=" * 72)
            start = time.time()
            module.main(jobs=jobs, cache=cache)
            print(f"[{label} done in {time.time() - start:.1f} s]")
            print()
    finally:
        if profiler is not None:
            profiler.disable()
            import pstats

            print("=" * 72)
            print("cProfile: top 30 functions by cumulative time")
            stats = pstats.Stats(profiler).sort_stats("cumulative")
            stats.print_stats(30)
            # The packet path in one table: every component's receive
            # entry, the sender's ACK/send bodies and the recovery steps
            # they call, so loss recovery is billed by name instead of
            # inside _process_ack's cumulative time.
            print("cProfile: packet-path entry points")
            stats.print_stats(
                r"\(receive(_batch|_ack)?\)"
                r"|_process_ack|_try_send"
                r"|_apply_sack|_advance_una|_detect_losses"
                r"|_sack_blocks|\(_insert\)"
            )
    print("=" * 72)
    print(f"All experiments completed in {time.time() - grand_start:.1f} s.")
    if cache is not None:
        corrupt = f", {cache.corrupt} corrupt" if cache.corrupt else ""
        print(f"[cache: {cache.hits} hits, {cache.misses} misses{corrupt}]")
    if supervised:
        from repro.runner.supervisor import session_stats

        stats = session_stats()
        print(
            f"[sweep: {stats['replayed']} replayed, "
            f"{stats['retries']} retries, {stats['crashes']} crashes, "
            f"{stats['timeouts']} timeouts, "
            f"{stats['failed_cells']} failed cells]"
        )


if __name__ == "__main__":
    main()
