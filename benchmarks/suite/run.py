#!/usr/bin/env python3
"""The repo benchmark: five workloads, one command.

Suite mode (a person at a terminal)::

    python benchmarks/suite/run.py [--seed S] [--repeats K]
                                   [--workload NAME] [--quick] [--out FILE]

runs every workload -- K untraced repeats plus one traced repeat, each in
a fresh interpreter, one at a time -- prints every metric by name with
its unit, the layer budget and the check tally, and writes the results
as JSON.  ``--compare A.json B.json`` sets two such files side by side.

Contract mode (the driver; selected by ``--trace``)::

    python benchmarks/suite/run.py --workload NAME --seed N
                                   --seconds S --trace 0|1

runs one workload once and prints one JSON object as the last line of
standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

See README.md beside this file for the estimator and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import estimate

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"

#: Extra set-up-only children behind one contract-mode ``setup_s``.
SETUP_PROBES = 8
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170


def _child(mode: str, workload: str, seed: int, scale: float) -> dict:
    """Run one repeat (or set-up probe) in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(SUITE_DIR / "run.py"), "--child", mode,
         "--workload", workload, "--seed", str(seed), "--scale", repr(scale)],
        env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: {mode} child exited with {done.returncode}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def _child_main(args) -> int:
    import repeat

    if args.child == "probe":
        result = repeat.probe_setup(args.workload, args.seed, args.scale)
    else:
        result = repeat.run_repeat(
            args.workload, args.seed, args.scale, args.child == "traced"
        )
    print(json.dumps(result))
    return 0


def _measure(workload: str, seed: int, scale: float, repeats: int,
             traced: bool, probes: int) -> dict:
    children = [_child("repeat", workload, seed, scale) for _ in range(repeats)]
    setups = [_child("probe", workload, seed, scale)["setup_s"]
              for _ in range(probes)]
    span_child = _child("traced", workload, seed, scale) if traced else None
    return estimate.summarise(workload, children, span_child, setups)


def _contract_main(args) -> int:
    scale = args.seconds / estimate.MANIFEST["run_seconds"]
    traced = args.trace == 1
    result = _measure(
        args.workload, args.seed, scale, repeats=1, traced=traced,
        probes=0 if traced else SETUP_PROBES,
    )
    section = result["per_layer" if traced else "end_to_end"]
    for failure in result["failed_checks"]:
        print(f"check failed: {failure['name']} {failure['detail']}",
              file=sys.stderr)
    print(f"{args.workload} seed={args.seed} sim_digest={result['sim_digest']}")
    print(json.dumps({
        "correct": result["checks_failed"] == 0,
        "attempted": result["checks_attempted"],
        "failed": result["checks_failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in section.items()
        },
    }))
    return 0 if result["checks_failed"] == 0 else 1


def _suite_main(args) -> int:
    scale = 0.1 if args.quick else 1.0
    names = [args.workload] if args.workload else estimate.WORKLOAD_NAMES
    results = {"seed": args.seed, "scale": scale, "repeats": args.repeats,
               "workloads": {}}
    failed = attempted = 0
    for name in names:
        result = _measure(name, args.seed, scale, args.repeats, True, 0)
        results["workloads"][name] = result
        attempted += result["checks_attempted"]
        failed += result["checks_failed"]
        _print_workload(result)
    out = Path(args.out) if args.out else (
        SUITE_DIR / "out" / f"results_seed{args.seed}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\nchecks_attempted={attempted} checks_failed={failed}")
    print(f"results written to {out}")
    return 0 if failed == 0 else 1


def _print_workload(result: dict) -> None:
    print(f"\n== {result['workload']}  sim_digest={result['sim_digest']}")
    print(f"   checks_attempted={result['checks_attempted']} "
          f"checks_failed={result['checks_failed']}")
    for failure in result["failed_checks"]:
        print(f"   FAILED {failure['name']}: {failure['detail']}")
    print("   end to end (median over repeats, setup_s their minimum; "
          "spread = (max-min)/median):")
    for name, entry in result["end_to_end"].items():
        note = ""
        if name == "cost_per_pkt":
            note = f"  [{result['segments']} post-warm-up segments/repeat]"
        print(f"     {name:<16}{entry['value']:>14.6g} {entry['unit']:<14}"
              f" spread {entry['spread']:.4f}{note}")
    print("   layer budget (self_share x cost_per_pkt; rows sum to it):")
    for layer, share, cost in estimate.budget(result):
        print(f"     {layer:<22}{share:>8.4f}{cost:>10.3f} cal_us/packet")
    print("   per layer:")
    for name, entry in result["per_layer"].items():
        if not name.endswith(".self_share"):
            print(f"     {name:<34}{entry['value']:>14.6g} {entry['unit']}")


def _compare_main(paths: list[str]) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    rows = estimate.compare(a, b)
    print(f"{'workload':<16}{'metric':<16}{'A':>14}{'B':>14}"
          f"{'delta':>10}{'bound':>8}  verdict")
    for row in rows:
        if row["delta"] is None:
            print(f"{row['workload']:<16}{row['metric']:<16}{row['a']:>14}"
                  f"{row['b']:>14}{'':>10}{'':>8}  {row['verdict']}")
            continue
        print(f"{row['workload']:<16}{row['metric']:<16}{row['a']:>14.6g}"
              f"{row['b']:>14.6g}{row['delta']:>+10.4f}{row['bound']:>8.3f}"
              f"  {row['verdict']}")
    bad = [r for r in rows if r["verdict"] != "ok"]
    print(f"\n{len(rows)} rows, {len(bad)} not ok")
    return 0 if not bad else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="divide every workload's size by 10")
    parser.add_argument("--out", help="results file (suite mode)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--seconds", type=float,
                        help="contract mode: run length (sets the work size)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract mode: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--child", choices=("repeat", "traced", "probe"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return _child_main(args)
    if args.compare:
        return _compare_main(args.compare)
    if not (SRC_DIR / "repro").is_dir():
        print(f"no program to measure: {SRC_DIR / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = estimate.WORKLOAD_NAMES
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.trace is not None:
        if not args.workload or args.seconds is None:
            parser.error("--trace needs --workload and --seconds")
        return _contract_main(args)
    return _suite_main(args)


if __name__ == "__main__":
    sys.exit(main())
