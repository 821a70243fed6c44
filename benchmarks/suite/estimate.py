"""From repeats to metrics: estimators, summaries and A/B comparison.

Metric names, units, directions and regression bounds live in
``BENCHMARK.json`` at the repo root and are read from there, so the
contract file and the harness cannot drift apart.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]

def weighted_quantile(values, weights, q: float) -> float:
    """Smallest value whose cumulative weight reaches ``q`` of the total."""
    pairs = sorted(zip(values, weights))
    target = q * sum(w for _, w in pairs)
    seen = 0.0
    for value, weight in pairs:
        seen += weight
        if seen >= target:
            return value
    return pairs[-1][0]


def spread(values) -> float:
    """(max - min) / median: the repeat spread printed beside a value."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def iqr_share(values) -> float:
    """Inter-quartile distance as a share of the median (needs >= 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def measured_segments(child: dict) -> list[list[float]]:
    """Post-warm-up segments that carried packets:
    ``[end, cpu_us, packets, cal_us, wall_ns]`` rows."""
    first = child["warmup"] + 1e-12
    return [s for s in child["segments"] if s[0] > first and s[2] > 0]


def segment_costs(child: dict) -> tuple[list[float], list[int]]:
    """Per-segment cal_us/packet and the packet weights."""
    rows = measured_segments(child)
    return [s[1] / s[2] / s[3] for s in rows], [s[2] for s in rows]


def end_to_end_of(child: dict) -> dict[str, float]:
    """The eight end-to-end numbers of one untraced repeat."""
    costs, weights = segment_costs(child)
    timing = child["timing"]
    fidelity = child["fidelity"]
    return {
        "cost_per_pkt": weighted_quantile(costs, weights, 0.5),
        # A total is rescaled by the run's *mean* host speed: the slow
        # moments that lengthen it raise the mean, not the median.
        "job_cost": timing["job_cpu_s"]
        / statistics.fmean(child["cal_samples"]),
        "setup_s": timing["setup_s"],
        "peak_rss_mb": timing["peak_rss_mb"],
        "rate_accuracy": 1.0 - fidelity["rate_error"],
        "peak_burst": fidelity["peak_burst"],
        "fairness_jain": fidelity["fairness_jain"],
        "delivery_ratio": 1.0 - fidelity["drop_rate"],
    }


def harness_counters(child: dict) -> dict[str, float]:
    """What the estimator itself looked like in one untraced repeat."""
    costs, weights = segment_costs(child)
    rows = measured_segments(child)
    samples = child["cal_samples"]
    timing = child["timing"]
    return {
        "harness.slice_cost_p50": weighted_quantile(costs, weights, 0.5),
        # Reported only when ten samples lie beyond it.
        "harness.slice_cost_p90": weighted_quantile(costs, weights, 0.9)
        if len(costs) >= 100 else 0.0,
        "harness.segments": len(costs),
        "harness.cal_us_per_iter": statistics.median(samples),
        "harness.cal_spread": iqr_share(samples),
        "harness.raw_us_per_pkt":
            sum(s[1] for s in rows) / sum(s[2] for s in rows),
        "runner.import_s": timing["import_s"],
        "runner.build_s": timing["build_s"],
        "metrics.measure_s": timing["measure_s"],
        "fidelity.rate_error": child["fidelity"]["rate_error"],
        "fidelity.drop_rate": child["fidelity"]["drop_rate"],
    }


def summarise(
    workload: str,
    repeats: list[dict],
    traced: dict | None,
    setup_probes: list[float] = (),
) -> dict:
    """Fold a workload's children into its reported result.

    ``repeats`` are untraced children -- every end-to-end number comes
    from them; ``traced`` supplies the span rows; ``setup_probes`` are
    extra ``setup_s`` samples from set-up-only children (``setup_s`` is
    the minimum over all of them, every other metric a median).
    """
    checks = []
    for index, child in enumerate(repeats + ([traced] if traced else [])):
        label = "traced" if child is traced else f"repeat {index}"
        for name, passed, detail in child["checks"]:
            checks.append((f"{label}: {name}", passed, detail))
    digests = {child["sim_digest"] for child in repeats}
    if repeats:
        checks.append(("sim_digest equal across repeats", len(digests) == 1,
                       " ".join(sorted(digests))))
    if traced and repeats:
        checks.append((
            "traced sim_digest equals untraced",
            traced["sim_digest"] in digests,
            traced["sim_digest"],
        ))
    result = {
        "workload": workload,
        "sim_digest": (repeats or [traced])[0]["sim_digest"],
        "checks_attempted": len(checks),
        "checks_failed": sum(1 for _, passed, _ in checks if not passed),
        "failed_checks": [
            {"name": name, "detail": detail}
            for name, passed, detail in checks if not passed
        ],
        "end_to_end": {},
        "per_layer": {},
    }
    if repeats:
        runs = [end_to_end_of(child) for child in repeats]
        for name, meta in END_TO_END.items():
            values = [run[name] for run in runs]
            middle = statistics.median
            if name == "setup_s":
                # Raw CPU seconds, which a busy neighbour can only
                # lengthen: the shortest of the set-ups is the steady one.
                values = values + list(setup_probes)
                middle = min
            result["end_to_end"][name] = {
                "value": middle(values),
                "unit": meta["unit"],
                "runs": values,
                "spread": spread(values),
            }
        result["segments"] = len(segment_costs(repeats[0])[0])
    if traced:
        layer = dict(traced["counters"])
        if repeats:
            per_repeat = [harness_counters(child) for child in repeats]
            for key in per_repeat[0]:
                layer[key] = statistics.median(r[key] for r in per_repeat)
            costs = [run["cost_per_pkt"] for run in runs]
            jobs = [run["job_cost"] for run in runs]
            layer["harness.repeat_spread"] = spread(costs)
            layer["harness.trace_overhead"] = (
                end_to_end_of(traced)["job_cost"] / statistics.median(jobs)
            )
        for name, meta in PER_LAYER.items():
            result["per_layer"][name] = {
                "value": float(layer.get(name, 0.0)), "unit": meta["unit"],
            }
        result["trace_file"] = traced["trace"]["file"]
    return result


def budget(result: dict) -> list[tuple[str, float, float]]:
    """The printed layer budget: ``(layer, share, cal_us/packet)`` rows,
    largest first; the rows sum to ``cost_per_pkt``."""
    cost = result["end_to_end"]["cost_per_pkt"]["value"]
    rows = []
    for name, entry in result["per_layer"].items():
        if entry["value"] <= 0:
            continue
        if name.endswith(".self_share"):
            layer = name[: -len(".self_share")]
        elif name in ("harness.gen_share", "harness.unattributed_share"):
            layer = name[: -len("_share")]
        else:
            continue  # other *_share metrics are ratios, not budget rows
        rows.append((layer, entry["value"], entry["value"] * cost))
    return sorted(rows, key=lambda row: -row[1])


def compare(a: dict, b: dict) -> list[dict]:
    """Per workload x end-to-end metric: B against A.

    ``regressed`` when B's median is worse than A's by more than the
    metric's bound; ``unresolved`` when either side's repeat spread
    exceeds the bound, unless every run of one side beats every run of
    the other; otherwise ``ok``.
    """
    rows = []
    for workload in WORKLOAD_NAMES:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        side_a = a["workloads"][workload]
        side_b = b["workloads"][workload]
        for name, meta in END_TO_END.items():
            ea = side_a["end_to_end"][name]
            eb = side_b["end_to_end"][name]
            lower = meta["better"] == "lower"
            base = ea["value"]
            delta = (eb["value"] - base) / base if base else 0.0
            worse = delta if lower else -delta
            runs_a, runs_b = ea["runs"], eb["runs"]
            separated = (
                max(runs_a) < min(runs_b) or max(runs_b) < min(runs_a)
            )
            noisy = max(ea["spread"], eb["spread"]) > meta["bound"]
            if noisy and not separated:
                verdict = "unresolved"
            elif worse > meta["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": meta["unit"],
                "a": base, "b": eb["value"], "delta": delta,
                "bound": meta["bound"], "verdict": verdict,
            })
        if side_a["sim_digest"] != side_b["sim_digest"]:
            rows.append({
                "workload": workload, "metric": "sim_digest", "unit": "",
                "a": side_a["sim_digest"][:12], "b": side_b["sim_digest"][:12],
                "delta": None, "bound": None, "verdict": "behaviour changed",
            })
    return rows
