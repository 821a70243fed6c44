"""One repeat of one workload, in this (fresh) process.

``run.py`` spawns a new interpreter per repeat -- the packet pools are
class-level, so pool warmth would leak between repeats otherwise -- and
that child calls :func:`run_repeat` and prints the result as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path

from calibrate import Calibrator
from segments import SegmentDriver
from spans import GEN_LAYER, LAYERS, SpanRecorder, layer_rows

OUT_DIR = Path(__file__).resolve().parent / "out"


class _SetupDone(Exception):
    """Raised at the first ``run`` entry of a set-up probe."""


class _SetupProbe(SegmentDriver):
    """A driver that stops where ``setup_s`` is taken: the probe pays
    import and construction, never the run."""

    def drive(self, advance, **_kwargs) -> None:
        self.setup_cpu = time.process_time() - self.calibrator.cpu_seconds
        raise _SetupDone


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(workload: str, seed: int, scale: float) -> dict:
    """Import, build, stop before the first event: ``setup_s`` only."""
    from workloads import WORKLOADS

    driver = _SetupProbe(Calibrator())
    try:
        WORKLOADS[workload].run(seed, scale, driver)
    except _SetupDone:
        pass
    return {"workload": workload, "setup_s": driver.setup_cpu}


def run_repeat(workload: str, seed: int, scale: float, traced: bool) -> dict:
    from workloads import WORKLOADS  # imports repro: part of import_s

    import_s = time.process_time()
    baseline_rss = _rss_mb()
    calibrator = Calibrator()
    recorder = None
    if traced:
        recorder = SpanRecorder()
        recorder.install()
        recorder.calibrate_overhead()
    driver = SegmentDriver(calibrator, recorder)
    outcome = WORKLOADS[workload].run(seed, scale, driver)

    measured = driver.measured()
    if recorder is not None:
        trace = _trace_report(workload, recorder, driver, outcome, measured)
        outcome.counters.update(trace.pop("counters"))
    else:
        trace = None
    peak_rss = _rss_mb()
    aggregates = outcome.counters.get("fleet.aggregates")
    if aggregates:
        outcome.counters["fleet.rss_kb_per_aggregate"] = (
            (peak_rss - baseline_rss) * 1024.0 / aggregates
        )
    total_cpu = time.process_time()
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "sim_digest": outcome.digest,
        "fidelity": {
            "rate_error": outcome.rate_error,
            "peak_burst": outcome.peak_burst,
            "fairness_jain": outcome.fairness_jain,
            "drop_rate": outcome.drop_rate,
        },
        "checks": [list(c) for c in outcome.checks],
        "timing": {
            "import_s": import_s,
            "build_s": outcome.build_s,
            "setup_s": driver.setup_cpu,
            "measure_s": outcome.measure_s,
            # Everything the repeat cost except the yardstick itself.
            "job_cpu_s": total_cpu - calibrator.cpu_seconds,
            "cal_cpu_s": calibrator.cpu_seconds,
            "peak_rss_mb": peak_rss,
        },
        "cal_samples": calibrator.samples,
        "warmup": driver.warmup,
        "segments": [
            [s.end, s.cpu_us, s.packets, s.cal_us, s.wall_ns]
            for s in driver.rows
        ],
        "counters": outcome.counters,
        "trace": trace,
    }


def _trace_report(workload, recorder, driver, outcome, measured) -> dict:
    """Per-layer rows of the traced repeat, and ``trace_<workload>.json``."""
    delta = recorder.since(driver.warm_snapshot)
    segment_ns = sum(s.wall_ns for s in measured)
    packets = sum(s.packets for s in measured)
    rows = layer_rows(delta, segment_ns, recorder.outer_ns)
    per_pkt = 1.0 / packets if packets else 0.0

    counters: dict[str, float] = {}
    for layer in LAYERS:
        counters[f"{layer}.self_share"] = rows["share"].get(layer, 0.0)
        counters[f"{layer}.calls_per_pkt"] = (
            rows["calls"].get(layer, 0) * per_pkt
        )
    counters["harness.gen_share"] = rows["share"].get(GEN_LAYER, 0.0)
    counters["harness.unattributed_share"] = rows["share"][
        "harness.unattributed"
    ]
    counters.update(_entry_counters(delta))
    counters.update(_instance_counters(recorder, outcome))
    updates = [
        row for name, row in recorder.since()["names"].items()
        if name.endswith(".apply_update")
    ]
    calls = sum(row["calls"] for row in updates)
    counters["churn.apply_us"] = (
        sum(row["total_ns"] for row in updates) / calls / 1e3 if calls else 0.0
    )

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "post_warmup": {"segment_ns": segment_ns, "packets": packets},
        "overhead_ns": {"inner": recorder.inner_ns, "outer": recorder.outer_ns},
        "layers": rows,
        "names": delta["names"],
        "edges": delta["edges"],
        "raw_spans": recorder.raw_spans(),
    }))
    return {
        "counters": counters,
        "file": os.path.relpath(path),
        "segment_ns": segment_ns,
        "packets": packets,
        "crossings_per_pkt": sum(rows["calls"].values()) * per_pkt,
        "overhead_ns": [recorder.inner_ns, recorder.outer_ns],
        "raw_spans": len(recorder.raw),
    }



def _entry_counters(delta: dict) -> dict[str, float]:
    """How packets entered the limiters: via ``receive_batch`` (fused
    decide-all-then-forward) or one at a time via ``receive``."""
    batch_calls = batch_packets = singles = 0
    for name, row in delta["names"].items():
        cls, _, method = name.partition(".")
        if row["layer"] not in ("core", "limiters"):
            continue
        if method == "receive_batch":
            batch_calls += row["calls"]
            batch_packets += row["items"]
        elif method == "receive":
            nested = delta["edges"].get(f"{cls}.receive_batch>{name}", 0)
            singles += row["calls"] - nested
    total = batch_packets + singles
    return {
        "core.fused_entry_share": batch_packets / total if total else 0.0,
        "core.pkts_per_batch_call":
            batch_packets / batch_calls if batch_calls else 0.0,
    }


def _instance_counters(recorder, outcome) -> dict[str, float]:
    """Public counters of the objects the constructor hooks collected."""
    found = recorder.instances
    senders = found.get("TcpSender", [])
    receivers = found.get("TcpReceiver", [])
    gates = found.get("LossGate", []) + found.get("GilbertElliottGate", [])
    sent = sum(s.packets_sent for s in senders)
    acked = sum(r.data_packets for r in receivers)
    offered = sum(g.forwarded_packets + g.dropped_packets for g in gates)
    arrived = outcome.arrived_packets
    return {
        "cc.sender.acks_per_pkt": acked / arrived if arrived else 0.0,
        "cc.sender.retransmit_share":
            sum(s.retransmits for s in senders) / sent if sent else 0.0,
        "cc.sender.tlp_probes": sum(s.tlp_probes for s in senders),
        "net.impair.lost_share":
            sum(g.dropped_packets for g in gates) / offered if offered else 0.0,
    }
