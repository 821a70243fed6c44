"""Pinned full-simulation outcomes across the event-engine overhaul.

The soft-timer / coalesced-delivery / pooled-handle engine must be
*byte-identical* to the one-event-per-packet engine it replaced: same
(time, seq) firing order, hence the same packets dropped, the same RTT
samples, the same figures.  These cells were measured under both engines
(float-for-float equal) and are pinned **exactly** — no tolerances.  A
change to event ordering anywhere (timer wake seqs, link/pipe delivery
interleaving, pool reuse) shows up here as a hard failure.

The per-packet reference engine that used to run beside the batched one
(``batch=1`` selected separate sender / receiver / pipe / limiter code)
is gone: one packet path runs at every ``batch_limit``.  Its role as an
oracle is held by ``LEGACY_DIGESTS`` — sha256 digests of full outcomes
captured from that engine at the last commit that carried it — which the
single engine must reproduce at every delivery granularity.

The cells deliberately stress the order-sensitive paths: mixed CC
algorithms with different RTTs (RTO/TLP timer ties — PTO clamps produce
*constant* deadlines, so cross-flow same-instant ties are common, not
measure-zero), loss-heavy policers (retransmission scheduling), and the
shaper (its own serialization events interleaving with pipe delivery).
"""

import hashlib
from random import Random

import pytest

from repro.churn import draw_plan
from repro.net.impair import ImpairmentSpec
from repro.runner import AggregateConfig, simulate_aggregate
from repro.units import mbps, ms
from repro.workload.spec import FlowSpec, OnOffSpec

# scheme -> (cc mix, pinned (mean_xr, peak_xr, drop_rate, jain)) at
# rate=5 Mbps, max_rtt=80 ms, horizon=6 s, warmup=1 s, RTTs 20+15i ms.
PINNED = {
    ("policer", ("reno", "cubic", "bbr", "reno")): (
        1.0003200000000003, 1.0464, 0.37987730061349695, 0.41787186941706134,
    ),
    ("bcpqp", ("reno", "cubic", "bbr", "reno")): (
        0.99312, 1.1712, 0.31256830601092894, 0.9997862986363284,
    ),
    ("pqp", ("cubic", "bbr")): (
        0.99312, 1.104, 0.46503496503496505, 0.9999885535681331,
    ),
    ("shaper", ("reno", "cubic")): (
        0.9998400000000001, 1.008, 0.0436418359668924, 0.9999997695263074,
    ),
    ("fairpolicer", ("bbr", "reno")): (
        0.99696, 1.1328, 0.4185340802987862, 0.9999942048524393,
    ),
}


def _specs(ccs):
    return [
        FlowSpec(slot=i, cc=cc, rtt=ms(20 + 15 * i)) for i, cc in enumerate(ccs)
    ]


def _pinned_cell(scheme, ccs, batch=None):
    return simulate_aggregate(AggregateConfig(
        scheme=scheme, specs=tuple(_specs(ccs)), rate=mbps(5),
        max_rtt=ms(80), horizon=6.0, warmup=1.0, batch=batch,
    ))


@pytest.mark.parametrize(
    "scheme,ccs", sorted(PINNED), ids=lambda v: v if isinstance(v, str) else "+".join(v)
)
def test_outcomes_identical_to_pre_overhaul_engine(scheme, ccs):
    result = _pinned_cell(scheme, ccs)
    expected = PINNED[(scheme, ccs)]
    got = (
        result.mean_normalized_throughput,
        result.peak_normalized_throughput,
        result.drop_rate,
        result.fairness,
    )
    # Exact equality is the contract: the engines are the same simulation.
    assert got == expected


@pytest.mark.batch
@pytest.mark.parametrize(
    "scheme,ccs", sorted(PINNED), ids=lambda v: v if isinstance(v, str) else "+".join(v)
)
def test_batched_engine_matches_unbatched(scheme, ccs):
    """Granularity invariance of the one engine: every outcome metric
    must be bit-for-bit equal between singleton batches (``batch=1``)
    and unbounded ones, across all five schemes."""
    unbatched, batched = (
        _pinned_cell(scheme, ccs, batch=batch) for batch in (1, None)
    )
    assert (
        unbatched.mean_normalized_throughput,
        unbatched.peak_normalized_throughput,
        unbatched.drop_rate,
        unbatched.fairness,
    ) == (
        batched.mean_normalized_throughput,
        batched.peak_normalized_throughput,
        batched.drop_rate,
        batched.fairness,
    )
    # And both match the pre-overhaul pinned figures.
    assert (
        batched.mean_normalized_throughput,
        batched.peak_normalized_throughput,
        batched.drop_rate,
        batched.fairness,
    ) == PINNED[(scheme, ccs)]


# ---------------------------------------------------------------------------
# Literal pins captured from the deleted per-packet engine
# ---------------------------------------------------------------------------

#: cell -> sha256 of the full outcome (see :func:`_outcome_digest`),
#: computed with ``batch=1`` at commit 47cd7cf, the last one whose
#: ``batch=1`` ran the legacy per-packet sender/receiver/pipe/limiter
#: bodies.  The five ``PINNED`` cells plus one impaired churn cell.
LEGACY_DIGESTS = {
    "policer": "c3ed3cb3154d596f6c4045986cf5e0128e8799bb6bf3b4416eca49fff263064a",
    "bcpqp": "d5e148472ec9e25ba616e9ff60d3ea9e24b2fa1555bea700ff7cdd385ee36cc8",
    "pqp": "09f56831481b8712f759d1127f1d9061303458f036d375f64e9712368fd0973d",
    "shaper": "de51e02e07b7cf98accd25c8e7a169431b3c18341595a933b9d0a32e8c1a6db2",
    "fairpolicer": "174fd8b91068a56d4a800d641713d00ddc91b70a0df537c81e301770fa656e49",
    "churn": "a1c59182f5e76de2719fa2dfeec7cbf66c2a4be755f1f46ddbee130d54263655",
}


def _outcome_digest(outcome) -> str:
    """sha256 over everything order-sensitive an outcome carries (float
    ``repr`` round-trips exactly, so equal digests mean equal bits)."""
    payload = (
        outcome.aggregate_series.times,
        outcome.aggregate_series.values,
        sorted(
            (slot, s.times, s.values) for slot, s in outcome.slot_series.items()
        ),
        outcome.drop_rate,
        outcome.arrived_packets,
        outcome.magic_fills,
        outcome.magic_reclaims,
        [
            (r.slot, r.incarnation, r.start, r.end, r.packets)
            for r in outcome.flow_records
        ],
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _legacy_cell(cell: str, batch: int | None) -> AggregateConfig:
    if cell == "churn":
        # Loss + jitter + reordering + ACK loss under a drawn policy
        # churn plan, with an on-off slot so flow records are non-empty:
        # the traffic that leaves the common path (SACK/RACK recovery,
        # RTO/TLP, JitterPipe, apply_update).
        return AggregateConfig(
            scheme="bcpqp",
            specs=(
                FlowSpec(slot=0, cc="reno", rtt=ms(20)),
                FlowSpec(slot=1, cc="cubic", rtt=ms(50)),
                FlowSpec(slot=2, cc="bbr", rtt=ms(35),
                         on_off=OnOffSpec(60, 0.05)),
            ),
            rate=mbps(4), max_rtt=ms(100), horizon=4.0, warmup=0.5, seed=3,
            batch=batch,
            impair=ImpairmentSpec(loss=0.02, jitter=0.003, reorder=0.05,
                                  reorder_extra=0.002, ack_loss=0.01),
            churn=draw_plan(Random(7), num_queues=3, rate=mbps(4),
                            horizon=4.0, actions=8),
        )
    ccs = next(c for s, c in PINNED if s == cell)
    return AggregateConfig(
        scheme=cell,
        specs=_specs(ccs),
        rate=mbps(5), max_rtt=ms(80), horizon=6.0, warmup=1.0, batch=batch,
    )


@pytest.mark.batch
@pytest.mark.parametrize("batch", (1, 3, None), ids=lambda b: f"batch={b}")
@pytest.mark.parametrize("cell", sorted(LEGACY_DIGESTS))
def test_outcomes_match_legacy_engine_digests(cell, batch):
    outcome = simulate_aggregate(_legacy_cell(cell, batch))
    if cell == "churn":
        # The pin must cover recovery, burst control and churn commits.
        assert outcome.flow_records and outcome.magic_fills
        assert outcome.updates_applied == 8
    assert _outcome_digest(outcome) == LEGACY_DIGESTS[cell]


#: sha256 of the outcome of :func:`_impaired_ack_cell`, recorded at the
#: commit before ACKs became records (when the receiver still built one
#: ``Packet`` per ACK and the gates acted on it): no ``LEGACY_DIGESTS``
#: cell corrupts ACKs or duplicates data.
IMPAIRED_ACK_DIGEST = (
    "2b7fde6fc5681ee0de307b8c1e527b6203260753ca02efd6de9417a176cb7c18"
)


def _impaired_ack_cell() -> AggregateConfig:
    return AggregateConfig(
        scheme="bcpqp",
        specs=(
            FlowSpec(slot=0, cc="reno", rtt=ms(20)),
            FlowSpec(slot=1, cc="cubic", rtt=ms(50)),
            FlowSpec(slot=2, cc="bbr", rtt=ms(35),
                     on_off=OnOffSpec(60, 0.05)),
        ),
        rate=mbps(4), max_rtt=ms(100), horizon=4.0, warmup=0.5, seed=11,
        impair=ImpairmentSpec(loss=0.02, ack_loss=0.02, corrupt=0.01,
                              duplicate=0.02),
    )


def test_impaired_ack_path_outcome_is_pinned(monkeypatch):
    from repro import wiring
    from repro.net import impair

    senders, ack_paths, duplicators = [], [], []

    class Sender(wiring.TcpSender):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            senders.append(self)

    class Duplicator(impair.Duplicator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            duplicators.append(self)

    def build_ack_path(*args, **kwargs):
        ack_paths.append(impair.build_ack_path(*args, **kwargs))
        return ack_paths[-1]

    monkeypatch.setattr(wiring, "TcpSender", Sender)
    monkeypatch.setattr(wiring, "build_ack_path", build_ack_path)
    monkeypatch.setattr(impair, "Duplicator", Duplicator)
    outcome = simulate_aggregate(_impaired_ack_cell())
    # The pin covers every ACK-path gate and data duplication.
    assert sum(gate.dropped_packets for gate in ack_paths) > 0
    assert sum(sender.corrupt_acks_dropped for sender in senders) > 0
    assert sum(dup.duplicated_packets for dup in duplicators) > 0
    assert _outcome_digest(outcome) == IMPAIRED_ACK_DIGEST


def test_new_lane_before_anything_is_scheduled_changes_nothing(monkeypatch):
    # An empty current lane is reused: a builder may open a lane per
    # unit unconditionally and a one-unit run stays the one-heap run.
    from repro.runner import aggregate
    from repro.sim.simulator import Simulator

    sims = []

    def laned(*args, **kwargs):
        sim = Simulator(*args, **kwargs)
        sim.new_lane()
        sims.append(sim)
        return sim

    monkeypatch.setattr(aggregate, "Simulator", laned)
    outcome = simulate_aggregate(_legacy_cell("churn", None))
    assert _outcome_digest(outcome) == LEGACY_DIGESTS["churn"]
    assert [len(sim.lanes) for sim in sims] == [1]
