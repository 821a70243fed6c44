"""Tests for the runtime invariant checker (repro.validate)."""

from collections import Counter

import pytest

from repro.cc.endpoint import FlowDemux, TcpSender
from repro.core.bcpqp import BCPQP
from repro.core.pqp import PQP
from repro.classify.classifier import SlotClassifier
from repro.limiters.base import RateLimiter
from repro.limiters.token_bucket import TokenBucketPolicer
from repro.metrics.recorder import Recorder
from repro.net.packet import FlowId, Packet
from repro.net.sink import NullSink
from repro.net.trace import Trace
from repro.policy.tree import Policy
from repro.runner.aggregate import AggregateConfig, build_scenario
from repro.sim.simulator import Simulator
from repro.units import MSS, mbps, ms
from repro.validate import InvariantChecker, InvariantViolation
from repro.wiring import wire_flow
from repro.workload.spec import FlowSpec


def data_packet(slot=0, size=MSS, aggregate=0):
    return Packet.data(FlowId(aggregate, slot), seq=0, sent_at=0.0,
                       size=size)


def _checked_sim(**kwargs):
    checker = InvariantChecker(**kwargs)
    return checker, Simulator(validate=checker)


def _pqp(sim, *, cls=PQP, num_queues=2, rate=mbps(5), queue_bytes=40 * MSS,
         **kwargs):
    return cls(
        sim,
        rate=rate,
        policy=Policy.fair(num_queues),
        classifier=SlotClassifier(num_queues),
        queue_bytes=queue_bytes,
        **kwargs,
    )


class TestAttachment:
    def test_disabled_simulator_has_no_validator(self):
        assert Simulator().validator is None

    def test_components_self_register(self):
        checker, sim = _checked_sim()
        limiter = _pqp(sim)
        limiter.connect(NullSink())
        limiter.receive(data_packet())
        assert checker.checks > 0
        assert checker.violations == []

    def test_checks_cover_every_receive(self):
        checker, sim = _checked_sim()
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        before = checker.checks
        for _ in range(5):
            limiter.receive(data_packet())
        assert checker.checks > before


class TestViolationDetection:
    def test_token_bucket_overflow_flagged(self):
        checker, sim = _checked_sim()
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        limiter._tokens = 20 * MSS  # corrupt: above bucket capacity
        with pytest.raises(InvariantViolation):
            limiter.receive(data_packet())
        assert checker.violations

    def test_negative_tokens_flagged(self):
        checker, sim = _checked_sim()
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        limiter.receive(data_packet())
        limiter._tokens = -1.0
        with pytest.raises(InvariantViolation):
            limiter.receive(data_packet())

    def test_phantom_overfill_flagged(self):
        checker, sim = _checked_sim()
        limiter = _pqp(sim)
        limiter.connect(NullSink())
        limiter.receive(data_packet())
        # Corrupt the phantom counter past its capacity: the engine's
        # own add() has no bound, unlike the set's offer().
        limiter.queues._engine.add(0, limiter.queues.capacity(0) * 2)
        with pytest.raises(InvariantViolation):
            limiter.receive(data_packet())

    def test_forwarding_mismatch_flagged(self):
        checker, sim = _checked_sim()
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        limiter.receive(data_packet())
        limiter.stats.forwarded_packets += 1  # corrupt conservation
        with pytest.raises(InvariantViolation):
            limiter.receive(data_packet())

    def test_limiter_called_from_a_foreign_lane_flagged(self):
        # new_lane() promises independence; a packet handed across the
        # boundary breaks it, and the violation names both lanes.
        checker, sim = _checked_sim()
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        sim.schedule(0.1, limiter.receive, data_packet())
        sim.new_lane()
        sim.schedule(0.2, limiter.receive, data_packet())
        with pytest.raises(InvariantViolation,
                           match="from event lane 1 but built in lane 0"):
            sim.run()
        assert limiter.stats.arrived_packets == 1

    def test_sender_acked_from_a_foreign_lane_flagged(self):
        checker, sim = _checked_sim()
        sender = wire_flow(sim, FlowId(0, 0), cc="reno", rtt=ms(20),
                           ingress=NullSink(), demux=FlowDemux(),
                           packets=None, start=0.0)
        sim.new_lane()
        ack = Packet.ack(FlowId(0, 0), ack_next=1, sent_at=0.0, echo_ts=0.0,
                         echo_retransmit=False)
        sim.schedule(0.05, sender.receive, ack)
        with pytest.raises(InvariantViolation,
                           match="from event lane 1 but built in lane 0"):
            sim.run(until=1.0)

    def test_peak_heap_probe_reads_the_deepest_lane(self):
        # Two lanes of three: pending (6) exceeds any one heap's depth,
        # and the gauge that matters is per heap.
        checker, sim = _checked_sim()
        for _ in range(2):
            sim.new_lane()
            for k in range(3):
                sim.schedule(1.0 + k, lambda: None)
        assert (sim.pending, sim.peak_heap_size) == (6, 3)
        checker.finalize()
        sim._peak_heap = 2  # corrupt: below the deepest lane
        with pytest.raises(InvariantViolation, match="deepest"):
            checker.finalize()

    def test_collect_mode_accumulates(self):
        checker, sim = _checked_sim(fail_fast=False)
        limiter = TokenBucketPolicer(sim, rate=mbps(5), bucket_bytes=10 * MSS)
        limiter.connect(NullSink())
        limiter._tokens = 99 * MSS
        limiter.receive(data_packet())  # no raise
        assert len(checker.violations) >= 1

    def test_finalize_flags_empty_trace(self):
        recorder = Recorder(Simulator(), NullSink(), slot_counts=[1],
                            window=0.25, warmup=0.0, horizon=1.0,
                            name="receiver")
        checker = InvariantChecker(fail_fast=False)
        checker.finalize(recorders=(recorder,))
        assert any("'receiver': nothing recorded" in v
                   for v in checker.violations)


class TestWholeRunValidation:
    @pytest.mark.parametrize("scheme", ["pqp", "bcpqp", "shaper",
                                        "policer", "fairpolicer"])
    def test_clean_run_has_no_violations(self, scheme):
        checker, sim = _checked_sim()
        config = AggregateConfig(
            scheme=scheme,
            specs=(FlowSpec(slot=0, cc="reno", rtt=ms(20)),
                   FlowSpec(slot=1, cc="cubic", rtt=ms(60))),
            rate=mbps(5), max_rtt=ms(100), horizon=1.0, warmup=0.25, seed=3,
        )
        limiter, scenario = build_scenario(config, sim)
        scenario.run()
        checker.finalize(recorders=(scenario.recorder,))
        assert checker.violations == []
        assert checker.checks > 100

    def test_bcpqp_sweep_is_checked(self):
        # The wrapped _on_window_sweep must actually fire: a 100 ms period
        # over a 1 s horizon sweeps ~10 times even with no packets at all.
        checker, sim = _checked_sim()
        limiter = _pqp(sim, cls=BCPQP)
        limiter.connect(NullSink())
        sim.run(until=1.0)
        limiter.stop()
        assert checker.checks > 0


class TestZeroPerturbation:
    """A validated run must be byte-identical to an unvalidated one —
    the property that makes fluid vs fluid-ref strict diffing (and the
    pinned cost model) safe under validation."""

    @pytest.mark.parametrize("scheme,service", [
        ("pqp", "fluid"), ("pqp", "fluid-ref"),
        ("bcpqp", "fluid"), ("bcpqp", "fluid-ref"),
    ])
    def test_validated_run_byte_identical(self, scheme, service):
        def run(validate):
            checker = InvariantChecker() if validate else None
            sim = Simulator(validate=checker)
            config = AggregateConfig(
                scheme=scheme,
                specs=(FlowSpec(slot=0, cc="reno", rtt=ms(20)),
                       FlowSpec(slot=1, cc="bbr", rtt=ms(50))),
                rate=mbps(5), max_rtt=ms(100), horizon=1.0, warmup=0.25,
                seed=7, phantom_service=service,
            )
            limiter, scenario = build_scenario(config, sim)
            trace = Trace(sim, scenario.recorder)
            limiter.connect(trace)
            scenario.run()
            stats = limiter.stats
            return (
                stats.arrived_packets, stats.forwarded_packets,
                stats.dropped_packets, stats.forwarded_bytes,
                stats.dropped_bytes, dict(stats.per_queue_drops),
                limiter.queues.drained_bytes,
                limiter.cost.snapshot(),
                tuple(trace.times),
                sim.events_processed,
            )

        assert run(False) == run(True)

    @pytest.mark.parametrize("service", ["fluid", "fluid-ref"])
    def test_nested_policy_bursts_byte_identical(self, service):
        # Same-instant bursts into a three-class, two-priority tree: the
        # production loop drains once per batch and admits through
        # ``offer``; the checker feeds it singletons (a zero-width
        # advance each) through its ledger wrapper on the same method.
        policy = Policy.nested(
            [[1.0, 2.0, 0.5], [1.0, 1.0], [3.0, 1.0, 1.0]],
            group_weights=[2.0, 1.0, 1.5], group_priorities=[0, 1, 0],
        )
        picks = [(7 * k + 3 * (k // 5)) % 8 for k in range(16 * 60)]

        def run(validate):
            checker = InvariantChecker() if validate else None
            sim = Simulator(validate=checker)
            limiter = BCPQP(
                sim, rate=mbps(40), policy=policy,
                classifier=SlotClassifier(8), queue_bytes=12.0 * MSS,
                period=ms(20), service=service,
            )
            sink = NullSink()
            limiter.connect(sink)
            for tick in range(60):
                burst = [data_packet(slot=q, size=400 + 100 * (q % 3))
                         for q in picks[16 * tick:16 * tick + 16]]
                sim.call_at(tick * 1.1e-3, limiter.receive_batch, burst)
            sim.run(until=0.1)
            limiter.stop()
            if checker is not None:
                checker.finalize()
                assert checker.violations == [] and checker.checks > 0
            stats = limiter.stats
            queues = limiter.queues
            return (
                stats.forwarded_packets, stats.forwarded_bytes,
                stats.dropped_bytes, dict(stats.per_queue_drops),
                limiter.magic_fills, limiter.magic_reclaims,
                queues.drained_bytes, queues.drain_recomputes,
                [queues.peek_length(q) for q in range(8)],
                [queues.raw_magic(q) for q in range(8)],
                limiter.cost.snapshot(), sink.bytes,
            )

        plain, checked = run(False), run(True)
        assert plain == checked
        assert plain[2] > 0 and plain[4] > 0  # it dropped and magic-filled


class TestValidationAuditsProduction:
    """``validate=`` must observe the code an unvalidated run executes,
    not a per-packet twin of it."""

    def test_validated_run_enters_the_production_bodies(self, monkeypatch):
        counts: Counter = Counter()

        def count_calls(cls, name):
            original = getattr(cls, name)

            def counted(self, *args, **kwargs):
                counts[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        count_calls(BCPQP, "receive_batch")
        count_calls(TcpSender, "_process_ack")
        count_calls(TcpSender, "_try_send")

        def run(validate):
            counts.clear()
            checker = InvariantChecker() if validate else None
            sim = Simulator(validate=checker)
            config = AggregateConfig(
                scheme="bcpqp",
                specs=tuple(FlowSpec(slot=i, cc="reno", rtt=ms(20 + 10 * i))
                            for i in range(4)),
                rate=mbps(10), max_rtt=ms(100), horizon=1.0, warmup=0.25,
                seed=5,
            )
            limiter, scenario = build_scenario(config, sim)
            trace = Trace(sim, scenario.recorder)
            limiter.connect(trace)
            scenario.run()
            if checker is not None:
                checker.finalize(recorders=(scenario.recorder,))
                assert checker.violations == []
            stats = limiter.stats
            outcome = (
                stats.arrived_packets, stats.forwarded_bytes,
                stats.dropped_bytes, dict(stats.per_queue_drops),
                limiter.magic_fills, limiter.magic_reclaims,
                limiter.queues.drained_bytes, limiter.cost.snapshot(),
                tuple(trace.times), sim.events_processed,
            )
            return outcome, dict(counts)

        plain, plain_calls = run(False)
        checked, checked_calls = run(True)
        assert plain == checked  # byte-for-byte, as TestZeroPerturbation
        arrived = plain[0]
        assert arrived > 500 and plain[3]  # saturated: the limiter drops
        # The decision loop: at least one entry per arrived packet when
        # validated (exactly one — the checker feeds singletons).
        assert checked_calls["receive_batch"] == arrived
        assert 0 < plain_calls["receive_batch"] <= arrived
        # One _process_ack per processed ACK in both runs, each clocking
        # out a _try_send (plus the start / pacing / RTO entries).
        assert checked_calls["_process_ack"] == plain_calls["_process_ack"] > 0
        assert checked_calls["_try_send"] == plain_calls["_try_send"]
        assert checked_calls["_try_send"] >= checked_calls["_process_ack"]

    def test_limiters_have_no_second_per_packet_decision(self):
        # ``receive`` is the base class's batch-of-one; the policers keep
        # their decision in receive_batch alone.
        for cls in (PQP, BCPQP, TokenBucketPolicer):
            assert cls.receive is RateLimiter.receive
            assert cls._on_packet is RateLimiter._on_packet
            assert not hasattr(cls, "_arrived")
            assert not hasattr(cls, "_accepted")
