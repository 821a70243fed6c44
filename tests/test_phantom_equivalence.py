"""Property tests: the phantom service disciplines agree.

``fluid`` (virtual-time engine) is checked tightly against ``fluid-ref``
(the reference piecewise loop): same drop decisions, same drained bytes,
same magic reclamation — they compute the same GPS process, differing
only in float rounding.

A separate test pins that the *modeled* cost accounting (Op counts and
``drain_recomputes``) is identical across fluid and fluid-ref — the cost
model charges the paper's per-packet operations, not the Python work the
optimized engine skips.

``fluid`` also reads BC-PQP's ``r*_i`` off the engine instead of the
``Policy`` tree walk: ``TestEngineShares`` pins that read bit-equal (``==``)
to the ``Policy`` oracle, pins the incrementally kept slopes and the
served list to from-scratch recomputes, and guards that a fluid run
never reaches ``Policy._rates_for``.  ``TestServedList`` pins what the
served list must not change: the order of simultaneous queue-empty
events, a run's independence of the idle classes around it, and the
bound on a starved class's event heap.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.classify.classifier import SlotClassifier
from repro.core.bcpqp import BCPQP
from repro.core.gps import _HEAP_SLACK, VirtualTimeGps
from repro.core.phantom import PhantomQueueSet
from repro.core.pqp import PQP
from repro.net.packet import FlowId, Packet
from repro.net.sink import NullSink
from repro.policy.tree import ClassNode, Leaf, Policy
from repro.sim.simulator import Simulator
from repro.validate.checker import _EPS, _REL
from repro.validate.reference import ReferenceFluid

#: The policy shapes the paper's scenarios exercise (flat fair, weighted,
#: strict priority, two-level hierarchy).
POLICIES = [
    Policy.fair(1),
    Policy.fair(3),
    Policy.weighted([1.0, 2.0, 4.0]),
    Policy.prioritized([0, 1, 0]),
    Policy.nested([[1.0, 1.0], [2.0, 1.0]], group_weights=[2.0, 1.0]),
]

# op kinds: 0 = try_enqueue, 1 = fill_with_magic, 2 = reclaim_magic
_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),       # kind
        st.integers(min_value=0, max_value=9),       # queue (mod n)
        st.floats(min_value=1.0, max_value=6000.0),  # size
        st.floats(min_value=0.0, max_value=0.4),     # dt before op
    ),
    min_size=1,
    max_size=60,
)


def _replay(policy, ops, service, *, rate=4000.0, cap=15_000.0):
    """Run one op sequence; return (decision trace, final observables)."""
    n = policy.num_queues
    q = PhantomQueueSet(policy, rate, [cap] * n, service=service)
    now = 0.0
    decisions = []
    for kind, queue, size, dt in ops:
        queue %= n
        now += dt
        q.advance(now)
        if kind == 0:
            decisions.append(("enq", queue, q.try_enqueue(queue, size)))
        elif kind == 1:
            decisions.append(("fill", queue, q.fill_with_magic(queue)))
        else:
            decisions.append(("reclaim", queue, q.reclaim_magic(queue)))
    q.advance(now + 0.1)
    lengths = [q.length(i) for i in range(n)]
    magic = [q.magic_bytes(i) for i in range(n)]
    return decisions, (q.drained_bytes, q.total_length(), lengths, magic)


# op kinds: 0 = offer (bounded), 1 = add, 2 = remove, 3 = set_rate
_ENGINE_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),       # kind
        st.integers(min_value=0, max_value=9),       # queue (mod n)
        st.floats(min_value=1.0, max_value=6000.0),  # size / new rate
        st.floats(min_value=0.0, max_value=0.4),     # dt before op
    ),
    min_size=1,
    max_size=60,
)


class TestEngineContract:
    """What ``PhantomQueueSet`` relies on from whichever drain engine
    ``service`` selected, checked on each engine alone (no oracle)."""

    @pytest.mark.parametrize(
        "engine_class", [VirtualTimeGps, ReferenceFluid],
        ids=lambda c: c.__name__,
    )
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: repr(p)[:40])
    @settings(deadline=None, max_examples=20)
    @given(ops=_ENGINE_OPS)
    def test_reads_stay_coherent(self, engine_class, policy, ops):
        n = policy.num_queues
        rate = 4000.0
        # Twins driven and read identically; only ``probed`` is peeked.
        probed = engine_class(policy, rate, start_time=0.0)
        plain = engine_class(policy, rate, start_time=0.0)
        now = 0.0
        pieces = 0
        added = 0.0
        drained = 0.0
        for kind, queue, size, dt in ops:
            queue %= n
            now += dt
            pieces += probed.advance(now)
            plain.advance(now)
            if kind == 0:
                before = probed.length(queue)
                settled, share = probed.offer(queue, size, 15_000.0)
                assert plain.offer(queue, size, 15_000.0) == (settled, share)
                assert settled == before
                if share >= 0.0:
                    added += size
                    assert share == probed.rate_of(queue)
                else:
                    assert probed.length(queue) == before
            elif kind == 1:
                probed.add(queue, size)
                plain.add(queue, size)
                added += size
            elif kind == 2:
                probed.remove(queue, size)
                plain.remove(queue, size)
            else:
                rate = size
                probed.set_rate(rate)
                plain.set_rate(rate)
            # A peek is a pure read: it agrees with the settling read
            # that follows and leaves the twin's trajectory bit-equal.
            peeked = [probed.peek_length(i) for i in range(n)]
            lengths = [probed.length(i) for i in range(n)]
            assert peeked == lengths
            assert [plain.length(i) for i in range(n)] == lengths
            mask = probed.active_mask
            for i, length in enumerate(lengths):
                assert bool(mask >> i & 1) == (length > 1e-6)
            tolerance = _EPS * (pieces + 10) + _REL * added
            assert abs(probed.total() - sum(lengths)) <= tolerance
            assert probed.drained_bytes >= drained
            drained = probed.drained_bytes
            if mask:
                shares = sum(probed.rate_of(i) for i in range(n))
                assert abs(shares - rate) <= _REL * rate
        assert plain.total() == probed.total()
        assert plain.drained_bytes == probed.drained_bytes


class TestFluidMatchesReference:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: repr(p)[:40])
    @settings(deadline=None, max_examples=30)
    @given(ops=_OPS)
    def test_decisions_and_bytes_agree(self, policy, ops):
        fast_dec, fast_obs = _replay(policy, ops, "fluid")
        ref_dec, ref_obs = _replay(policy, ops, "fluid-ref")
        # Drop decisions and reclaim/fill byte values, op by op.
        assert len(fast_dec) == len(ref_dec)
        for (fk, fq, fv), (rk, rq, rv) in zip(fast_dec, ref_dec):
            assert (fk, fq) == (rk, rq)
            if fk == "enq":
                assert fv == rv  # same accept/drop verdict
            else:
                assert fv == pytest.approx(rv, rel=1e-9, abs=1e-6)
        f_drained, f_total, f_lengths, f_magic = fast_obs
        r_drained, r_total, r_lengths, r_magic = ref_obs
        assert f_drained == pytest.approx(r_drained, rel=1e-9, abs=1e-6)
        assert f_total == pytest.approx(r_total, rel=1e-9, abs=1e-6)
        for fl, rl in zip(f_lengths, r_lengths):
            assert fl == pytest.approx(rl, rel=1e-9, abs=1e-6)
        for fm, rm in zip(f_magic, r_magic):
            assert fm == pytest.approx(rm, rel=1e-9, abs=1e-6)

    @settings(deadline=None, max_examples=30)
    @given(
        weights=st.lists(st.floats(min_value=0.5, max_value=5),
                         min_size=2, max_size=4),
        fills=st.lists(st.floats(min_value=5_000, max_value=100_000),
                       min_size=2, max_size=4),
    )
    def test_long_run_drain_shares_match(self, weights, fills):
        """Property: over a long backlogged drain with drawn weights, the
        virtual-time engine removes the same bytes per queue as the
        reference loop, including the queues that empty part-way."""
        n = min(len(weights), len(fills))
        weights, fills = weights[:n], fills[:n]
        policy = Policy.weighted(weights)
        results = {}
        for service in ("fluid", "fluid-ref"):
            q = PhantomQueueSet(policy, 5000.0, [1e9] * n, service=service)
            for i, f in enumerate(fills):
                q.try_enqueue(i, f)
            q.advance(5.0)
            results[service] = [fills[i] - q.length(i) for i in range(n)]
        for a, b in zip(results["fluid"], results["fluid-ref"]):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-6)


def _drive_pqp(service):
    """A deterministic arrival pattern with drops, idle gaps and bursts."""
    sim = Simulator()
    pqp = PQP(
        sim,
        rate=15_000.0,
        policy=Policy.weighted([1.0, 2.0]),
        classifier=SlotClassifier(2),
        queue_bytes=6_000.0,
        service=service,
    )
    pqp.connect(NullSink())
    seq = [0]

    def burst(slot, count):
        def fire():
            for _ in range(count):
                pqp.receive(
                    Packet.data(FlowId(0, slot), seq[0], sim.now, size=1500)
                )
                seq[0] += 1
        return fire

    # Bursts that overflow queue 0, interleaved arrivals, then a long idle
    # gap followed by more traffic (exercises the idle fast path).
    for t, slot, count in [
        (0.0, 0, 6), (0.1, 1, 3), (0.25, 0, 2), (0.3, 1, 5),
        (2.0, 0, 4), (2.05, 1, 1), (2.5, 0, 1),
    ]:
        sim.schedule(t, burst(slot, count))
    sim.run()
    return pqp


class TestCostModelPinned:
    def test_op_counts_identical_across_fluid_engines(self):
        # The optimization must not move the modeled cost: identical
        # packets -> identical Op counts and drain_recomputes, whether
        # the drain is the O(N) reference loop or the virtual-time engine.
        fast = _drive_pqp("fluid")
        ref = _drive_pqp("fluid-ref")
        assert fast.cost.snapshot() == ref.cost.snapshot()
        assert fast.queues.drain_recomputes == ref.queues.drain_recomputes
        assert fast.stats.forwarded_packets == ref.stats.forwarded_packets
        assert fast.stats.dropped_packets == ref.stats.dropped_packets

    @pytest.mark.parametrize("service", PhantomQueueSet.SERVICES)
    def test_idle_advance_charges_nothing(self, service):
        q = PhantomQueueSet(
            Policy.fair(2), 1000.0, [10_000.0] * 2, service=service
        )
        q.advance(100.0)
        assert q.drain_recomputes == 0

    def test_full_aggregate_simulation_byte_identical(self):
        # Acceptance pin: figure experiments produce byte-identical
        # outcomes under fluid and fluid-ref for these configurations.
        # Shares come from the same memoized Policy vectors and drop
        # decisions compare against capacities with epsilon slack, so
        # the engines' last-ulp drain differences never flip a decision
        # and whole-simulation trajectories coincide exactly.
        import dataclasses

        from repro.runner import AggregateConfig, simulate_aggregate
        from repro.units import mbps, ms
        from repro.workload.spec import FlowSpec

        def key(o):
            return (
                o.drop_rate, o.cycles_per_packet, o.arrived_packets,
                tuple(o.aggregate_series.times),
                tuple(o.aggregate_series.values),
                tuple(
                    (s, tuple(ts.times), tuple(ts.values))
                    for s, ts in sorted(o.slot_series.items())
                ),
                o.flow_records,
            )

        for scheme in ("pqp", "bcpqp"):
            config = AggregateConfig(
                scheme=scheme,
                specs=(
                    FlowSpec(slot=0, cc="reno", rtt=ms(20)),
                    FlowSpec(slot=1, cc="cubic", rtt=ms(30)),
                ),
                rate=mbps(5), max_rtt=ms(30),
                horizon=2.0, warmup=0.5, seed=3,
            )
            ref = dataclasses.replace(config, phantom_service="fluid-ref")
            assert key(simulate_aggregate(config)) == key(
                simulate_aggregate(ref)
            ), f"{scheme}: fluid and fluid-ref outcomes diverged"

    def test_recompute_counts_match_reference_piecewise(self):
        # Three queues emptying at different instants: the virtual-time
        # engine must report the same piece count the reference loop
        # recomputes (k interior boundaries -> k+1 pieces).
        counts = {}
        for service in ("fluid", "fluid-ref"):
            q = PhantomQueueSet(
                Policy.fair(3), 3000.0, [1e6] * 3, service=service
            )
            q.try_enqueue(0, 500.0)
            q.try_enqueue(1, 1500.0)
            q.try_enqueue(2, 6000.0)
            q.advance(5.0)
            counts[service] = q.drain_recomputes
        assert counts["fluid"] == counts["fluid-ref"]


# ---------------------------------------------------------------------------
# r*_i read off the engine
# ---------------------------------------------------------------------------

# Non-integer weights force the cached child-order sums (an incremental
# add/subtract would round differently from ``Policy._assign``'s sum);
# the integer ones keep the exact incremental ``group.weight`` in play.
_WEIGHT = st.one_of(
    st.sampled_from([1.0, 2.0, 4.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 1.1]),
    st.floats(min_value=0.05, max_value=8.0),
)
_PRIORITY = st.integers(min_value=0, max_value=2)
_LEAF = st.tuples(_WEIGHT, _PRIORITY)


def _class_of(children):
    return st.tuples(
        _WEIGHT, _PRIORITY, st.lists(children, min_size=1, max_size=3)
    )


#: Root children of a 1-3 level tree: leaves, classes of leaves, classes
#: of classes of leaves, freely mixed.
_SHAPES = st.lists(
    st.one_of(_LEAF, _class_of(st.one_of(_LEAF, _class_of(_LEAF)))),
    min_size=1,
    max_size=4,
)

# op kinds: 0 = add, 1 = remove, 2 = advance, 3 = set_rate, 4 = offer
_ENGINE_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=63),        # queue (mod n)
        st.floats(min_value=1.0, max_value=6000.0),    # bytes or rate
        st.floats(min_value=0.0, max_value=0.4),       # dt for advance
    ),
    min_size=1,
    max_size=50,
)


def _tree(shapes):
    """Number the drawn shape's leaves depth-first into a Policy root."""
    counter = itertools.count()

    def build(shape):
        if len(shape) == 2:
            weight, priority = shape
            return Leaf(next(counter), weight=weight, priority=priority)
        weight, priority, children = shape
        return ClassNode(
            tuple(build(c) for c in children), weight=weight, priority=priority
        )

    return ClassNode(tuple(build(s) for s in shapes))


def _groups(engine):
    return [
        node.groups[priority]
        for node in engine._internal
        for priority in sorted(node.groups)
    ]


def _slopes_from_scratch(engine):
    """The global recompute the engine used before slopes went
    incremental (zero every class, re-walk the served spine from the
    root), kept here as the oracle for ``_reslope``."""
    slopes = {id(group): 0.0 for group in _groups(engine)}
    if engine.active_mask:
        stack = [(engine._root, engine._rate)]
        while stack:
            node, rate = stack.pop()
            group = node.winning
            if group is None or group.weight <= 0.0:
                continue
            slope = slopes[id(group)] = rate / group.weight
            for child in group.active_internal:
                stack.append((child, child.weight * slope))
    return [slopes[id(group)] for group in _groups(engine)]


def assert_engine_matches_policy(engine, policy, rate):
    assert [
        engine.rate_of(queue) for queue in range(policy.num_queues)
    ] == policy.fluid_rates(engine.active_mask, rate)
    assert [g.slope for g in _groups(engine)] == _slopes_from_scratch(engine)
    # The served list: every moving class, once, in internal-node order
    # (a moving class is its node's winning one, so at most one per node).
    moving = [g for g in _groups(engine) if g.slope > 0.0]
    assert all(g is g.node.winning for g in moving)
    assert engine._served == moving


class TestEngineShares:
    @settings(deadline=None, max_examples=150)
    @given(shapes=_SHAPES, ops=_ENGINE_OPS)
    def test_rate_of_and_slopes_match_oracles(self, shapes, ops):
        policy = Policy(_tree(shapes))
        n = policy.num_queues
        rate = 4000.0
        engine = VirtualTimeGps(policy, rate, start_time=0.0)
        now = 0.0
        assert_engine_matches_policy(engine, policy, rate)
        for kind, queue, amount, dt in ops:
            if kind == 0:
                engine.add(queue % n, amount)
            elif kind == 1:
                engine.remove(queue % n, amount)
            elif kind == 2:
                now += dt
                engine.advance(now)
            elif kind == 3:
                rate = amount
                engine.set_rate(rate)
            else:
                before = engine.length(queue % n)
                total = engine.total()
                length, share = engine.offer(queue % n, amount, 5000.0)
                assert length == before
                if before + amount > 5000.0:
                    assert share == -1.0 and engine.total() == total
                    assert engine.length(queue % n) == before
                else:
                    assert share == engine.rate_of(queue % n) >= 0.0
                    assert engine.length(queue % n) == before + amount
            assert_engine_matches_policy(engine, policy, rate)

    def test_share_denominator_is_the_child_order_sum(self):
        # 0.3 + 0.2 + 0.1 (activation order) is 0.6; _assign sums in
        # child order, 0.1 + 0.2 + 0.3 = 0.6000000000000001.  And after
        # queue 0 leaves, (0.6 - 0.1) is not 0.2 + 0.3 either.
        policy = Policy.weighted([0.1, 0.2, 0.3])
        engine = VirtualTimeGps(policy, 1000.0, start_time=0.0)
        for queue in (2, 1, 0):
            engine.add(queue, 500.0)
            assert_engine_matches_policy(engine, policy, 1000.0)
        assert engine.rate_of(2) == 1000.0 * 0.3 / (0.1 + 0.2 + 0.3)
        engine.remove(0, 500.0)
        assert_engine_matches_policy(engine, policy, 1000.0)

    @staticmethod
    def _bcpqp_run(service, monkeypatch):
        """A small nested-tree BC-PQP run (single and batched entry,
        window sweeps included); returns ``Policy._rates_for`` entries."""
        calls = [0]
        original = Policy._rates_for

        def counting(self, mask, rate):
            calls[0] += 1
            return original(self, mask, rate)

        monkeypatch.setattr(Policy, "_rates_for", counting)
        sim = Simulator()
        limiter = BCPQP(
            sim,
            rate=150_000.0,
            policy=Policy.nested(
                [[1.0, 2.0], [0.5, 1.5], [1.0]],
                group_weights=[2.0, 1.0, 1.0],
                group_priorities=[0, 0, 1],
            ),
            classifier=SlotClassifier(5),
            queue_bytes=12_000.0,
            service=service,
        )
        limiter.connect(NullSink())

        def burst(k):
            def fire():
                packets = [
                    Packet.data(FlowId(0, (k + j) % 5), k, sim.now, size=1500)
                    for j in range(1 + k % 4)
                ]
                if k % 2:
                    limiter.receive_batch(packets)
                else:
                    for packet in packets:
                        limiter.receive(packet)
            return fire

        for k in range(120):
            sim.schedule(0.004 * k, burst(k))
        sim.run(until=0.6)
        limiter.stop()
        assert limiter.stats.dropped_packets > 0
        assert limiter.stats.forwarded_packets > 0
        return calls[0]

    def test_fluid_run_never_enters_policy_rates_for(self, monkeypatch):
        assert self._bcpqp_run("fluid", monkeypatch) == 0

    def test_guard_counts_the_memo_path(self, monkeypatch):
        # The same run on the reference discipline does go through the
        # tree walk, so a zero above means "not reached", not "not counted".
        assert self._bcpqp_run("fluid-ref", monkeypatch) > 0


def _padded(classes, idle):
    """``classes`` (weight, priority, member weights) followed by
    ``idle`` four-leaf classes at mixed priorities that no test touches."""
    groups = [members for _w, _p, members in classes] + [[1.0] * 4] * idle
    weights = [w for w, _p, _m in classes] + [1.0 + (k % 3) for k in range(idle)]
    priorities = [p for _w, p, _m in classes] + [k % 3 for k in range(idle)]
    return Policy.nested(groups, weights, priorities)


class TestServedList:
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_simultaneous_empties_keep_internal_node_order(self, order):
        # Two symmetric classes hold the same bytes, so their queues
        # empty at the same float instant.  The class that comes first in
        # the tree goes first, whichever filled first: that is the order
        # the scan over every internal node produced.
        policy = Policy.nested([[1.0], [1.0]])
        engine = VirtualTimeGps(policy, 1000.0, start_time=0.0)
        for queue in order:
            engine.add(queue, 250.0)
        emptied = []
        deactivate = engine._deactivate

        def recording(leaf):
            emptied.append(leaf.queue)
            deactivate(leaf)

        engine._deactivate = recording
        assert engine.advance(0.4) == 1 and emptied == []
        assert engine.advance(1.0) == 2  # both boundaries, no third piece
        assert emptied == [0, 1]
        assert engine.drained_bytes == 500.0
        assert engine.active_mask == 0 and engine._served == []

    @pytest.mark.parametrize("service", PhantomQueueSet.SERVICES)
    def test_idle_sibling_classes_change_nothing(self, service):
        # Metamorphic: classes that never hold a byte carry no weight, so
        # a run must not depend on how many of them the tree has.
        classes = [(2.0, 0, [1.0, 0.5, 3.0]), (1.0, 1, [1.0, 1.0]),
                   (1.5, 0, [0.25, 1.0])]
        capacity = 9000.0

        def run(idle):
            policy = _padded(classes, idle)
            q = PhantomQueueSet(
                policy, 50_000.0, [capacity] * policy.num_queues,
                service=service,
            )
            trace = []
            now = 0.0
            for step in range(600):
                now += (1 + step % 7) * 0.004
                queue = (step * 5 + step // 11) % 7
                q.advance(now)
                if step % 37 == 36:
                    trace.append(q.fill_with_magic(queue))
                elif step % 53 == 52:
                    trace.append(q.reclaim_magic(queue))
                else:
                    trace.append(q.offer(queue, 300.0 + 100.0 * (step % 9)))
                trace.append([q.peek_length(i) for i in range(7)])
            return trace, q.drained_bytes, q.drain_recomputes, q.total_length()

        base = run(0)
        assert any(rate < 0.0 for rate in base[0][::2])   # some rejected
        assert any(rate > 0.0 for rate in base[0][::2])   # some served
        for idle in (64, 1024):
            assert run(idle) == base

    def test_starved_class_heap_stays_bounded(self):
        # Queue 2's class is frozen behind a busy higher priority, so no
        # advance ever pops its heap; every fill/reclaim cycle used to
        # leave one stale entry behind.
        policy = Policy.nested(
            [[1.0], [1.0, 2.0]], group_priorities=[0, 1]
        )
        q = PhantomQueueSet(policy, 1000.0, [30_000.0, 6000.0, 6000.0])
        q.offer(0, 20_000.0)   # the higher priority is busy until t = 20
        q.offer(1, 1500.0)     # keeps the starved class occupied
        heap = q._engine._leaves[2].group.heap
        now = 0.0
        for cycle in range(10_000):
            now += 0.001
            q.advance(now)
            if cycle < 3:
                assert q.offer(2, 700.0) == 0.0   # starved: admitted, r* = 0
            assert q.fill_with_magic(2) > 0.0
            assert q.reclaim_magic(2) > 0.0
            assert len(heap) <= _HEAP_SLACK * 3 + 1
        assert q.length(1) == 1500.0              # frozen: never drained
        # Thawed at t = 20, the class still empties its queues in finish
        # order: queue 2 (2100 bytes at 2/3 of the rate) at 23.15, queue 1
        # (1500 bytes at 1/3, then all of it) at 23.6.
        q.advance(23.0)
        assert q.active_mask() == 0b110
        q.advance(23.3)
        assert q.active_mask() == 0b010
        q.advance(24.0)
        assert q.active_mask() == 0 and q.total_length() == 0.0
