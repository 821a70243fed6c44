"""In-simulator invariant checking.

The checker is a passive observer: components self-register at
construction (``Simulator(validate=checker)`` makes ``sim.validator``
non-None, and each limiter / TCP sender / middlebox ``__init__`` calls
the matching ``attach_*``).  Attachment wraps *instance-level* bound
methods — a limiter's decision ``_on_packet`` (which ``receive`` and
``receive_batch`` call once per arrival), a sender's ``receive_ack``, a
middlebox's ``receive``, BC-PQP's ``_on_window_sweep`` and the phantom
set's enqueue/fill/reclaim.  Every wrapper calls the method it shadows and
probes after the call: the decision, ``_process_ack`` and ``_try_send`` a
validated run executes are the ones an unvalidated run executes.  So:

* with validation off nothing is wrapped and the hot path is untouched —
  the disabled cost is exactly one ``getattr`` per component construction;
* with validation on, every probe goes through pure-read accessors
  (:meth:`PhantomQueueSet.peek_length`, ``raw_magic``,
  ``gps_virtual_times``) that never settle lazy drain state, so a
  validated run stays **bit-identical** to an unvalidated one.

Enforced invariants (paper anchors in parentheses):

* byte/packet conservation per limiter: arrived = forwarded + dropped
  (+ backlog and the in-service packet, for the shaper), and the
  shaper's O(1) running state (total backlog, head sizes, the occupancy
  reported to its scheduler) equals a rescan of its queues;
* ``per_queue_drops`` sums to the total drop count;
* token buckets: ``0 <= tokens <= B`` (§2.2), FairPolicer per-flow
  buckets and spare pool within ``[0, B]``;
* phantom occupancy: ``0 <= length_i <= capacity_i`` and magic
  watermarks never negative (§3.1, §3.5 sizing);
* phantom byte ledger: bytes in - reclaims - drained - evicted = total
  occupancy, within a crumb tolerance scaled by drain-piece count (§3.1
  lazy batched dequeues; the evicted leg accounts bytes removed by live
  reconfigurations — see ``repro.churn``);
* epoch boundaries (live policy churn): the mutation epoch and
  ``evicted_bytes`` are monotone, occupancy respects the *new*
  capacities immediately after a commit (the seam check runs inside the
  wrapped ``reconfigure``), GPS virtual-time baselines are re-seeded
  across engine rebuilds, no phantom event ever targets a queue outside
  the current queue count (removed-queue events never fire), and
  BC-PQP's window arrays are re-sized and freshly started at the seam;
* ``drained_bytes`` / ``drain_recomputes`` monotone non-decreasing and
  GPS virtual times monotone per (node, priority) group (§3.2 fluid
  idealization);
* engine-read shares (``service="fluid"``): the touched queue's ``r*_i``
  off the GPS engine equals the independent ``Policy`` oracle bit for
  bit, and the occupied queues' rates sum to the enforced rate (§4);
* BC-PQP window accounting: accepted <= arrived per window, and the
  window a packet just arrived into is younger than the period (§4
  thresholds / tumbling windows);
* TCP senders: ``snd_una <= snd_nxt``, non-negative scoreboard pipe,
  cwnd and ssthresh >= 1 MSS, RTO clamped to ``[_MIN_RTO, _MAX_RTO]``;
* TCP scoreboard (what the O(new information) recovery steps lean on):
  ``_sacked``, ``_lost_set`` and ``_retx_out`` pairwise disjoint and
  inside ``[snd_una, snd_nxt)``, ``_fack <= snd_nxt``, ``_retx_out``
  times non-decreasing in iteration order, every ``_lost_set`` member
  on ``_lost_heap``, and the SACK runs sorted, non-adjacent, all ending
  above ``snd_una`` and covering exactly ``_sacked`` from ``snd_una`` up;
* middlebox dispatch conservation (assumes limiters receive traffic
  only through their middlebox);
* modeled op counts (§6.2 cost model) never negative;
* event-engine accounting: the heap high-water mark never below the
  deepest lane's current length (``Simulator(validate=checker)``
  self-registers the simulator);
* lane independence (``Simulator.new_lane``'s contract): a limiter's
  decision and a sender's ACK entry run only in the lane it was built in.
"""

from __future__ import annotations

from typing import Any

from repro.cc import endpoint as _endpoint
from repro.core.bcpqp import BCPQP
from repro.core.pqp import PQP
from repro.limiters.fair_policer import FairPolicer
from repro.limiters.shaper import Shaper
from repro.limiters.token_bucket import TokenBucketPolicer

#: Absolute float slack for single-value comparisons (bytes / tokens).
_EPS = 1e-6
#: Relative slack factor for capacity-scaled bounds.
_REL = 1e-9


class InvariantViolation(AssertionError):
    """An enforced simulation invariant did not hold."""


class InvariantChecker:
    """Collects (or raises on) invariant violations during a run.

    Parameters
    ----------
    fail_fast:
        When True (default) the first violation raises
        :class:`InvariantViolation` at the exact event that broke the
        invariant — the most useful behaviour under a debugger.  When
        False, violations accumulate in :attr:`violations` and the run
        continues (the fuzzer's mode: one scenario can report several).
    """

    def __init__(self, *, fail_fast: bool = True) -> None:
        self.fail_fast = fail_fast
        #: Human-readable description of every violation seen.
        self.violations: list[str] = []
        #: Number of individual invariant evaluations performed.
        self.checks = 0
        self._limiters: list[tuple[Any, dict[str, Any]]] = []
        self._senders: list[Any] = []
        self._middleboxes: list[tuple[Any, dict[str, Any]]] = []
        self._simulators: list[Any] = []

    # ------------------------------------------------------------------
    # Attachment (called from component __init__)
    # ------------------------------------------------------------------

    def attach_limiter(self, limiter: Any) -> None:
        """Wrap ``limiter`` for per-packet checking.

        Called from ``RateLimiter.__init__`` — subclass attributes do not
        exist yet, so everything type-specific is deferred to the first
        wrapped call.  The BC-PQP sweep must be wrapped *now*, before the
        subclass ``__init__`` schedules ``self._on_window_sweep`` (the
        timer captures the instance attribute, i.e. our wrapper).
        """
        state: dict[str, Any] = {"ready": False}
        self._limiters.append((limiter, state))
        home = limiter._sim.lane

        original_on_packet = limiter._on_packet

        def wrapped_on_packet(packet: Any) -> None:
            # The limiter's one decision (``receive`` and ``receive_batch``
            # account each arrival and call it through this attribute), so
            # the per-packet invariants fire between decisions of exactly
            # the code an unvalidated run executes.
            self._check_lane(limiter._sim, home, limiter.name)
            if not state["ready"]:
                self._init_limiter(limiter, state)
            original_on_packet(packet)
            self._check_limiter(limiter, state, packet)

        limiter._on_packet = wrapped_on_packet

        original_apply = limiter.apply_update

        def wrapped_apply(update: Any) -> None:
            # Epoch-seam probe: run the full limiter check at the exact
            # commit instant — after state migration, before any further
            # event — so "occupancy <= the new capacities immediately
            # after a resize" is asserted at the seam itself, not at the
            # next packet.  A rejected update raises before the probe;
            # the staging contract guarantees it mutated nothing, and the
            # next regular check re-verifies that.
            if not state["ready"]:
                self._init_limiter(limiter, state)
            original_apply(update)
            self._check_limiter(limiter, state, None)

        limiter.apply_update = wrapped_apply

        sweep = getattr(type(limiter), "_on_window_sweep", None)
        if sweep is not None:
            original_sweep = sweep.__get__(limiter)

            def wrapped_sweep() -> None:
                if not state["ready"]:
                    self._init_limiter(limiter, state)
                original_sweep()
                self._check_limiter(limiter, state, None)
                self._check_post_sweep(limiter)

            limiter._on_window_sweep = wrapped_sweep

    def attach_simulator(self, sim: Any) -> None:
        """Register the simulator itself for engine-counter probing.

        Called from ``Simulator.__init__`` when constructed with
        ``validate=``.  Nothing is wrapped — the engine counters are
        plain attributes — so the event loop stays untouched; the probes
        run piggybacked on every limiter check and once at finalize.
        """
        self._simulators.append(sim)

    def attach_sender(self, sender: Any) -> None:
        """Wrap a TCP sender's ACK entry ``receive_ack`` for per-ACK
        checking; it calls the original, so ``_process_ack`` /
        ``_try_send`` run exactly as they do unvalidated."""
        self._senders.append(sender)
        original_receive_ack = sender.receive_ack
        home = sender._sim.lane

        def wrapped_receive_ack(*record: Any) -> None:
            self._check_lane(sender._sim, home, f"sender {sender.flow}")
            original_receive_ack(*record)
            self._check_sender(sender)

        sender.receive_ack = wrapped_receive_ack

    def attach_middlebox(self, middlebox: Any) -> None:
        """Wrap dispatch accounting.  Assumes registered limiters receive
        traffic only through this middlebox (the repo's wiring)."""
        state: dict[str, Any] = {
            "packets": 0,
            "bytes": 0,
            "unmatched_bytes": 0,
            "baselines": {},
        }
        self._middleboxes.append((middlebox, state))

        original_add = middlebox.add_aggregate

        def wrapped_add(aggregate: int, limiter: Any) -> None:
            original_add(aggregate, limiter)
            state["baselines"][aggregate] = (
                limiter,
                limiter.stats.arrived_packets,
                limiter.stats.arrived_bytes,
            )

        middlebox.add_aggregate = wrapped_add

        original_receive = middlebox.receive

        def wrapped_receive(packet: Any) -> None:
            state["packets"] += 1
            state["bytes"] += packet.size
            if packet.flow.aggregate not in middlebox._limiters:
                state["unmatched_bytes"] += packet.size
            original_receive(packet)
            self._check_middlebox(middlebox, state)

        middlebox.receive = wrapped_receive

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        if self.fail_fast:
            raise InvariantViolation(message)

    def _ensure(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self._fail(message)

    def finalize(self, *, recorders: tuple[Any, ...] = ()) -> None:
        """Run end-of-simulation checks.

        Re-checks every attached component once more and flags recorders
        that measured nothing (a run whose receiver saw no goodput over
        its whole measurement interval almost always means mis-wired
        topology, not a quiet workload).
        """
        for limiter, state in self._limiters:
            if state["ready"]:
                self._check_limiter(limiter, state, None)
        for sender in self._senders:
            self._check_sender(sender)
        for middlebox, state in self._middleboxes:
            self._check_middlebox(middlebox, state)
        for sim in self._simulators:
            self._check_simulator(sim)
        for recorder in recorders:
            self._ensure(
                bool(recorder.seen),
                f"recorder {recorder.name!r}: nothing recorded at end of "
                "run (the receiver saw no goodput)",
            )

    # ------------------------------------------------------------------
    # Limiter checks
    # ------------------------------------------------------------------

    def _init_limiter(self, limiter: Any, state: dict[str, Any]) -> None:
        """Type-specific setup, deferred to the first wrapped call so the
        subclass ``__init__`` has finished."""
        state["ready"] = True
        if isinstance(limiter, PQP):
            queues = limiter.queues
            name = limiter.name
            state["ledger_in"] = 0.0
            state["ledger_reclaimed"] = 0.0
            state["drained_base"] = queues.drained_bytes
            state["evicted_base"] = queues.evicted_bytes
            state["recompute_base"] = queues.drain_recomputes
            state["prev_drained"] = queues.drained_bytes
            state["prev_evicted"] = queues.evicted_bytes
            state["prev_epoch"] = queues.epoch
            state["prev_recomputes"] = queues.drain_recomputes
            state["prev_vtimes"] = queues.gps_virtual_times()

            def check_queue(queue: int) -> None:
                # Removed-queue events must never fire: after a shrink,
                # nothing may enqueue/fill/reclaim past the new count.
                self._ensure(
                    0 <= queue < queues.num_queues,
                    f"{name}: phantom event on queue {queue} outside the "
                    f"current {queues.num_queues}-queue set "
                    "(removed-queue event fired after reconfiguration)",
                )

            original_offer = queues.offer

            def wrapped_offer(queue: int, size: float) -> float:
                # The one admit entry point: the limiters look it up per
                # packet and ``try_enqueue`` goes through it too.
                check_queue(queue)
                rate = original_offer(queue, size)
                if rate >= 0.0:
                    state["ledger_in"] += size
                return rate

            queues.offer = wrapped_offer

            original_fill = queues.fill_with_magic

            def wrapped_fill(queue: int) -> float:
                check_queue(queue)
                added = original_fill(queue)
                state["ledger_in"] += added
                return added

            queues.fill_with_magic = wrapped_fill

            original_reclaim = queues.reclaim_magic

            def wrapped_reclaim(queue: int) -> float:
                check_queue(queue)
                reclaimed = original_reclaim(queue)
                state["ledger_reclaimed"] += reclaimed
                return reclaimed

            queues.reclaim_magic = wrapped_reclaim

    def _check_simulator(self, sim: Any) -> None:
        """Engine-counter probe: the peak-heap gauge never trails the
        deepest of the heaps it measures."""
        deepest = max(map(len, sim.lanes))
        self._ensure(
            sim.peak_heap_size >= deepest,
            f"simulator: peak heap {sim.peak_heap_size} below the deepest "
            f"lane's current {deepest} pending",
        )

    def _check_lane(self, sim: Any, home: int, name: str) -> None:
        """Only lane ``home``'s events may call what was built there."""
        self._ensure(
            sim.lane == home,
            f"{name}: called from event lane {sim.lane} but built in lane "
            f"{home} (lanes must be causally independent)",
        )

    def _check_limiter(
        self, limiter: Any, state: dict[str, Any], packet: Any
    ) -> None:
        sim = getattr(limiter, "_sim", None)
        if sim is not None and sim in self._simulators:
            self._check_simulator(sim)
        stats = limiter.stats
        name = limiter.name

        self._ensure(
            sum(stats.per_queue_drops.values()) == stats.dropped_packets,
            f"{name}: per_queue_drops sums to "
            f"{sum(stats.per_queue_drops.values())}, not "
            f"dropped_packets={stats.dropped_packets}",
        )
        for op, count in limiter.cost.snapshot().items():
            self._ensure(
                count >= 0,
                f"{name}: negative op count {op}={count}",
            )

        if isinstance(limiter, Shaper):
            self._check_shaper(limiter)
        else:
            # Policers never buffer: conservation is exact, in packets
            # and in bytes.
            self._ensure(
                stats.arrived_packets
                == stats.forwarded_packets + stats.dropped_packets,
                f"{name}: packet conservation broken: arrived="
                f"{stats.arrived_packets} != forwarded="
                f"{stats.forwarded_packets} + dropped={stats.dropped_packets}",
            )
            self._ensure(
                stats.arrived_bytes
                == stats.forwarded_bytes + stats.dropped_bytes,
                f"{name}: byte conservation broken: arrived="
                f"{stats.arrived_bytes} != forwarded={stats.forwarded_bytes}"
                f" + dropped={stats.dropped_bytes}",
            )

        if isinstance(limiter, TokenBucketPolicer):
            tokens = limiter._tokens
            self._ensure(
                -_EPS <= tokens <= limiter._bucket + _EPS,
                f"{name}: tokens {tokens!r} outside "
                f"[0, {limiter._bucket!r}]",
            )
        elif isinstance(limiter, FairPolicer):
            bucket = limiter._bucket
            for i, flow_tokens in enumerate(limiter._flow_tokens):
                self._ensure(
                    -_EPS <= flow_tokens <= bucket + _EPS,
                    f"{name}: flow {i} tokens {flow_tokens!r} outside "
                    f"[0, {bucket!r}]",
                )
            self._ensure(
                -_EPS <= limiter._spare <= bucket + _EPS,
                f"{name}: spare {limiter._spare!r} outside [0, {bucket!r}]",
            )
        elif isinstance(limiter, PQP):
            self._check_phantom(limiter, state, packet)
            if isinstance(limiter, BCPQP):
                self._check_bcpqp(limiter, packet)

    def _check_shaper(self, shaper: Shaper) -> None:
        stats = shaper.stats
        buffered = sum(len(q) for q in shaper._queues)
        in_service = 1 if shaper._busy else 0
        self._ensure(
            stats.arrived_packets
            == stats.forwarded_packets
            + stats.dropped_packets
            + buffered
            + in_service,
            f"{shaper.name}: packet conservation broken: arrived="
            f"{stats.arrived_packets}, forwarded={stats.forwarded_packets},"
            f" dropped={stats.dropped_packets}, buffered={buffered},"
            f" in_service={in_service}",
        )
        # The in-service packet's bytes are in neither the backlog nor the
        # forwarded count while it serializes, so the byte slack is one
        # packet at most (zero when idle).
        slack = (
            stats.arrived_bytes
            - stats.forwarded_bytes
            - stats.dropped_bytes
            - shaper.backlog_bytes()
        )
        self._ensure(
            slack >= -_EPS and (shaper._busy or slack <= _EPS),
            f"{shaper.name}: byte conservation broken: unaccounted "
            f"slack {slack!r} (busy={shaper._busy})",
        )
        # The O(1) running state against a rescan of the queues: total
        # backlog, head sizes, and the occupancy the scheduler was told.
        heads = [q[0].size if q else None for q in shaper._queues]
        occupied = len(heads) - heads.count(None)
        self._ensure(
            shaper.backlog_bytes() == sum(shaper._queue_bytes)
            and shaper._heads == heads
            and shaper._scheduler._root.occupied == occupied,
            f"{shaper.name}: running state stale: backlog="
            f"{shaper.backlog_bytes()!r} vs {sum(shaper._queue_bytes)!r}, "
            f"heads={shaper._heads!r} vs {heads!r}, scheduler sees "
            f"{shaper._scheduler._root.occupied} occupied vs {occupied}",
        )

    def _check_phantom(
        self, limiter: PQP, state: dict[str, Any], packet: Any
    ) -> None:
        queues = limiter.queues
        name = limiter.name
        total_peeked = 0.0
        engine_shares = queues.service == "fluid"
        share_total = 0.0
        for qi in range(queues.num_queues):
            if engine_shares:
                share_total += queues.fluid_rate_of(qi)
            length = queues.peek_length(qi)
            capacity = queues.capacity(qi)
            self._ensure(
                -_EPS <= length <= capacity + _EPS + _REL * capacity,
                f"{name}: phantom queue {qi} occupancy {length!r} outside "
                f"[0, capacity={capacity!r}]",
            )
            self._ensure(
                queues.raw_magic(qi) >= 0.0,
                f"{name}: phantom queue {qi} magic watermark "
                f"{queues.raw_magic(qi)!r} negative",
            )
            total_peeked += length

        drained = queues.drained_bytes - state["drained_base"]
        evicted = queues.evicted_bytes - state["evicted_base"]
        recomputes = queues.drain_recomputes - state["recompute_base"]
        # Lazy engines shed sub-epsilon "crumbs" when a queue empties
        # (fluid additionally zeroes them without crediting drained_bytes),
        # so conservation holds to a tolerance scaled by how many linear
        # pieces / phantom dequeues have run.
        tolerance = _EPS * (recomputes + 10) + _REL * state["ledger_in"]
        ledger_total = (
            state["ledger_in"] - state["ledger_reclaimed"] - drained - evicted
        )
        running_total = queues.total_length()
        self._ensure(
            abs(ledger_total - running_total) <= tolerance,
            f"{name}: phantom ledger broken: in={state['ledger_in']!r} - "
            f"reclaimed={state['ledger_reclaimed']!r} - drained={drained!r}"
            f" - evicted={evicted!r} = {ledger_total!r}, but "
            f"total_length()={running_total!r} (tolerance {tolerance!r})",
        )
        self._ensure(
            abs(running_total - total_peeked) <= tolerance,
            f"{name}: total_length()={running_total!r} disagrees with "
            f"sum of per-queue occupancies {total_peeked!r} "
            f"(tolerance {tolerance!r})",
        )
        self._ensure(
            queues.drained_bytes >= state["prev_drained"],
            f"{name}: drained_bytes went backwards: "
            f"{queues.drained_bytes!r} < {state['prev_drained']!r}",
        )
        self._ensure(
            queues.drain_recomputes >= state["prev_recomputes"],
            f"{name}: drain_recomputes went backwards: "
            f"{queues.drain_recomputes} < {state['prev_recomputes']}",
        )
        self._ensure(
            queues.evicted_bytes >= state["prev_evicted"] - _EPS,
            f"{name}: evicted_bytes went backwards: "
            f"{queues.evicted_bytes!r} < {state['prev_evicted']!r}",
        )
        self._ensure(
            queues.epoch >= state["prev_epoch"],
            f"{name}: mutation epoch went backwards: "
            f"{queues.epoch} < {state['prev_epoch']}",
        )
        epoch_changed = queues.epoch != state["prev_epoch"]
        state["prev_drained"] = queues.drained_bytes
        state["prev_evicted"] = queues.evicted_bytes
        state["prev_epoch"] = queues.epoch
        state["prev_recomputes"] = queues.drain_recomputes

        if engine_shares:
            # Work conservation over the engine-read shares, and the
            # touched queue's read against the independent oracle.
            mask = queues.active_mask()
            expected = queues.rate if mask else 0.0
            self._ensure(
                abs(share_total - expected) <= _REL * queues.rate,
                f"{name}: engine shares sum to {share_total!r}, not the "
                f"enforced rate {expected!r}",
            )
            if packet is not None:
                qi = limiter._classifier.queue_of(packet.flow)
                engine = queues.fluid_rate_of(qi)
                oracle = queues.policy.fluid_rate_of(qi, mask, queues.rate)
                self._ensure(
                    engine == oracle,
                    f"{name}: queue {qi} engine rate {engine!r} != policy "
                    f"oracle {oracle!r} (active mask {mask:#x})",
                )

        virtual_times = queues.gps_virtual_times()
        if virtual_times is not None:
            previous = state["prev_vtimes"]
            if epoch_changed or previous is None:
                # A committed reconfiguration rebuilds the GPS engine:
                # group count and virtual clocks re-seed, so monotonicity
                # restarts from the fresh baseline.
                state["prev_vtimes"] = virtual_times
            else:
                for gi, (v_now, v_prev) in enumerate(
                    zip(virtual_times, previous)
                ):
                    self._ensure(
                        v_now >= v_prev,
                        f"{name}: GPS virtual time of group {gi} went "
                        f"backwards: {v_now!r} < {v_prev!r}",
                    )
                state["prev_vtimes"] = virtual_times

    def _check_bcpqp(self, limiter: BCPQP, packet: Any) -> None:
        name = limiter.name
        self._ensure(
            len(limiter._accepted_window) == limiter.num_queues
            and len(limiter._arrived_window) == limiter.num_queues
            and len(limiter._window_start) == limiter.num_queues,
            f"{name}: window arrays sized "
            f"({len(limiter._accepted_window)}, "
            f"{len(limiter._arrived_window)}, "
            f"{len(limiter._window_start)}) for {limiter.num_queues} queues "
            "(accounting windows not migrated at the epoch seam)",
        )
        for qi in range(limiter.num_queues):
            accepted = limiter.accepted_window_bytes(qi)
            arrived = limiter.arrived_window_bytes(qi)
            self._ensure(
                accepted <= arrived + _EPS,
                f"{name}: window accounting broken on queue {qi}: "
                f"accepted={accepted!r} > arrived={arrived!r}",
            )
            self._ensure(
                accepted >= 0.0 and arrived >= 0.0,
                f"{name}: negative window counter on queue {qi}: "
                f"accepted={accepted!r}, arrived={arrived!r}",
            )
        self._ensure(
            limiter.magic_fills >= 0 and limiter.magic_reclaims >= 0,
            f"{name}: negative magic counter: fills={limiter.magic_fills},"
            f" reclaims={limiter.magic_reclaims}",
        )
        if packet is not None:
            # The arrival hook rolled (or reset) this packet's window, so
            # post-packet the arriving queue's window is younger than T.
            qi = limiter._classifier.queue_of(packet.flow)
            age = limiter.window_age(qi, limiter._sim.now)
            self._ensure(
                age < limiter.period + _EPS,
                f"{name}: queue {qi} window age {age!r} >= period "
                f"{limiter.period!r} after an arrival",
            )

    def _check_post_sweep(self, limiter: Any) -> None:
        """After a window sweep every queue's window was rolled if stale."""
        if not isinstance(limiter, BCPQP):
            return
        now = limiter._sim.now
        for qi in range(limiter.num_queues):
            age = limiter.window_age(qi, now)
            self._ensure(
                age < limiter.period + _EPS,
                f"{limiter.name}: queue {qi} window age {age!r} >= period "
                f"{limiter.period!r} after the sweep",
            )

    # ------------------------------------------------------------------
    # Sender checks
    # ------------------------------------------------------------------

    def _check_sender(self, sender: Any) -> None:
        name = getattr(sender, "name", "sender")
        self._ensure(
            sender.snd_una <= sender.snd_nxt,
            f"{name}: snd_una={sender.snd_una} > snd_nxt={sender.snd_nxt}",
        )
        pipe = (
            (sender.snd_nxt - sender.snd_una)
            - len(sender._sacked)
            - len(sender._lost_set)
            + len(sender._retx_out)
        )
        self._ensure(
            pipe >= 0,
            f"{name}: negative scoreboard pipe {pipe} "
            f"(snd_nxt={sender.snd_nxt}, snd_una={sender.snd_una}, "
            f"sacked={len(sender._sacked)}, lost={len(sender._lost_set)}, "
            f"retx={len(sender._retx_out)})",
        )
        self._check_scoreboard(sender, name)
        cc = sender.cc
        self._ensure(
            cc.cwnd >= 1.0 - _EPS,
            f"{name}: cwnd {cc.cwnd!r} below 1 MSS",
        )
        self._ensure(
            cc.ssthresh >= 1.0 - _EPS,
            f"{name}: ssthresh {cc.ssthresh!r} below 1 MSS",
        )
        self._ensure(
            _endpoint._MIN_RTO - _EPS
            <= sender.rto
            <= _endpoint._MAX_RTO + _EPS,
            f"{name}: RTO {sender.rto!r} outside "
            f"[{_endpoint._MIN_RTO}, {_endpoint._MAX_RTO}]",
        )
        if sender.srtt is not None:
            self._ensure(
                sender.srtt > 0.0,
                f"{name}: non-positive srtt {sender.srtt!r}",
            )
            self._ensure(
                sender._rttvar >= 0.0,
                f"{name}: negative rttvar {sender._rttvar!r}",
            )

    def _check_scoreboard(self, sender: Any, name: str) -> None:
        """What the sender's recovery steps assume instead of re-deriving
        on every ACK (DESIGN.md, "TCP endpoint: recovery cost")."""
        una = sender.snd_una
        nxt = sender.snd_nxt
        sacked = sender._sacked
        lost = sender._lost_set
        retx = sender._retx_out

        def ensure(ok: bool, describe: Any) -> None:
            # The details are formatted on failure only: sorting a window's
            # worth of seqs per ACK would dominate a validated run.
            self.checks += 1
            if not ok:
                self._fail(f"{name}: {describe()}")

        ensure(
            sacked.isdisjoint(lost)
            and sacked.isdisjoint(retx)
            and lost.isdisjoint(retx),
            lambda: "scoreboard sets overlap (sacked&lost="
            f"{sorted(sacked & lost)}, sacked&retx="
            f"{sorted(sacked & retx.keys())}, lost&retx="
            f"{sorted(lost & retx.keys())})",
        )
        for label, seqs in (("sacked", sacked), ("lost", lost), ("retx", retx)):
            ensure(
                not seqs or (una <= min(seqs) and max(seqs) < nxt),
                lambda: f"{label} seqs outside [snd_una={una}, "
                f"snd_nxt={nxt}): {sorted(seqs)}",
            )
        ensure(
            sender._fack <= nxt,
            lambda: f"fack {sender._fack} above snd_nxt={nxt}",
        )
        times = list(retx.values())
        ensure(
            all(a <= b for a, b in zip(times, times[1:])),
            lambda: f"_retx_out not in retransmit-time order: {retx!r}",
        )
        ensure(
            lost.issubset(sender._lost_heap),
            lambda: "lost seqs missing from the retransmit heap: "
            f"{sorted(lost.difference(sender._lost_heap))}",
        )
        starts = sender._sack_starts
        ends = sender._sack_ends
        ensure(
            len(starts) == len(ends)
            and all(s < e for s, e in zip(starts, ends))
            and all(e < s for e, s in zip(ends, starts[1:]))
            and (not ends or ends[0] > una),
            lambda: "SACK runs not sorted, non-adjacent and above "
            f"snd_una={una}: {list(zip(starts, ends))}",
        )
        covered: set[int] = set()
        for start, end in zip(starts, ends):
            covered.update(range(max(start, una), end))
        ensure(
            covered == sacked,
            lambda: f"SACK runs and _sacked disagree from snd_una={una}: "
            f"runs only {sorted(covered - sacked)}, "
            f"set only {sorted(sacked - covered)}",
        )

    # ------------------------------------------------------------------
    # Middlebox checks
    # ------------------------------------------------------------------

    def _check_middlebox(self, middlebox: Any, state: dict[str, Any]) -> None:
        name = middlebox.name
        delivered_packets = 0
        delivered_bytes = 0
        for _agg, (limiter, base_packets, base_bytes) in state[
            "baselines"
        ].items():
            delivered_packets += limiter.stats.arrived_packets - base_packets
            delivered_bytes += limiter.stats.arrived_bytes - base_bytes
        self._ensure(
            state["packets"]
            == middlebox.unmatched_packets + delivered_packets,
            f"{name}: dispatch conservation broken: received="
            f"{state['packets']} packets, unmatched="
            f"{middlebox.unmatched_packets}, delivered={delivered_packets}",
        )
        self._ensure(
            state["bytes"] == state["unmatched_bytes"] + delivered_bytes,
            f"{name}: dispatch byte conservation broken: received="
            f"{state['bytes']}, unmatched={state['unmatched_bytes']}, "
            f"delivered={delivered_bytes}",
        )
