"""Span recorder: per-layer self time taken from outside ``src/``.

The traced repeat of a workload installs class-level wrappers on a fixed
table of public entry points (``BOUNDARIES`` below) *before* any
simulation object is constructed -- components latch bound methods at
construction, and a class-level wrapper is what those latches pick up.
Every crossing opens a span (name, start, end, parent).  A span's self
time is its duration minus its children's durations; a layer's self time
is the sum over the span names the table maps to it.

Callbacks handed to the simulator's scheduling API (and to
``Timer(sim, callback)``) are wrapped too and attributed to the layer of
the module that owns them, so timer-driven work -- the shaper's dequeue
chain, BBR's pacing timer, RTO/TLP handlers, churn actions -- lands in
its own layer instead of in ``sim``.

None of the private methods ``TcpSender._fast_path_ok()`` inspects is
touched: a wrapper there would silently route the traced run down the
legacy per-packet path, and the traced ``sim_digest`` could then equal
the untraced one while the budget described different code.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

#: Layers reported as ``<layer>.self_share`` / ``<layer>.calls_per_pkt``.
LAYERS = (
    "sim",
    "net.pipe",
    "net.link",
    "net.trace",
    "net.impair",
    "net.middlebox",
    "cc.sender",
    "cc.receiver",
    "cc.demux",
    "core",
    "policy",
    "limiters",
    "sched",
    "fleet.recorder",
    "churn",
)
GEN_LAYER = "harness.gen"
OTHER_LAYER = "other"

_RECEIVE = "receive*"

#: The boundary table: (module, class, method patterns, layer).  A
#: trailing ``*`` matches every public method with that prefix.
BOUNDARIES = (
    ("repro.sim.simulator", "Simulator",
     ("run", "schedule", "schedule_at", "call_after", "call_at",
      "call_at_reserved"), "sim"),
    ("repro.net.pipe", "Pipe", (_RECEIVE, "deliver_batch"), "net.pipe"),
    ("repro.net.link", "Link", (_RECEIVE, "deliver_batch"), "net.link"),
    ("repro.net.impair", "TraceLink", (_RECEIVE, "deliver_batch"), "net.link"),
    ("repro.net.impair", "JitterPipe", (_RECEIVE,), "net.impair"),
    ("repro.net.impair", "LossGate", (_RECEIVE,), "net.impair"),
    ("repro.net.impair", "GilbertElliottGate", (_RECEIVE,), "net.impair"),
    ("repro.net.impair", "Duplicator", (_RECEIVE,), "net.impair"),
    ("repro.net.impair", "Corrupter", (_RECEIVE,), "net.impair"),
    ("repro.net.trace", "Trace", (_RECEIVE,), "net.trace"),
    ("repro.net.middlebox", "Middlebox", (_RECEIVE,), "net.middlebox"),
    ("repro.fleet.recorder", "FleetRecorder", (_RECEIVE,), "fleet.recorder"),
    ("repro.cc.endpoint", "FlowDemux", (_RECEIVE,), "cc.demux"),
    ("repro.cc.endpoint", "TcpSender", (_RECEIVE,), "cc.sender"),
    ("repro.cc.endpoint", "TcpReceiver", (_RECEIVE,), "cc.receiver"),
    ("repro.core.pqp", "PQP",
     ("receive", "receive_batch", "apply_update"), "core"),
    ("repro.core.bcpqp", "BCPQP",
     ("receive", "receive_batch", "apply_update"), "core"),
    ("repro.limiters.shaper", "Shaper",
     ("receive", "receive_batch", "apply_update"), "limiters"),
    ("repro.limiters.token_bucket", "TokenBucketPolicer",
     ("receive", "receive_batch", "apply_update"), "limiters"),
    ("repro.limiters.fair_policer", "FairPolicer",
     ("receive", "receive_batch", "apply_update"), "limiters"),
    ("repro.core.phantom", "PhantomQueueSet",
     ("advance", "try_enqueue", "fill_with_magic", "reclaim_magic"), "core"),
    ("repro.policy.tree", "Policy",
     ("fluid_rates", "fluid_rate_of"), "policy"),
    ("repro.sched.drr", "HierarchicalDrrScheduler",
     ("select", "charge"), "sched"),
    ("repro.sched.drr", "ActiveSetDrr",
     ("select", "charge", "activate", "deactivate"), "sched"),
)

#: Module-level functions that get a span (outside the timed segments).
FUNCTION_BOUNDARIES = (
    ("repro.runner.aggregate", "measure", "metrics"),
    ("repro.metrics.merge", "merge_shard_summaries", "metrics"),
)

#: Classes whose instances the traced run collects (constructor hook
#: only) so their public counters can be read when the run is over.
REGISTERED = (
    ("repro.cc.endpoint", "TcpSender"),
    ("repro.cc.endpoint", "TcpReceiver"),
    ("repro.net.impair", "LossGate"),
    ("repro.net.impair", "GilbertElliottGate"),
)

#: Owner-module prefix -> layer, for callbacks (longest prefix wins).
MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.net.pipe", "net.pipe"),
    ("repro.net.fastpath", "net.pipe"),
    ("repro.net.link", "net.link"),
    ("repro.net.trace", "net.trace"),
    ("repro.net.impair", "net.impair"),
    ("repro.net.middlebox", "net.middlebox"),
    ("repro.cc", "cc.sender"),
    ("repro.core", "core"),
    ("repro.policy", "policy"),
    ("repro.limiters", "limiters"),
    ("repro.sched", "sched"),
    ("repro.fleet.recorder", "fleet.recorder"),
    ("repro.churn", "churn"),
)

# Argument position of the callback in each scheduling method.
_CALLBACK_ARG = {
    "schedule": 2,
    "schedule_at": 2,
    "call_after": 2,
    "call_at": 2,
    "call_at_reserved": 3,
}

_LIMITER_CLASSES = ("PQP", "BCPQP", "Shaper", "TokenBucketPolicer", "FairPolicer")


class SpanRecorder:
    """In-memory span aggregates plus an optional raw-span window."""

    def __init__(self, clock=perf_counter_ns) -> None:
        self._clock = clock
        self.names: list[str] = ["<root>"]
        self.layers: list[str] = ["harness"]
        self._ids: dict[str, int] = {"<root>": 0}
        self.calls: list[int] = [0]
        self.self_ns: list[int] = [0]
        self.total_ns: list[int] = [0]
        self.child_calls: list[int] = [0]
        #: Packets handed to limiter ``receive_batch`` spans, by name id.
        self.batch_items: list[int] = [0]
        #: Call-graph edge counts keyed ``parent_id * 4096 + child_id``.
        self.edges: dict[int, int] = {}
        # Frames are [name_id, children_ns, children_count, span_id].
        self._root = [0, 0, 0, -1]
        self._stack: list[list[int]] = [self._root]
        #: Raw spans (span_id, parent_span_id, name_id, start_ns, end_ns)
        #: while :attr:`raw_on`; bounded by :attr:`raw_limit`.
        self.raw: list[tuple[int, int, int, int, int]] = []
        self.raw_on = False
        self.raw_limit = 200_000
        self._next_span = 0
        self.instances: dict[str, list[object]] = {}
        self._installed: list[tuple[object, str, bool, object]] = []
        self._wrapped: set[object] = set()
        self._callbacks: dict[tuple[object, object], object] = {}
        self._class_layers: dict[type, str] = {}
        #: Per-crossing wrapper cost (ns): the part inside the span's own
        #: start..end, and the part billed to the parent's self time.
        self.inner_ns = 0.0
        self.outer_ns = 0.0

    # ------------------------------------------------------------------
    # Names
    # ------------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
            for column in (self.calls, self.self_ns, self.total_ns,
                           self.child_calls, self.batch_items):
                column.append(0)
        return nid

    def layer_of_owner(self, owner: object) -> str:
        """Layer of a callback's owner: explicit class entry in the
        boundary table, then a ``SPAN_LAYER`` class attribute (harness
        generators), then the owner module's prefix."""
        cls = owner if isinstance(owner, type) else type(owner)
        layer = self._class_layers.get(cls)
        if layer is None:
            layer = getattr(cls, "SPAN_LAYER", None) or _module_layer(
                getattr(owner, "__module__", None) or cls.__module__
            )
            self._class_layers[cls] = layer
        return layer

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, *, count_len: bool = False,
             keywords: bool = False):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self.name_id(name, layer)
        stack = self._stack
        clock = self._clock
        calls = self.calls
        self_ns = self.self_ns
        total_ns = self.total_ns
        child_calls = self.child_calls
        batch_items = self.batch_items
        edges = self.edges
        rec = self

        def enter():
            parent = stack[-1]
            span_id = -1
            if rec.raw_on:
                span_id = rec._next_span
                rec._next_span = span_id + 1
            frame = [nid, 0, 0, span_id]
            stack.append(frame)
            return parent, frame

        def leave(parent, frame, start):
            end = clock()
            stack.pop()
            duration = end - start
            calls[nid] += 1
            total_ns[nid] += duration
            self_ns[nid] += duration - frame[1]
            child_calls[nid] += frame[2]
            parent[1] += duration
            parent[2] += 1
            edge = parent[0] * 4096 + nid
            edges[edge] = edges.get(edge, 0) + 1
            if frame[3] >= 0 and len(rec.raw) < rec.raw_limit:
                rec.raw.append((frame[3], parent[3], nid, start, end))

        if keywords:
            def wrapper(*args, **kwargs):
                parent, frame = enter()
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(parent, frame, start)
        elif count_len:
            def wrapper(*args):
                batch_items[nid] += len(args[1])
                parent, frame = enter()
                start = clock()
                try:
                    return fn(*args)
                finally:
                    leave(parent, frame, start)
        else:
            def wrapper(*args):
                parent, frame = enter()
                start = clock()
                try:
                    return fn(*args)
                finally:
                    leave(parent, frame, start)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        self._wrapped.add(wrapper)
        return wrapper

    def wrap_callback(self, callback):
        """Span-wrap a scheduled callback; returns ``(callable, prefix
        args)``.  Bound methods are wrapped once per (function, owner
        class) and re-bound through the prefix argument, so scheduling
        allocates nothing per call."""
        func = getattr(callback, "__func__", None)
        if func is None:
            if callback in self._wrapped:
                return callback, ()
            key = (callback, None)
            wrapped = self._callbacks.get(key)
            if wrapped is None:
                name = getattr(callback, "__qualname__", repr(callback))
                wrapped = self.wrap(
                    callback, name, _module_layer(
                        getattr(callback, "__module__", "") or ""
                    ),
                )
                self._callbacks[key] = wrapped
            return wrapped, ()
        if func in self._wrapped:
            return callback, ()
        owner = callback.__self__
        key = (func, type(owner))
        wrapped = self._callbacks.get(key)
        if wrapped is None:
            wrapped = self.wrap(
                func,
                f"{type(owner).__name__}.{func.__name__}",
                self.layer_of_owner(owner),
            )
            self._callbacks[key] = wrapped
        return wrapped, (owner,)

    def _patch(self, target: object, name: str, replacement: object) -> None:
        own = name in vars(target)
        self._installed.append((target, name, own, vars(target).get(name)))
        setattr(target, name, replacement)

    def install(self) -> None:
        """Install every wrapper of the boundary table (class level)."""
        # Resolve every original first: an inherited method must be
        # wrapped from the *unwrapped* base function, whatever the order
        # base and subclass appear in the table.
        plan = []
        for module_name, class_name, patterns, layer in BOUNDARIES:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._class_layers[cls] = layer
            for method in _match_methods(cls, patterns):
                plan.append((cls, method, getattr(cls, method), layer))
        for cls, method, original, layer in plan:
            name = f"{cls.__name__}.{method}"
            wrapped = self.wrap(
                original, name, layer,
                count_len=(method == "receive_batch"
                           and cls.__name__ in _LIMITER_CLASSES),
                keywords=(method == "run"),
            )
            if cls.__name__ == "Simulator" and method in _CALLBACK_ARG:
                # Substitution happens outside the span, so the span
                # times the heap push alone.
                wrapped = self._scheduling(wrapped, _CALLBACK_ARG[method])
            self._patch(cls, method, wrapped)
        for module_name, function_name, layer in FUNCTION_BOUNDARIES:
            module = importlib.import_module(module_name)
            self._patch(
                module, function_name,
                self.wrap(getattr(module, function_name), function_name, layer),
            )
        timer_cls = importlib.import_module("repro.sim.timer").Timer
        self._patch(timer_cls, "__init__", self._timer_init(timer_cls.__init__))
        for module_name, class_name in REGISTERED:
            cls = getattr(importlib.import_module(module_name), class_name)
            if "__init__" in vars(cls):
                self._patch(
                    cls, "__init__", self._registering(cls, cls.__init__)
                )

    def uninstall(self) -> None:
        """Restore every patched attribute (for in-process tests)."""
        while self._installed:
            target, name, own, original = self._installed.pop()
            if own:
                setattr(target, name, original)
            else:
                delattr(target, name)

    def _scheduling(self, original, position: int):
        """Scheduling method whose callback argument gets a span."""
        wrap_callback = self.wrap_callback

        def schedule(*args):
            callback, prefix = wrap_callback(args[position])
            return original(
                *args[:position], callback, *prefix, *args[position + 1:]
            )

        schedule.__name__ = original.__name__
        return schedule

    def _timer_init(self, original):
        wrap_callback = self.wrap_callback

        def __init__(timer, sim, callback):
            wrapped, prefix = wrap_callback(callback)
            if prefix:
                owner = prefix[0]
                original(timer, sim, lambda: wrapped(owner))
            else:
                original(timer, sim, wrapped)

        return __init__

    def _registering(self, cls: type, original):
        bucket = self.instances.setdefault(cls.__name__, [])

        def __init__(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            if type(instance) is cls:
                bucket.append(instance)

        return __init__

    # ------------------------------------------------------------------
    # Overhead calibration and snapshots
    # ------------------------------------------------------------------

    def calibrate_overhead(self, rounds: int = 20000) -> None:
        """Measure what one crossing costs so it can be subtracted.

        An empty function is called ``rounds`` times bare and wrapped.
        The wrapped spans' own recorded duration is the *inner* cost
        (billed to the span itself); the rest of the per-call difference
        is the *outer* cost (billed to whichever span made the call).
        """
        def empty(_a, _b):
            return None

        wrapped = self.wrap(empty, "<overhead>", "harness")
        nid = self._ids["<overhead>"]
        for fn in (empty, wrapped):  # warm both paths
            for _ in range(2000):
                fn(None, None)
        calls_before = self.calls[nid]
        total_before = self.total_ns[nid]
        best_bare = best_wrapped = None
        for _ in range(5):
            start = perf_counter_ns()
            for _ in range(rounds):
                empty(None, None)
            bare = perf_counter_ns() - start
            start = perf_counter_ns()
            for _ in range(rounds):
                wrapped(None, None)
            spent = perf_counter_ns() - start
            best_bare = bare if best_bare is None else min(best_bare, bare)
            best_wrapped = (
                spent if best_wrapped is None else min(best_wrapped, spent)
            )
        done = self.calls[nid] - calls_before
        inner = (self.total_ns[nid] - total_before) / done
        per_call = (best_wrapped - best_bare) / rounds
        self.inner_ns = inner
        self.outer_ns = max(per_call - inner, 0.0)
        # The calibration spans are harness work, not the program's.
        self._root[1] = 0
        self._root[2] = 0
        self.edges.clear()

    def snapshot(self) -> dict:
        """Copy of the aggregate columns (for post-warm-up deltas)."""
        return {
            "calls": list(self.calls),
            "self_ns": list(self.self_ns),
            "total_ns": list(self.total_ns),
            "child_calls": list(self.child_calls),
            "batch_items": list(self.batch_items),
            "root_ns": self._root[1],
            "root_calls": self._root[2],
            "edges": dict(self.edges),
        }

    def since(self, before: dict | None = None) -> dict:
        """Per-name aggregates accumulated after ``before`` was taken
        (default: since the recorder was created), with the wrapper cost
        subtracted per crossing."""
        if before is None:
            before = {"calls": [], "self_ns": [], "total_ns": [],
                      "child_calls": [], "batch_items": [], "root_ns": 0,
                      "root_calls": 0, "edges": {}}
        now = self.snapshot()
        rows = {}
        for nid, name in enumerate(self.names):
            if nid == 0:
                continue
            old = nid < len(before["calls"])
            calls = now["calls"][nid] - (before["calls"][nid] if old else 0)
            if calls == 0:
                continue
            raw_self = now["self_ns"][nid] - (
                before["self_ns"][nid] if old else 0
            )
            children = now["child_calls"][nid] - (
                before["child_calls"][nid] if old else 0
            )
            rows[name] = {
                "layer": self.layers[nid],
                "calls": calls,
                "child_calls": children,
                "items": now["batch_items"][nid] - (
                    before["batch_items"][nid] if old else 0
                ),
                "total_ns": now["total_ns"][nid] - (
                    before["total_ns"][nid] if old else 0
                ),
                "self_ns": max(
                    raw_self - calls * self.inner_ns
                    - children * self.outer_ns,
                    0.0,
                ),
            }
        edges = {}
        for key, count in now["edges"].items():
            delta = count - before["edges"].get(key, 0)
            if delta:
                parent, child = divmod(key, 4096)
                edges[f"{self.names[parent]}>{self.names[child]}"] = delta
        return {
            "names": rows,
            "edges": edges,
            "root_ns": now["root_ns"] - before["root_ns"],
            "root_calls": now["root_calls"] - before["root_calls"],
        }

    def raw_spans(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "name": self.names[nid],
             "start_ns": start, "end_ns": end}
            for sid, parent, nid, start, end in self.raw
        ]


def _module_layer(module: str) -> str:
    best = OTHER_LAYER
    best_len = -1
    for prefix, layer in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(
            prefix
        ) > best_len:
            best, best_len = layer, len(prefix)
    return best


def _match_methods(cls: type, patterns: tuple[str, ...]) -> list[str]:
    found = []
    for pattern in patterns:
        if pattern.endswith("*"):
            prefix = pattern[:-1]
            found.extend(
                name for name in sorted(dir(cls))
                if name.startswith(prefix) and not name.startswith("_")
                and callable(getattr(cls, name))
            )
        elif hasattr(cls, pattern):
            found.append(pattern)
    return found


def layer_rows(delta: dict, segment_ns: float, outer_ns: float) -> dict:
    """Fold per-name self times into per-layer rows.

    ``segment_ns`` is the traced time of the segments the delta covers.
    Time in no span (``segment_ns`` minus the top-level spans) and time
    in spans of no known layer are both *unattributed*.  Returns
    ``{"share": {layer: fraction}, "calls": {layer: crossings},
    "total_ns": corrected denominator}``; shares sum to 1.
    """
    self_ns: dict[str, float] = {}
    calls: dict[str, int] = {}
    for row in delta["names"].values():
        layer = row["layer"]
        self_ns[layer] = self_ns.get(layer, 0.0) + row["self_ns"]
        calls[layer] = calls.get(layer, 0) + row["calls"]
    outside = max(
        segment_ns - delta["root_ns"] - delta["root_calls"] * outer_ns, 0.0
    )
    unattributed = outside + self_ns.pop(OTHER_LAYER, 0.0)
    unattributed += self_ns.pop("harness", 0.0) + self_ns.pop("metrics", 0.0)
    total = sum(self_ns.values()) + unattributed
    share = {layer: value / total for layer, value in self_ns.items()}
    share["harness.unattributed"] = unattributed / total if total else 0.0
    return {"share": share, "calls": calls, "total_ns": total}
