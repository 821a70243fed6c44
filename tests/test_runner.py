"""Tests for the sweep runner: pool fan-out, determinism, result cache."""

import sys

import pytest

from repro.experiments import fig4_rate_enforcement
from repro.runner import (
    AggregateConfig,
    ResultCache,
    package_fingerprint,
    run_tasks,
    scheme_fingerprint,
    simulate_aggregate,
)
from repro.units import mbps, ms
from repro.workload.aggregates import Section61Config
from repro.workload.spec import FlowSpec


def _tiny_config(scheme="bcpqp", seed=1, rate=mbps(5)):
    return AggregateConfig(
        scheme=scheme,
        specs=(FlowSpec(slot=0, cc="reno", rtt=ms(20)),
               FlowSpec(slot=1, cc="cubic", rtt=ms(30))),
        rate=rate,
        max_rtt=ms(30),
        horizon=2.0,
        warmup=0.5,
        seed=seed,
    )


def _tiny_fig4_grid():
    """A 2-scheme x 2-aggregate corner of the Figure 4 sweep."""
    config = fig4_rate_enforcement.Config(
        workload=Section61Config(
            num_aggregates=2,
            rates=(mbps(5),),
            flows_per_aggregate=2,
            horizon=2.0,
            seed=7,
        ),
        warmup=0.5,
        schemes=("policer", "bcpqp"),
    )
    return fig4_rate_enforcement.grid(config)


def _square(x):
    return x * x


def _simulate_listing_validate(config):
    """Spawn-worker body: the outcome, plus whatever of ``repro.validate``
    the fresh interpreter ended up importing to produce it."""
    outcome = simulate_aggregate(config)
    return outcome, [m for m in sys.modules if m.startswith("repro.validate")]


def _outcome_key(outcome):
    """Every numeric field that the figure tables are derived from."""
    return (
        outcome.scheme,
        outcome.drop_rate,
        outcome.cycles_per_packet,
        outcome.arrived_packets,
        outcome.bottleneck_drops,
        tuple(outcome.aggregate_series.times),
        tuple(outcome.aggregate_series.values),
        tuple(
            (slot, tuple(s.times), tuple(s.values))
            for slot, s in sorted(outcome.slot_series.items())
        ),
        outcome.flow_records,
    )


class TestRunTasks:
    def test_preserves_input_order(self):
        assert run_tasks(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_matches_serial_trivially(self):
        xs = list(range(20))
        assert run_tasks(_square, xs, jobs=2) == run_tasks(_square, xs)

    def test_serial_jobs_values_do_not_touch_multiprocessing(self):
        for jobs in (None, 0, 1):
            assert run_tasks(_square, [5], jobs=jobs) == [25]

    def test_keyboard_interrupt_terminates_pool_children(self, monkeypatch):
        # Ctrl-C during a parallel sweep must not leave worker processes
        # alive behind the re-raised KeyboardInterrupt.
        from repro.runner import pool as pool_module

        events = []

        class FakePool:
            def map(self, fn, todo, chunksize=1):
                raise KeyboardInterrupt

            def terminate(self):
                events.append("terminate")

            def close(self):
                events.append("close")

            def join(self):
                events.append("join")

        class FakeContext:
            def Pool(self, processes):
                events.append(f"pool({processes})")
                return FakePool()

        monkeypatch.setattr(
            pool_module, "_pool_context", lambda method=None: FakeContext()
        )
        with pytest.raises(KeyboardInterrupt):
            run_tasks(_square, [1, 2, 3], jobs=2)
        assert events == ["pool(2)", "terminate", "join"]


class TestDefaultJobs:
    def test_valid_env_value_wins(self, monkeypatch):
        from repro.runner.pool import JOBS_ENV, default_jobs

        monkeypatch.setenv(JOBS_ENV, "3")
        assert default_jobs() == 3

    def test_invalid_env_value_warns_and_names_it(self, monkeypatch):
        from repro.runner.pool import JOBS_ENV, default_jobs

        monkeypatch.setenv(JOBS_ENV, "banana")
        with pytest.warns(RuntimeWarning, match="banana"):
            jobs = default_jobs()
        assert jobs >= 1  # fell back to the CPU count

    def test_caps_at_scheduler_affinity_not_cpu_count(self, monkeypatch):
        # In a cgroup/container the affinity mask is the real budget;
        # cpu_count() can be much larger and would oversubscribe.
        import os

        from repro.runner.pool import JOBS_ENV, default_jobs

        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_jobs() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        import os

        from repro.runner.pool import JOBS_ENV, default_jobs

        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert default_jobs() == 7


class TestDeterminism:
    def test_same_config_bit_identical_across_runs(self):
        a = simulate_aggregate(_tiny_config())
        b = simulate_aggregate(_tiny_config())
        assert _outcome_key(a) == _outcome_key(b)

    def test_parallel_and_serial_fig4_grids_identical(self):
        # Satellite of the runner PR: `--jobs N` and the serial fallback
        # must produce identical AggregateOutcome numbers for the same
        # grid, so figure tables are byte-for-byte reproducible.
        grid = _tiny_fig4_grid()
        serial = run_tasks(simulate_aggregate, grid)
        parallel = run_tasks(simulate_aggregate, grid, jobs=2)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert _outcome_key(s) == _outcome_key(p)

    def test_spawn_context_grid_identical_to_serial(self):
        # Spawn workers re-import the package instead of inheriting the
        # parent's memory; cell results must not depend on that.
        grid = _tiny_fig4_grid()
        serial = run_tasks(simulate_aggregate, grid)
        spawned = run_tasks(
            _simulate_listing_validate, grid, jobs=2, start_method="spawn"
        )
        assert len(spawned) == len(serial)
        for s, (p, validate_modules) in zip(serial, spawned):
            assert _outcome_key(s) == _outcome_key(p)
            # A default run loads neither the checker nor the reference
            # drain (``service="fluid-ref"`` imports it on demand).
            assert validate_modules == []


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _tiny_config()
        first = run_tasks(simulate_aggregate, [config], cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        second = run_tasks(simulate_aggregate, [config], cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert _outcome_key(first[0]) == _outcome_key(second[0])

    def test_stored_under_the_documented_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_tasks(
            simulate_aggregate,
            [_tiny_config()],
            cache=cache,
            fingerprint=AggregateConfig.code_fingerprint,
        )
        key = cache.key(
            "repro.runner.aggregate:simulate_aggregate",
            _tiny_config(),
            _tiny_config().code_fingerprint(),
        )
        hit, _ = cache.load(key)
        assert hit

    def test_different_configs_get_different_keys(self):
        fp = package_fingerprint()
        k1 = ResultCache.key("t", _tiny_config(seed=1), fp)
        k2 = ResultCache.key("t", _tiny_config(seed=2), fp)
        k3 = ResultCache.key("t", _tiny_config(rate=mbps(6)), fp)
        assert len({k1, k2, k3}) == 3

    def test_key_is_stable_for_equal_configs(self):
        fp = scheme_fingerprint("bcpqp")
        assert ResultCache.key("t", _tiny_config(), fp) == \
            ResultCache.key("t", _tiny_config(), fp)

    def test_scheme_fingerprints_isolate_schemes(self):
        # Editing BC-PQP code must not invalidate policer cells: their
        # fingerprints are computed over different source sets.
        assert scheme_fingerprint("bcpqp") != scheme_fingerprint("policer")
        assert scheme_fingerprint("bcpqp") == scheme_fingerprint("bcpqp")

    @pytest.mark.parametrize("scheme", ["bcpqp", "policer"])
    def test_validated_fingerprint_is_distinct(self, scheme):
        # Validated runs hash the checker sources on top of the scheme's:
        # a checker edit invalidates validated cells only, and enabling
        # validation can never reuse (or poison) an unvalidated entry.
        assert scheme_fingerprint(scheme, validate=True) != \
            scheme_fingerprint(scheme)
        assert scheme_fingerprint(scheme, validate=True) == \
            scheme_fingerprint(scheme, validate=True)

    def test_validate_flag_separates_cache_keys(self):
        # Belt and braces: even under an identical fingerprint, the
        # ``validate`` field participates in the config repr and thus in
        # the cache key.
        from dataclasses import replace

        fp = package_fingerprint()
        config = _tiny_config()
        validated = replace(config, validate=True)
        assert validated.code_fingerprint() != config.code_fingerprint()
        assert ResultCache.key("t", config, fp) != \
            ResultCache.key("t", validated, fp)

    @pytest.mark.parametrize("scheme", ["pqp", "bcpqp"])
    def test_phantom_fingerprints_cover_drain_sources(self, scheme):
        # A drain rewrite must provably invalidate cached PQP/BC-PQP sweep
        # cells: the phantom counter module, the policer hot path, and both
        # drain engines have to be in the hashed source set.
        from repro.runner.cache import _SCHEME_SOURCES

        sources = _SCHEME_SOURCES[scheme]
        required = (
            "core/phantom.py", "core/pqp.py", "core/gps.py",
            "validate/reference.py",
        )
        for rel in required:
            assert rel in sources, f"{scheme} fingerprint misses {rel}"

    @pytest.mark.parametrize("rel", ["core/phantom.py", "core/pqp.py"])
    def test_fingerprint_tracks_source_bytes(self, tmp_path, rel):
        # Behavioral check: changing one byte of a covered file changes
        # the hash (exercised on a scratch tree, not the installed pkg).
        from repro.runner.cache import _SCHEME_SOURCES, _hash_sources_at

        sources = _SCHEME_SOURCES["pqp"]
        assert rel in sources
        for r in sources:
            target = tmp_path / r
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(f"# stub for {r}\n")
        before = _hash_sources_at(sources, tmp_path)
        (tmp_path / rel).write_text("# rewritten drain\n")
        assert _hash_sources_at(sources, tmp_path) != before

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("abc", {"x": 1})
        assert cache.clear() == 1
        hit, _ = cache.load("abc")
        assert not hit

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("abc", [1, 2, 3])
        (tmp_path / "abc.pkl").write_bytes(b"not a pickle")
        hit, value = cache.load("abc")
        assert not hit and value is None


class TestConfigRepr:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("scheme", "bcpqpp"),
            ("phantom_service", "fluid_ref"),
            # A cell recorded while the quantum drain existed.
            ("phantom_service", "quantum"),
        ],
    )
    def test_unknown_scheme_or_service_rejected_at_construction(
        self, field, value
    ):
        # A misspelt cell must fail where it is written, naming the field,
        # the value and the legal set - not later inside a worker, where
        # the supervisor would retry it like a transient fault.
        from dataclasses import replace

        from repro.core.phantom import PhantomQueueSet
        from repro.schemes import SCHEMES

        legal = SCHEMES if field == "scheme" else PhantomQueueSet.SERVICES
        with pytest.raises(ValueError) as excinfo:
            replace(_tiny_config(), **{field: value})
        message = str(excinfo.value)
        assert field in message and repr(value) in message
        assert str(legal) in message

    @pytest.mark.parametrize(
        "field,value",
        [
            # NaN first: `time > nan` is never true, so before the guard
            # a NaN horizon ran the event loop for ever.
            ("horizon", float("nan")),
            ("horizon", float("inf")),
            ("warmup", float("nan")),
            ("window", float("nan")),
            ("window", 0.0),
            ("warmup", 2.0),  # == horizon: nothing left to measure
            ("specs", ()),
        ],
    )
    def test_unmeasurable_cell_rejected_at_construction(self, field, value):
        # Each of these used to surface only after the whole simulation
        # had run (or never), from `measure` or a bare `max()`.
        from dataclasses import replace

        with pytest.raises(ValueError) as excinfo:
            replace(_tiny_config(), **{field: value})
        message = str(excinfo.value)
        assert field in message and repr(value) in message

    @pytest.mark.parametrize(
        "field,value",
        [
            ("window", 0.0),
            ("window", -0.25),
            ("window", float("nan")),
            ("warmup", 2.0),  # == horizon
            ("warmup", float("nan")),
            ("horizon", float("nan")),
        ],
    )
    def test_unmeasurable_scenario_rejected_at_construction(
        self, field, value
    ):
        # The scenario sizes its bins when it is built, so a hand-wired
        # run (no AggregateConfig in front) fails as early and as typed.
        import random

        from repro.scenario import AggregateScenario
        from repro.schemes import make_limiter
        from repro.sim.simulator import Simulator

        sim = Simulator()
        limiter = make_limiter(sim, "policer", rate=mbps(5), num_queues=1,
                               max_rtt=ms(20))
        interval = {"horizon": 2.0, "warmup": 0.5, "window": 0.25}
        interval[field] = value
        with pytest.raises(ValueError) as excinfo:
            AggregateScenario(sim, limiter=limiter, specs=[FlowSpec(slot=0)],
                              rng=random.Random(1), **interval)
        message = str(excinfo.value)
        assert field in message and repr(value) in message

    def test_repr_has_no_memory_addresses(self):
        # The cache key hashes repr(config); an object default-repr like
        # <Policy at 0x7f...> would silently break cross-run caching.
        from repro.policy.tree import Policy

        config = AggregateConfig(
            scheme="bcpqp",
            specs=(FlowSpec(slot=0, cc="reno", rtt=ms(20)),),
            rate=mbps(5),
            max_rtt=ms(20),
            horizon=1.0,
            warmup=0.0,
            policy=Policy.fair(2),
        )
        assert "0x" not in repr(config)

    def test_list_inputs_coerce_to_tuples(self):
        config = AggregateConfig(
            scheme="pqp",
            specs=[FlowSpec(slot=0, cc="reno", rtt=ms(20))],
            rate=mbps(5),
            max_rtt=ms(20),
            horizon=1.0,
            warmup=0.0,
            weights=[1.0, 2.0],
        )
        assert isinstance(config.specs, tuple)
        assert isinstance(config.weights, tuple)
        assert repr(config) == repr(config)


class TestPicklability:
    def test_config_and_outcome_round_trip(self):
        import pickle

        config = _tiny_config()
        assert pickle.loads(pickle.dumps(config)) == config
        outcome = simulate_aggregate(config)
        clone = pickle.loads(pickle.dumps(outcome))
        assert _outcome_key(clone) == _outcome_key(outcome)
