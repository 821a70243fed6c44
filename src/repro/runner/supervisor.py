"""Supervised sweep execution: crash isolation, timeouts, retries,
backoff, circuit-breaker degradation, and journaled resume.

The plain pool (:func:`repro.runner.pool.run_tasks`) maps cells over a
``multiprocessing.Pool`` — fast, but a single SIGKILL'd worker (OOM), a
hung simulation, or a transient exception aborts the whole sweep.  The
supervisor runs **one disposable worker process per cell attempt** and
owns the full failure lifecycle:

* **Crash isolation** — a worker that dies without reporting (SIGKILL,
  segfault, OOM kill) loses only its own cell; the supervisor observes
  the closed result pipe / exit code and reschedules the cell.
* **Timeouts** — ``task_timeout`` bounds each attempt's wall clock; a
  hung worker is SIGKILLed and the cell rescheduled.
* **Retry with backoff + jitter** — failed cells retry up to
  ``RetryPolicy.retries`` times with exponential backoff and
  deterministic per-(cell, attempt) jitter, so retry storms decorrelate
  but every run of the same sweep sleeps the same schedule.
* **Circuit breaker + graceful degradation** — a run of consecutive
  *infrastructure* failures (crashes/timeouts, not clean exceptions)
  with no intervening success trips the breaker: instead of aborting,
  the supervisor halves its worker budget (parallel → reduced workers →
  serial, i.e. one isolated worker at a time) and keeps going.
* **Write-ahead journal** — with a :class:`~repro.runner.journal.SweepJournal`
  attached, every completed cell is durably recorded before the sweep
  advances; a resumed sweep replays completed cells from the journal and
  computes only the missing ones, reproducing uninterrupted output byte
  for byte.

Results are keyed by input index and every cell derives its randomness
from its own config, so supervised, plain-pool and serial execution all
produce identical results — the supervisor changes *availability*, never
*values* (pinned by ``tests/test_chaos.py``).

Per-cell permanent failures (retry budget exhausted) do not abort the
sweep unless ``fail_fast=True``: the remaining cells complete (and are
journaled), then the failures are reported in the returned
:class:`SweepReport`.  Callers that need every cell (figure tables)
raise :class:`SweepError` on a non-empty failure list — by then all
salvageable work is already journaled.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.runner.cache import ResultCache, package_fingerprint
from repro.runner.faults import FaultPlan
from repro.runner.journal import SweepJournal

C = TypeVar("C")
R = TypeVar("R")

__all__ = [
    "CellFailure",
    "RetryPolicy",
    "SweepError",
    "SweepReport",
    "SweepStats",
    "run_supervised",
    "reset_session_stats",
    "session_stats",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/breaker knobs for one supervised sweep."""

    #: Additional attempts after the first failure (0 = no retries).
    retries: int = 2
    #: First retry delay, seconds (0 disables backoff sleeping).
    backoff_base: float = 0.5
    #: Exponential growth per attempt.
    backoff_factor: float = 2.0
    #: Backoff ceiling, seconds.
    backoff_max: float = 30.0
    #: Jitter fraction: the delay is scaled by ``1 + jitter * u`` with
    #: ``u`` drawn deterministically per (cell, attempt).
    jitter: float = 0.1
    #: Seed for the jitter draws (same seed → same retry schedule).
    seed: int = 0
    #: Consecutive crash/timeout failures (no success in between) that
    #: trip the circuit breaker and halve the worker budget.
    breaker_threshold: int = 5

    def __post_init__(self) -> None:
        backoff = (self.backoff_base, self.backoff_factor, self.backoff_max,
                   self.jitter)
        if self.retries < 0 or not all(0.0 <= v < math.inf for v in backoff):
            raise ValueError(f"negative retries or a negative or non-finite "
                             f"backoff value: {self!r}")

    def delay(self, index: int, attempt: int) -> float:
        """Backoff before retrying ``index`` after failed ``attempt``."""
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** attempt,
        )
        if base <= 0.0:
            return 0.0
        # Tuple-of-ints hashing is deterministic across processes and
        # runs (no string hash randomization involved).
        rng = random.Random(hash((self.seed, index, attempt)))
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class CellFailure:
    """One cell that exhausted its retry budget."""

    index: int
    kind: str  #: ``"crash"`` | ``"timeout"`` | ``"error"``
    detail: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"cell {self.index}: {self.kind} after {self.attempts} "
            f"attempt(s): {self.detail}"
        )


@dataclass
class SweepStats:
    """Fault accounting for one supervised sweep."""

    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    errors: int = 0
    failed_cells: int = 0
    replayed: int = 0
    cache_hits: int = 0
    degradations: list[str] = field(default_factory=list)


@dataclass
class SweepReport:
    """Everything a supervised sweep produced."""

    #: Input-ordered results; ``None`` for permanently failed cells.
    results: list[Any]
    failures: list[CellFailure]
    stats: SweepStats

    @property
    def ok(self) -> bool:
        return not self.failures


class SweepError(RuntimeError):
    """A sweep finished (or fail-fast aborted) with failed cells."""

    def __init__(self, report: SweepReport) -> None:
        self.report = report
        lines = [f"{len(report.failures)} sweep cell(s) failed permanently:"]
        lines += [f"  {failure}" for failure in report.failures]
        super().__init__("\n".join(lines))


#: Process-wide fault accounting, accumulated across every supervised
#: sweep in this session (surfaced by ``python -m repro.experiments``).
_SESSION = SweepStats()


def session_stats() -> dict[str, int]:
    """Snapshot of the session-wide supervised-sweep fault counters."""
    return {
        "retries": _SESSION.retries,
        "crashes": _SESSION.crashes,
        "timeouts": _SESSION.timeouts,
        "errors": _SESSION.errors,
        "failed_cells": _SESSION.failed_cells,
        "replayed": _SESSION.replayed,
        "degradations": len(_SESSION.degradations),
    }


def reset_session_stats() -> None:
    global _SESSION
    _SESSION = SweepStats()


def non_negative_int(text: str) -> int:
    """A ``--jobs`` or ``--retries`` count: an int of at least 0."""
    if (value := int(text)) < 0:
        raise ValueError(f"expected an int >= 0, got {text!r}")
    return value


def positive_seconds(value: str | float) -> float:
    """A ``task_timeout`` / ``--task-timeout``: finite seconds above 0."""
    if not 0.0 < (seconds := float(value)) < math.inf:
        raise ValueError(
            f"task timeout must be finite seconds above 0, got {value!r}")
    return seconds


def _absorb_session(stats: SweepStats) -> None:
    _SESSION.retries += stats.retries
    _SESSION.crashes += stats.crashes
    _SESSION.timeouts += stats.timeouts
    _SESSION.errors += stats.errors
    _SESSION.failed_cells += stats.failed_cells
    _SESSION.replayed += stats.replayed
    _SESSION.cache_hits += stats.cache_hits
    _SESSION.degradations.extend(stats.degradations)


def _supervised_worker(conn, fn, config, index, attempt, fault_plan) -> None:
    """Child entry: run one cell attempt, report through the pipe.

    Top-level (picklable) so spawn contexts work.  Any outcome other
    than a message on the pipe — including the process dying before
    sending — is read by the supervisor as a crash.
    """
    try:
        if fault_plan is not None:
            fault_plan.apply(index, attempt)
        result = fn(config)
    except BaseException as exc:  # report, never escape: the pipe IS the API
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", result))
    except Exception as exc:
        try:
            conn.send(("error", f"unpicklable result: {exc}"))
        except Exception:
            pass
    conn.close()


@dataclass
class _Inflight:
    index: int
    attempt: int
    process: Any
    conn: Any
    deadline: float | None


def run_supervised(
    fn: Callable[[C], R],
    configs: Iterable[C],
    *,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
    task_timeout: float | None = None,
    fail_fast: bool = False,
    journal: SweepJournal | None = None,
    cache: ResultCache | None = None,
    fingerprint: str | Callable[[C], str] | None = None,
    fault_plan: FaultPlan | None = None,
    start_method: str | None = None,
) -> SweepReport:
    """Map ``fn`` over ``configs`` under full supervision (module doc).

    Returns a :class:`SweepReport`; raises :class:`SweepError` only in
    ``fail_fast`` mode (first permanent cell failure aborts the sweep,
    after journaling everything already complete), and ``ValueError``
    before any worker starts unless ``task_timeout`` is ``None`` or
    finite seconds above 0.
    """
    from repro.runner.pool import _pool_context, _task_name

    if task_timeout is not None:
        positive_seconds(task_timeout)
    policy = policy or RetryPolicy()
    config_list = list(configs)
    total = len(config_list)
    results: list[Any] = [None] * total
    done = [False] * total
    stats = SweepStats()
    failures: list[CellFailure] = []
    task_name = _task_name(fn)

    if journal is not None:
        journal.bind(task_name, [repr(config) for config in config_list])
        for index, value in journal.results.items():
            results[index] = value
            done[index] = True
        stats.replayed = journal.replayed

    keys: dict[int, str] = {}
    if cache is not None:
        for index in range(total):
            if done[index]:
                continue
            if callable(fingerprint):
                fp = fingerprint(config_list[index])
            else:
                fp = fingerprint or package_fingerprint()
            key = cache.key(task_name, config_list[index], fp)
            keys[index] = key
            hit, value = cache.load(key)
            if hit:
                results[index] = value
                done[index] = True
                stats.cache_hits += 1
                if journal is not None:
                    journal.record_done(index, value, attempts=0)

    pending: deque[tuple[int, int]] = deque(
        (index, 0) for index in range(total) if not done[index]
    )
    retry_heap: list[tuple[float, int, int]] = []  # (ready_at, index, attempt)
    inflight: dict[Any, _Inflight] = {}
    max_workers = max(1, jobs) if jobs else 1
    consecutive_bad = 0
    aborted = False
    ctx = _pool_context(start_method)

    def launch(index: int, attempt: int) -> None:
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_supervised_worker,
            args=(send, fn, config_list[index], index, attempt, fault_plan),
            daemon=True,
        )
        process.start()
        send.close()  # child holds the only writer; EOF == child death
        deadline = (
            time.monotonic() + task_timeout if task_timeout else None
        )
        inflight[recv] = _Inflight(index, attempt, process, recv, deadline)

    def reap(run: _Inflight, *, kill: bool = False) -> None:
        if kill:
            run.process.kill()
        run.process.join(timeout=5.0)
        if run.process.is_alive():  # pragma: no cover - last resort
            run.process.kill()
            run.process.join(timeout=5.0)
        run.conn.close()

    def degrade_if_tripped() -> None:
        nonlocal max_workers, consecutive_bad
        if consecutive_bad >= policy.breaker_threshold and max_workers > 1:
            new_workers = max(1, max_workers // 2)
            stage = "serial" if new_workers == 1 else "reduced workers"
            stats.degradations.append(
                f"circuit breaker: {consecutive_bad} consecutive "
                f"crash/timeout failures; workers {max_workers} -> "
                f"{new_workers} ({stage})"
            )
            max_workers = new_workers
            consecutive_bad = 0

    def on_success(run: _Inflight, value: Any) -> None:
        nonlocal consecutive_bad
        results[run.index] = value
        done[run.index] = True
        consecutive_bad = 0
        if cache is not None and run.index in keys:
            cache.store(keys[run.index], value)
        if journal is not None:
            journal.record_done(run.index, value, attempts=run.attempt + 1)

    def on_failure(run: _Inflight, kind: str, detail: str) -> None:
        nonlocal consecutive_bad, aborted
        if kind == "crash":
            stats.crashes += 1
        elif kind == "timeout":
            stats.timeouts += 1
        else:
            stats.errors += 1
        if journal is not None:
            journal.record_event(kind, run.index, run.attempt, detail)
        if kind in ("crash", "timeout"):
            consecutive_bad += 1
            degrade_if_tripped()
        if run.attempt < policy.retries:
            stats.retries += 1
            ready_at = time.monotonic() + policy.delay(run.index, run.attempt)
            heapq.heappush(retry_heap, (ready_at, run.index, run.attempt + 1))
        else:
            failures.append(
                CellFailure(run.index, kind, detail, attempts=run.attempt + 1)
            )
            stats.failed_cells += 1
            if fail_fast:
                aborted = True

    try:
        while (pending or retry_heap or inflight) and not aborted:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, index, attempt = heapq.heappop(retry_heap)
                pending.append((index, attempt))
            while pending and len(inflight) < max_workers:
                index, attempt = pending.popleft()
                launch(index, attempt)
            if not inflight:
                if retry_heap:  # backoff gap: sleep until the next retry
                    time.sleep(max(0.0, retry_heap[0][0] - time.monotonic()))
                continue

            timeout = None
            deadlines = [
                run.deadline for run in inflight.values()
                if run.deadline is not None
            ]
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
            if retry_heap:
                gap = max(0.0, retry_heap[0][0] - time.monotonic())
                timeout = gap if timeout is None else min(timeout, gap)
            ready = _connection_wait(list(inflight), timeout=timeout)

            for conn in ready:
                run = inflight.pop(conn)
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    reap(run)
                    code = run.process.exitcode
                    on_failure(
                        run, "crash",
                        f"worker died without reporting (exit code {code})",
                    )
                    continue
                reap(run)
                if kind == "ok":
                    on_success(run, payload)
                else:
                    on_failure(run, "error", payload)

            now = time.monotonic()
            for conn, run in list(inflight.items()):
                if run.deadline is not None and now >= run.deadline:
                    del inflight[conn]
                    reap(run, kill=True)
                    on_failure(
                        run, "timeout",
                        f"exceeded task timeout of {task_timeout} s",
                    )
    finally:
        for run in inflight.values():
            reap(run, kill=True)
        inflight.clear()
        if journal is not None:
            journal.close()
        _absorb_session(stats)

    report = SweepReport(results=results, failures=failures, stats=stats)
    if aborted:
        raise SweepError(report)
    return report
