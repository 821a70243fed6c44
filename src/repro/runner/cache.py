"""On-disk result cache for the sweep runner.

Cache entries are keyed by three components:

* the task function's qualified name,
* a canonical token of the config (dataclass ``repr``, which is
  deterministic for the frozen config types used by the sweeps), and
* a **code fingerprint**: a hash over the source files the simulation
  depends on.  Scheme-aware fingerprints
  (:func:`scheme_fingerprint`) hash the shared substrate (simulator, net,
  TCP stacks, workloads, …) plus only the modules implementing that
  scheme, so editing ``core/bcpqp.py`` invalidates cached BC-PQP cells
  while the shaper/policer cells of the same figure stay warm — re-running
  a figure after editing one scheme only re-simulates that scheme.

Values are stored as one checksummed pickle file per key under the cache
root; writes go through a temp file and ``os.replace`` so a crashed run
never leaves a truncated entry behind, and every read verifies a SHA-256
digest over the payload.  An entry that fails verification anyway (torn
write on a crashed filesystem, bit rot, a concurrent writer from an
incompatible version) is **quarantined** — moved to
``<root>/quarantine/`` for post-mortem inspection — and reported as a
miss, so a corrupt cache degrades a sweep to recomputation instead of
aborting it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from functools import lru_cache
from pathlib import Path
from typing import Any

import repro

_SRC_ROOT = Path(repro.__file__).resolve().parent

#: Source the outcome of *every* simulation depends on.  Directories are
#: hashed recursively.
_SHARED_SOURCES: tuple[str, ...] = (
    "sim",
    "net",
    "cc",
    "policy",
    "classify",
    "sched",
    "workload",
    "metrics",
    "units.py",
    "scenario.py",
    "wiring.py",
    "schemes.py",
    "limiters/base.py",
    "limiters/costs.py",
    "runner/aggregate.py",
)

#: The phantom set and every drain engine ``phantom_service`` can select.
_PHANTOM_SOURCES: tuple[str, ...] = (
    "core/phantom.py",
    "core/gps.py",
    "core/quantum.py",
    "validate/reference.py",
    "core/sizing.py",
)

#: Additional per-scheme sources (relative to the ``repro`` package root).
_SCHEME_SOURCES: dict[str, tuple[str, ...]] = {
    "shaper": ("limiters/shaper.py",),
    "shaper-fifo": ("limiters/shaper.py",),
    "policer": ("limiters/token_bucket.py",),
    "policer+": ("limiters/token_bucket.py",),
    "fairpolicer": ("limiters/fair_policer.py",),
    "pqp": ("core/pqp.py",) + _PHANTOM_SOURCES,
    "bcpqp": ("core/bcpqp.py", "core/pqp.py") + _PHANTOM_SOURCES,
}


def _hash_sources_at(relative_paths: tuple[str, ...], src_root: Path) -> str:
    """Uncached fingerprint of ``relative_paths`` under ``src_root``.

    Exposed (with an explicit root) so tests can prove the fingerprint
    tracks file *bytes* without mutating the installed package.
    """
    digest = hashlib.sha256()
    for rel in relative_paths:
        path = src_root / rel
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            digest.update(str(file.relative_to(src_root)).encode())
            try:
                digest.update(file.read_bytes())
            except OSError:
                digest.update(b"<missing>")
    return digest.hexdigest()


@lru_cache(maxsize=None)
def _hash_sources(relative_paths: tuple[str, ...]) -> str:
    # Source bytes are immutable for the life of a process run, so the
    # default-root fingerprint memoizes; explicit-root hashing never does.
    return _hash_sources_at(relative_paths, _SRC_ROOT)


def scheme_fingerprint(
    scheme: str, validate: bool = False, churn: bool = False
) -> str:
    """Code fingerprint for one enforcement scheme's simulation outcome.

    ``validate=True`` folds the invariant-checker sources into the hash:
    validated runs produce byte-identical outcomes (the checker is a pure
    observer), but a checker edit must still invalidate *validated* cache
    entries — while never touching the unvalidated ones, so enabling
    validation can't poison cached sweep results either way.
    ``churn=True`` gets the same treatment for live-reconfiguration runs:
    it folds ``churn.py`` in, so an edit to the churn machinery
    invalidates exactly the cached cells whose outcome a churn plan
    shaped — churn-free sweeps stay warm.
    """
    extra = _SCHEME_SOURCES.get(scheme)
    if extra is None:
        # Unknown scheme: be conservative and hash every limiter/core file.
        extra = ("limiters", "core")
    if validate:
        extra = extra + ("validate",)
    if churn:
        extra = extra + ("churn.py",)
    return _hash_sources(_SHARED_SOURCES + extra)


def fleet_fingerprint(
    scheme: str, validate: bool = False, churn: bool = False
) -> str:
    """Code fingerprint for one fleet *shard*'s simulation outcome.

    A shard result depends on everything a single-aggregate cell does for
    its scheme, plus the fleet layer itself (plan derivation, columnar
    recorder, shard wiring) and the middlebox that routes aggregates —
    so an edit to ``fleet/`` invalidates cached shard summaries while
    per-figure aggregate cells stay warm.  ``churn=True`` mirrors
    :func:`scheme_fingerprint`'s treatment for fleets with live
    reconfiguration plans.
    """
    extra = _SCHEME_SOURCES.get(scheme)
    if extra is None:
        extra = ("limiters", "core")
    extra = extra + ("fleet", "net/middlebox.py")
    if validate:
        extra = extra + ("validate",)
    if churn:
        extra = extra + ("churn.py",)
    return _hash_sources(_SHARED_SOURCES + extra)


def package_fingerprint() -> str:
    """Fingerprint over the whole ``repro`` package (safe default)."""
    return _hash_sources((".",))


# -- checksummed pickle store (shared by the cache and the journal) -----

#: Entry header: format magic, then the payload digest, then the payload.
_PICKLE_MAGIC = b"repro-pickle/1\n"


class CorruptEntry(Exception):
    """A stored pickle failed verification (truncated, garbled, or an
    unreadable payload)."""


def write_checksummed_pickle(path: Path, value: Any) -> None:
    """Atomically write ``value`` as a digest-protected pickle."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode()
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with tmp.open("wb") as fh:
        fh.write(_PICKLE_MAGIC + digest + b"\n" + payload)
    os.replace(tmp, path)


def read_checksummed_pickle(path: Path) -> Any:
    """Load a digest-protected pickle; raises :class:`CorruptEntry` on any
    mismatch (including entries written by pre-checksum versions)."""
    with path.open("rb") as fh:
        blob = fh.read()
    if not blob.startswith(_PICKLE_MAGIC):
        raise CorruptEntry(f"{path}: missing {_PICKLE_MAGIC!r} header")
    body = blob[len(_PICKLE_MAGIC):]
    digest, sep, payload = body.partition(b"\n")
    if not sep:
        raise CorruptEntry(f"{path}: truncated before payload")
    if hashlib.sha256(payload).hexdigest().encode() != digest:
        raise CorruptEntry(f"{path}: payload digest mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        # A valid digest but an unreadable payload means the entry was
        # written by an incompatible code version; same remedy either way.
        raise CorruptEntry(f"{path}: unpicklable payload ({exc})") from exc


class ResultCache:
    """A directory of checksummed pickled task results, keyed by config
    hash.  Entries that fail verification are quarantined and count as
    misses (see the module docstring)."""

    _MISS = object()

    #: Subdirectory corrupt entries are moved to (never globbed by reads).
    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    @staticmethod
    def key(task_name: str, config: Any, fingerprint: str) -> str:
        """Stable cache key for ``task_name`` applied to ``config``."""
        token = f"{task_name}\x00{config!r}\x00{fingerprint}"
        return hashlib.sha256(token.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside for post-mortem inspection."""
        target_dir = self.root / self.QUARANTINE_DIR
        try:
            target_dir.mkdir(exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            # Quarantine is best-effort; an undeletable corrupt entry
            # still reads as a miss on every load.
            pass

    def load(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; ``value`` is ``None`` on a miss.

        Corrupt/truncated entries are quarantined and counted in
        ``self.corrupt`` (they are misses, never raised).
        """
        path = self._path(key)
        try:
            value = read_checksummed_pickle(path)
        except CorruptEntry:
            self.corrupt += 1
            self.misses += 1
            self._quarantine(path)
            return False, None
        except OSError:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def store(self, key: str, value: Any) -> None:
        """Persist ``value`` under ``key`` (atomic rename, checksummed)."""
        write_checksummed_pickle(self._path(key), value)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
