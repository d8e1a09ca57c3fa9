"""On-disk content-addressed result cache.

Simulations are deterministic functions of their :class:`JobSpec`, so
a finished job's summary can be memoized under the spec's content
hash.  Entries are one JSON file each under a cache directory
(``REPRO_CACHE_DIR`` or ``~/.cache/repro``), keyed by
``sha256(spec_hash · schema_version · simulator_version)`` — bumping
:data:`repro.sim.SIMULATOR_VERSION` therefore invalidates every entry
at once without touching the files.

Only *summaries* are cached (cycles, stall/phase breakdowns, a digest
of the result values) — not the value arrays themselves — which keeps
entries small and makes a cache hit equivalent to a worker round-trip.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.sim import SIMULATOR_VERSION
from repro.sim.stats import KernelStats
from repro.runtime.jobspec import JobSpec, spec_hash

log = logging.getLogger("repro.runtime.cache")

#: Bump when the entry file layout changes (2: per-entry checksum).
SCHEMA_VERSION = 2

#: Subdirectory corrupt entries are moved into instead of deleted.
QUARANTINE_DIR = "quarantine"


def default_cache_dir() -> Path:
    """Resolve the cache directory (env override, else XDG-ish)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def values_digest(values: np.ndarray) -> str:
    """Correctness digest of a result array (order-sensitive)."""
    return hashlib.sha256(
        np.ascontiguousarray(values).tobytes()
    ).hexdigest()


def summary_checksum(summary_dict: Dict[str, Any]) -> str:
    """Integrity checksum stored alongside (and verified against) the
    summary payload of an entry, so bit rot, torn writes and hand
    edits are detected instead of deserialized."""
    raw = json.dumps(summary_dict, sort_keys=True,
                     separators=(",", ":"))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def _parse_entry(data: bytes) -> Tuple[Optional[Dict[str, Any]], str]:
    """An entry file's JSON object and what is wrong with it: ``""``
    when its summary's checksum verifies, else the fault."""
    try:
        entry = json.loads(data)
    except ValueError:
        return None, "undecodable"
    if not isinstance(entry, dict):
        return None, "malformed"
    summary = entry.get("summary")
    if (not isinstance(summary, dict)
            or entry.get("checksum") != summary_checksum(summary)):
        return entry, "checksum"
    return entry, ""


# ----------------------------------------------------------------------
@dataclass
class RunSummary:
    """Picklable summary of one run — what crosses process and cache
    boundaries in place of a full ``RunResult``.

    ``stats`` is a real :class:`KernelStats`, so consumers can keep
    calling ``summary.stats.total_cycles`` / ``stall_breakdown()``
    exactly as they would on a ``RunResult``.
    """

    total_cycles: int
    iterations: int
    stats: KernelStats
    values_digest: str
    from_cache: bool = False
    #: Provenance digest ledger (``REPRO_DIGEST=1`` runs only):
    #: ordered ``[kernel, interval, core, warp, digest, events]``
    #: records — see :mod:`repro.obs.provenance`.  ``None`` (the
    #: default) keeps :meth:`to_dict` byte-identical to summaries
    #: produced before the field existed, so journal/cache schemas and
    #: checksums need no version bump.
    digest_ledger: Optional[Any] = None

    @classmethod
    def from_run_result(cls, result) -> "RunSummary":
        """Summarize a full ``RunResult``."""
        return cls(
            total_cycles=result.stats.total_cycles,
            iterations=result.iterations,
            stats=result.stats,
            values_digest=values_digest(result.values),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form."""
        out = {
            "total_cycles": self.total_cycles,
            "iterations": self.iterations,
            "stats": self.stats.to_summary_dict(),
            "values_digest": self.values_digest,
        }
        if self.digest_ledger is not None:
            out["digest_ledger"] = self.digest_ledger
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  from_cache: bool = False) -> "RunSummary":
        """Inverse of :meth:`to_dict`."""
        return cls(
            total_cycles=int(data["total_cycles"]),
            iterations=int(data["iterations"]),
            stats=KernelStats.from_summary_dict(data["stats"]),
            values_digest=data["values_digest"],
            from_cache=from_cache,
            digest_ledger=data.get("digest_ledger"),
        )


# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed store of :class:`RunSummary` entries.

    Tracks ``hits`` / ``misses`` / ``stores`` / ``evictions`` counters
    for the batch summary ``bench`` and ``batch`` print (:meth:`stats`);
    ``repro cache stats`` prints only what the store on disk holds
    (:meth:`store_stats`).

    A store writes one file.  :meth:`trim` evicts the oldest entries
    (by mtime) beyond ``max_entries``; the batch engine calls it once
    after a batch's last store.

    Corrupt entries self-heal: a file that fails to decode, fails its
    stored checksum, or is structurally wrong is *quarantined* (moved
    to ``<cache>/quarantine/``) and counted as a miss — a bad cache
    file can degrade a batch to a re-simulation, never crash it.
    Entries from an older schema or simulator version are simply
    dropped (expected churn, not corruption).
    """

    def __init__(self, cache_dir=None, max_entries: int = 4096) -> None:
        self.dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.quarantined = 0
        self._warned_quarantine = False

    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (never raises; falls back to
        deletion if the move itself fails)."""
        dest_dir = self.dir / QUARANTINE_DIR
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest_dir / path.name)
        except OSError:
            path.unlink(missing_ok=True)
        self.quarantined += 1
        # Warn once per cache instance; repeats go to debug so a batch
        # over a mangled store does not spam one line per lookup.
        if not self._warned_quarantine:
            self._warned_quarantine = True
            log.warning(
                "quarantined corrupt result-cache entry %s (%s); "
                "treated as a miss — see %s", path.name, reason,
                dest_dir)
        else:
            log.debug("quarantined corrupt result-cache entry %s (%s)",
                      path.name, reason)

    # ------------------------------------------------------------------
    def key(self, spec: JobSpec) -> str:
        """Cache key: spec hash layered with schema + simulator versions."""
        raw = (f"{spec.content_hash()}:schema={SCHEMA_VERSION}"
               f":sim={SIMULATOR_VERSION}")
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, spec: JobSpec) -> Optional[RunSummary]:
        """Look up a memoized summary; ``None`` (and a miss) otherwise.

        Never raises on a bad entry file: undecodable, truncated,
        checksum-failing or structurally wrong entries are quarantined
        and reported as misses; stale-version entries are dropped.
        """
        summary = self._load_entry(self._path(self.key(spec)))
        if summary is None:
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def _load_entry(self, path: Path) -> Optional[RunSummary]:
        """Decode + verify one entry file; quarantine on corruption."""
        try:
            data = path.read_bytes()
        except OSError:
            return None  # raced with eviction, or unreadable: a miss
        entry, fault = _parse_entry(data)
        if entry is not None and (
                entry.get("schema") != SCHEMA_VERSION
                or entry.get("simulator_version") != SIMULATOR_VERSION):
            # Expected churn after a version bump — drop, don't hoard.
            path.unlink(missing_ok=True)
            return None
        if fault:
            self._quarantine(path, fault)
            return None
        try:
            return RunSummary.from_dict(entry["summary"],
                                        from_cache=True)
        except (ValueError, KeyError, TypeError):
            self._quarantine(path, "malformed")
            return None

    def put(self, spec: JobSpec, summary: RunSummary) -> None:
        """Store a summary under the spec's content address."""
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self._path(self.key(spec))
        summary_dict = summary.to_dict()
        entry = {
            "schema": SCHEMA_VERSION,
            "simulator_version": SIMULATOR_VERSION,
            "spec": spec.to_dict(),
            "label": spec.label,
            "summary": summary_dict,
            "checksum": summary_checksum(summary_dict),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(entry, sort_keys=True, indent=1))
        os.replace(tmp, path)
        self.stores += 1

    def trim(self) -> None:
        """Delete the oldest entries beyond ``max_entries``."""
        entries = []
        for path in self.dir.glob("*.json"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:  # raced with another process's eviction
                continue
        entries.sort()
        excess = len(entries) - self.max_entries
        for _mtime, path in entries[:max(0, excess)]:
            path.unlink(missing_ok=True)
            self.evictions += 1

    def stored_runs(self) -> Iterator[Tuple[str, str, Dict[str, Any]]]:
        """``(content hash, label, summary dict)`` of each entry whose
        checksum verifies, from any simulator version, quarantining and
        deleting nothing (``repro diff``'s cache-directory source).  The
        hash comes from the stored spec, else the file name."""
        for path in sorted(self.dir.glob("*.json")):
            try:
                entry, fault = _parse_entry(path.read_bytes())
            except OSError:
                continue
            if fault:
                continue
            spec = entry.get("spec")
            key = spec_hash(spec) if isinstance(spec, dict) else path.stem
            yield key, str(entry.get("label") or key), entry["summary"]

    # ------------------------------------------------------------------
    def entries(self) -> int:
        """Number of entry files currently on disk."""
        if not self.dir.exists():
            return 0
        return sum(1 for _ in self.dir.glob("*.json"))

    def bytes_used(self) -> int:
        """Total size of entry files currently on disk."""
        if not self.dir.exists():
            return 0
        total = 0
        for path in self.dir.glob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def quarantined_entries(self) -> int:
        """Number of files currently sitting in quarantine."""
        dest = self.dir / QUARANTINE_DIR
        if not dest.exists():
            return 0
        return sum(1 for _ in dest.glob("*.json"))

    def store_stats(self) -> Dict[str, Any]:
        """What the store on disk holds, the same from any process
        (``repro cache stats``)."""
        return {
            "dir": str(self.dir),
            "entries": self.entries(),
            "bytes": self.bytes_used(),
            "quarantined_entries": self.quarantined_entries(),
            "max_entries": self.max_entries,
            "schema": SCHEMA_VERSION,
            "simulator_version": SIMULATOR_VERSION,
        }

    def stats(self) -> Dict[str, Any]:
        """The store's stats plus this object's lookup and store
        counters, for the batch summary."""
        return {
            **self.store_stats(),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
        }

    def clear(self) -> int:
        """Delete every entry (and quarantined file); returns how many
        were removed."""
        removed = 0
        if self.dir.exists():
            for path in self.dir.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in (self.dir / QUARANTINE_DIR).glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
