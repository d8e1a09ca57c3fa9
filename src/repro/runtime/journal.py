"""Append-only run journal: what a batch has already finished.

A journal is a JSONL file with one line per completed job — the spec's
content hash plus the full :class:`~repro.runtime.cache.RunSummary`
dict — appended *atomically* (one ``os.write`` on an ``O_APPEND``
descriptor) the moment the job succeeds.  An interrupted run (SIGINT,
crash, OOM-kill) therefore leaves a journal of everything it finished,
and a ``--resume`` rerun restores those summaries without touching the
simulator or even the result cache: zero re-simulation of completed
work.

Because every record is one ``O_APPEND`` write, several handles
appending to one journal interleave whole lines in a total order.
A record may carry a ``type`` field; completions leave it absent (or
``"complete"``), and lines of any other type are counted and skipped.

The journal complements the result cache rather than duplicating it:
the cache is a global content-addressed store with eviction and
versioning; the journal is the durable progress record of *one run*,
valid even when caching is disabled or an entry was torn mid-write.

Journals tolerate their own failure modes: a torn final line (the
writer died mid-append under a pre-atomic writer, or the filesystem
lied) is counted and skipped on load, lines from a different simulator
version are ignored, and :meth:`RunJournal.rotate` compacts duplicate
completions into a fresh file via an atomic ``os.replace``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.runtime.cache import RunSummary
from repro.sim import SIMULATOR_VERSION

#: Bump when the journal line layout changes.
JOURNAL_SCHEMA = 1


def append_jsonl(path, record: Dict[str, Any]) -> None:
    """Append one JSON object as a single atomic ``os.write``.

    POSIX guarantees ``O_APPEND`` writes of modest size are not
    interleaved, and issuing the entire line (payload + newline) in
    one unbuffered syscall means a process killed at any instant
    leaves either the whole line or nothing — never a torn prefix for
    a follower to buffer forever.
    """
    data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


class RunJournal:
    """Durable record of completed jobs, keyed by spec content hash.

    Construct, optionally :meth:`load` an existing file (``--resume``),
    then hand it to a :class:`~repro.runtime.engine.BatchEngine` as
    ``journal=``: the engine skips (status ``"resumed"``) every spec
    whose hash is already journaled and appends each new completion.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._completed: Dict[str, Dict[str, Any]] = {}
        self._appended = 0
        self.bad_lines = 0
        self.stale_lines = 0
        self.unknown_lines = 0

    # ------------------------------------------------------------------
    def load(self) -> int:
        """Read the journal from disk; returns entries restored.

        Torn/garbled lines are counted in :attr:`bad_lines` and
        skipped; lines written by a different simulator version are
        counted in :attr:`stale_lines` and skipped (their results
        would no longer be valid to resume from).  Record kinds this
        reader does not know — written by a newer build sharing the
        journal, or by an older build's fleet and batch deadline — are
        counted in :attr:`unknown_lines` and skipped cleanly rather
        than treated as corruption, so forward-compatible record types
        (provenance digests, say) can ride in any journal without
        stranding older readers.
        """
        self._completed.clear()
        self.bad_lines = 0
        self.stale_lines = 0
        self.unknown_lines = 0
        if not self.path.exists():
            return 0
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("journal lines must be objects")
                if (record.get("schema") != JOURNAL_SCHEMA
                        or record.get("sim") != SIMULATOR_VERSION):
                    self.stale_lines += 1
                    continue
                if record.get("type", "complete") != "complete":
                    self.unknown_lines += 1
                    continue
                self._completed[record["hash"]] = record["summary"]
            except (ValueError, KeyError, TypeError):
                self.bad_lines += 1
        return len(self._completed)

    def reset(self) -> None:
        """Forget everything and truncate the file (fresh run)."""
        self._completed.clear()
        self._appended = 0
        if self.path.exists():
            self.path.unlink()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._completed)

    def __contains__(self, spec) -> bool:
        return spec.content_hash() in self._completed

    def hashes(self):
        """The set of journaled content hashes (for tests and CI)."""
        return set(self._completed)

    def summary_for(self, spec) -> Optional[RunSummary]:
        """The journaled summary for ``spec``, or ``None``."""
        data = self._completed.get(spec.content_hash())
        if data is None:
            return None
        try:
            return RunSummary.from_dict(data, from_cache=True)
        except (ValueError, KeyError, TypeError):
            # A journaled summary that no longer deserializes is as
            # good as absent; the job simply re-runs.
            return None

    def record(self, spec, summary: RunSummary) -> None:
        """Journal one completion (idempotent per content hash)."""
        key = spec.content_hash()
        if key in self._completed:
            return
        data = summary.to_dict()
        self._completed[key] = data
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_jsonl(self.path, {
            "schema": JOURNAL_SCHEMA,
            "sim": SIMULATOR_VERSION,
            "hash": key,
            "label": spec.label,
            "time": round(time.time(), 6),
            "summary": data,
        })
        self._appended += 1

    # ------------------------------------------------------------------
    def rotate(self) -> int:
        """Atomically compact the file to one line per completion.

        Repeated interrupt/resume cycles append duplicate or stale
        lines; rotation rewrites the current in-memory state to a
        sibling temp file and ``os.replace``s it over the journal, so
        a crash mid-rotation leaves the old file intact.  Returns the
        number of lines written.
        """
        if not self._completed:
            self.reset()
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".rotate")
        with tmp.open("w") as handle:
            for key in sorted(self._completed):
                handle.write(json.dumps({
                    "schema": JOURNAL_SCHEMA,
                    "sim": SIMULATOR_VERSION,
                    "hash": key,
                    "time": round(time.time(), 6),
                    "summary": self._completed[key],
                }, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        return len(self._completed)

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for telemetry summaries and the CLI."""
        return {
            "path": str(self.path),
            "entries": len(self._completed),
            "appended": self._appended,
            "bad_lines": self.bad_lines,
            "stale_lines": self.stale_lines,
            "unknown_lines": self.unknown_lines,
        }
