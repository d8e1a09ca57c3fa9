"""Append-only run journal: the batch's one per-job record.

A journal is a JSONL file.  Each :meth:`BatchEngine.run
<repro.runtime.engine.BatchEngine.run>` appends one ``batch`` header
line announcing its job count, then one line per job the moment the
job ends: its status (``ok``, ``cached``, ``failed`` or ``skipped``),
content hash, label, time, wall seconds measured in the process that
ran it, simulator engine, and the full
:class:`~repro.runtime.cache.RunSummary` dict (``ok``/``cached``) or
the error (``failed``/``skipped``).  The engine name and wall time sit
outside ``summary``, so the payload stays engine-blind.

:func:`read_journal` is the one reader: ``repro tail`` folds its lines
and ``repro diff`` reads the digest ledgers of a ``REPRO_DIGEST=1`` run
from their summaries.  Schema-1 journals (one line per finished or
cached job, no header, no status) still load: ``tail`` counts each
line as a done job.  The result cache, not the journal, is what lets an
interrupted batch continue: a rerun against the same cache simulates
nothing that finished.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.errors import ReproError
from repro.sim import SIMULATOR_VERSION
from repro.sim.engines import resolve_engine_name

#: Bump when the journal line layout changes (2: batch header, one
#: line per ended job with its status, wall time and engine).
JOURNAL_SCHEMA = 2

#: The statuses a job line can carry.
STATUSES = ("ok", "cached", "failed", "skipped")


def append_jsonl(path, record: Dict[str, Any]) -> None:
    """Append one JSON object as a single atomic ``os.write``.

    POSIX guarantees ``O_APPEND`` writes of modest size are not
    interleaved, and issuing the entire line (payload + newline) in
    one unbuffered syscall means a process killed at any instant
    leaves either the whole line or nothing — never a torn prefix that
    :func:`read_journal` would wait on forever.
    """
    data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


class RunJournal:
    """Durable record of one run's jobs.

    Constructing a journal replaces any file at ``path`` with a new,
    empty one (a new inode, so a reader holding the old file open
    keeps the old run's lines); hand it to a
    :class:`~repro.runtime.engine.BatchEngine` as ``journal=`` and the
    engine writes the header and each job's line as it ends.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = self.path.with_name(self.path.name + ".new")
        fresh.write_bytes(b"")
        os.replace(fresh, self.path)

    def start(self, jobs: int) -> None:
        """Announce a batch of ``jobs`` jobs."""
        append_jsonl(self.path, {
            "type": "batch", "schema": JOURNAL_SCHEMA,
            "sim": SIMULATOR_VERSION, "jobs": jobs,
            "time": round(time.time(), 6)})

    def record(self, outcome) -> None:
        """Journal one ended job (a :class:`JobOutcome`)."""
        spec = outcome.spec
        line = {
            "status": outcome.status,
            "hash": spec.content_hash(),
            "label": spec.label,
            "time": round(time.time(), 6),
            "wall": round(outcome.wall_seconds, 6),
            "engine": resolve_engine_name(spec.engine),
        }
        if outcome.summary is not None:
            line["summary"] = outcome.summary.to_dict()
        else:
            line["error"] = outcome.error
        append_jsonl(self.path, line)


def _typed(value, *kinds) -> bool:
    """``isinstance`` that takes no bool for a number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_ledger(ledger) -> bool:
    """Whether ``ledger`` is a list of ``[k, i, c, w, digest, events]``
    records with int fields (not bools) and a str digest.  It tests
    ``type(...) is`` rather than ``isinstance``, for speed: a
    whole-paper ``REPRO_DIGEST=1`` journal holds ~40,000 records, and
    ``tail`` re-reads the journal whenever it changes."""
    return type(ledger) is list and all(
        type(r) is list and len(r) == 6 and type(r[4]) is str
        and type(r[0]) is type(r[1]) is type(r[2]) is type(r[3])
        is type(r[5]) is int
        for r in ledger)


def _is_journal_line(record) -> bool:
    """Whether ``record`` is a journal line with well-typed fields: a
    ``batch`` header, or a job line (schema-1 job lines carry a hash
    and a summary, no status)."""
    if (not isinstance(record, dict)
            or not _typed(record.get("time", 0), int, float)):
        return False
    if record.get("type") == "batch":
        return _typed(record.get("jobs", 0), int)
    if "status" not in record and "summary" not in record:
        return False
    summary = record.get("summary", {})
    return (isinstance(record.get("hash"), str)
            and record.get("status", "ok") in STATUSES
            and isinstance(record.get("label", ""), str)
            and isinstance(record.get("error", ""), str)
            and _typed(record.get("wall", 0), int, float)
            and isinstance(summary, dict)
            and _typed(summary.get("total_cycles", 0), int)
            and _is_ledger(summary.get("digest_ledger") or []))


def read_journal(path) -> Tuple[List[Dict[str, Any]], int]:
    """A run journal's lines, in file order, and how many it skipped.

    Only newline-terminated lines count, so a line still being written
    is read once its newline lands.  A line that is not a JSON object,
    or not a journal line with well-typed fields, is skipped and
    counted.  Schema-1 job lines (no status) load as written.  An
    unreadable file, or one with content but no journal line (an old
    telemetry stream, a profile snapshot), raises
    :class:`~repro.errors.ReproError` naming it.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    lines: List[Dict[str, Any]] = []
    skipped = 0
    for raw in text.split("\n")[:-1]:
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except ValueError:
            record = None
        if _is_journal_line(record):
            lines.append(record)
        else:
            skipped += 1
    if text.strip() and not lines:
        raise ReproError(f"{path} holds no run-journal line")
    return lines, skipped
