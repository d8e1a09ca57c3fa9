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

``repro tail`` and ``repro report`` fold these lines, and ``repro
diff`` reads the digest ledgers of a ``REPRO_DIGEST=1`` run from the
summaries.  Schema-1 journals (one line per finished or cached job, no
header, no status) still load: each line counts as a done job.  The
result cache, not the journal, is what lets an interrupted batch
continue: a rerun against the same cache simulates nothing that
finished.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict

from repro.sim import SIMULATOR_VERSION
from repro.sim.engines import resolve_engine_name

#: Bump when the journal line layout changes (2: batch header, one
#: line per ended job with its status, wall time and engine).
JOURNAL_SCHEMA = 2


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
    """Durable record of one run's jobs.

    Constructing a journal replaces any file at ``path`` with a new,
    empty one (a new inode, so a follower of the old file starts over
    from the top); hand it to a
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
