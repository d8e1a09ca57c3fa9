"""Append-only run journal: one line per job a batch finished.

A journal is a JSONL file with one line per finished or cached job —
the spec's content hash and label plus the full
:class:`~repro.runtime.cache.RunSummary` dict — appended *atomically*
(one ``os.write`` on an ``O_APPEND`` descriptor) the moment the job
ends.  It is the per-job record of *one run*: the digest ledgers of a
``REPRO_DIGEST=1`` run ride in it, and ``repro diff`` reads them from
it.  The result cache, not the journal, is what lets an interrupted
batch continue: a rerun against the same cache simulates nothing that
finished.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict

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
    """Durable record of one run's finished jobs.

    Constructing a journal starts a fresh file; hand it to a
    :class:`~repro.runtime.engine.BatchEngine` as ``journal=`` and the
    engine records each finished or cached job as it ends.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.unlink(missing_ok=True)
        self._recorded = set()

    def record(self, spec, summary: RunSummary) -> None:
        """Journal one job (idempotent per content hash)."""
        key = spec.content_hash()
        if key in self._recorded:
            return
        self._recorded.add(key)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_jsonl(self.path, {
            "schema": JOURNAL_SCHEMA,
            "sim": SIMULATOR_VERSION,
            "hash": key,
            "label": spec.label,
            "time": round(time.time(), 6),
            "summary": summary.to_dict(),
        })
