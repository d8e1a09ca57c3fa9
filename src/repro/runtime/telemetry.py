"""Structured run telemetry.

Every job moving through the batch engine emits events —
``submitted`` / ``started`` / ``cached`` / ``finished`` / ``failed``
/ ``skipped`` — carrying the job's short content hash, its label, a
wall timestamp and free-form payload (cycles, wall seconds).  Events
accumulate in memory and, when a sink path is given, stream to a JSONL
file one object per line; :meth:`Telemetry.summary` folds them into
the batch-end report (job counts, wall time, simulated cycles, cache
counters).

Sink appends are *crash-safe*: each line goes out as one unbuffered
``os.write`` on an ``O_APPEND`` descriptor
(:func:`~repro.runtime.journal.append_jsonl`), so a worker or driver
killed at any instant never leaves a torn half-line for a follower
(:class:`~repro.obs.dashboard.JSONLFollower`) to buffer forever.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.runtime.journal import append_jsonl


@dataclass
class RunEvent:
    """One telemetry event."""

    kind: str
    job: str
    label: str
    time: float
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSONL record form."""
        record = {
            "kind": self.kind,
            "job": self.job,
            "label": self.label,
            "time": round(self.time, 6),
        }
        record.update(self.payload)
        return record


class Telemetry:
    """Event collector with an optional JSONL sink."""

    def __init__(self, path=None) -> None:
        self.path = Path(path) if path else None
        self.events: List[RunEvent] = []
        self.counts: Dict[str, int] = {}
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def emit(self, kind: str, spec=None, **payload) -> RunEvent:
        """Record one event (and append it to the sink, if any)."""
        event = RunEvent(
            kind=kind,
            job=spec.content_hash()[:12] if spec is not None else "",
            label=spec.label if spec is not None else "",
            time=time.time(),
            payload=payload,
        )
        self.events.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.path:
            append_jsonl(self.path, event.to_dict())
        return event

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were emitted."""
        return self.counts.get(kind, 0)

    # ------------------------------------------------------------------
    def summary(self, cache=None) -> Dict[str, Any]:
        """Batch-end rollup of everything emitted so far."""
        cycles = sum(
            e.payload.get("cycles", 0)
            for e in self.events
            if e.kind in ("finished", "cached")
        )
        wall = 0.0
        if self.events:
            wall = max(e.time for e in self.events) - min(
                e.time for e in self.events
            )
        out: Dict[str, Any] = {
            "submitted": self.count("submitted"),
            "started": self.count("started"),
            "cached": self.count("cached"),
            "finished": self.count("finished"),
            "failed": self.count("failed"),
            "skipped": self.count("skipped"),
            "simulated_cycles": cycles,
            "wall_seconds": round(wall, 6),
        }
        if cache is not None:
            out["cache"] = cache.stats()
        return out

    def format_summary(self, cache=None) -> str:
        """Human-readable batch summary block."""
        data = self.summary(cache=cache)
        jobs_line = (f"  jobs: {data['submitted']} submitted, "
                     f"{data['finished']} simulated, "
                     f"{data['cached']} cached, "
                     f"{data['failed']} failed")
        if data["skipped"]:
            jobs_line += f", {data['skipped']} skipped"
        lines = [
            "batch summary:",
            jobs_line,
            f"  simulated cycles: {data['simulated_cycles']:,}",
            f"  wall seconds: {data['wall_seconds']:.3f}",
        ]
        if "cache" in data:
            cs = data["cache"]
            cache_line = (
                f"  cache: {cs['hits']} hits, {cs['misses']} misses, "
                f"{cs['stores']} stores, {cs['evictions']} evictions, "
                f"{cs['entries']} entries at {cs['dir']}"
            )
            if cs.get("quarantined"):
                cache_line += f", {cs['quarantined']} quarantined"
            lines.append(cache_line)
        return "\n".join(lines)

    def emit_batch_summary(self, cache=None) -> RunEvent:
        """Emit the rollup itself as a ``batch_summary`` event."""
        return self.emit("batch_summary", None, **self.summary(cache=cache))
