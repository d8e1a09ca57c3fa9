"""Live terminal dashboard over a run journal.

``python -m repro tail run.jsonl`` follows a batch's run journal
(``--journal``) as it grows and redraws an in-terminal status table:
completion progress with an ETA, cache hit rate, simulated cycles per
wall second and the last jobs to end.  The same machinery renders a
single frame of a finished file (``--once``), which is what tests and
CI use.

The pieces compose: :class:`JSONLFollower` incrementally reads whole
lines from a growing file (tolerating partial writes, truncation and
replacement), :class:`BatchWatch` folds journal lines into an
aggregate view, and :func:`render` draws one frame.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ReproError

#: Terminal control: home the cursor and clear to end of screen.
ANSI_CLEAR = "\x1b[H\x1b[J"

#: The statuses a journal job line can carry.
STATUSES = ("ok", "cached", "failed", "skipped")


class JSONLFollower:
    """Incremental reader of a (possibly still growing) JSONL file.

    Each :meth:`poll` returns the records appended since the last
    call.  A partial trailing line (a writer mid-``write``) stays
    buffered until its newline arrives; a shrinking file (truncation)
    or a new file at the path (a new inode: ``RunJournal`` replaces
    the file each run) resets the reader to the top.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._inode = None
        self._pos = 0
        self._buf = ""
        self.bad_lines = 0

    def poll(self) -> List[Dict[str, Any]]:
        """Parse and return records appended since the last poll."""
        try:
            handle = self.path.open("r")
        except OSError:
            return []
        with handle:
            stat = os.fstat(handle.fileno())
            inode = (stat.st_dev, stat.st_ino)
            if inode != self._inode or stat.st_size < self._pos:
                self._inode, self._pos, self._buf = inode, 0, ""
            if stat.st_size == self._pos:
                return []
            handle.seek(self._pos)
            chunk = handle.read()
            self._pos = handle.tell()
        self._buf += chunk
        *lines, self._buf = self._buf.split("\n")
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                self.bad_lines += 1
        return records


def is_journal_record(record) -> bool:
    """Whether ``record`` is a run-journal line: a ``batch`` header or
    a job line (schema 1 lines carry a hash and a summary, no status)."""
    return isinstance(record, dict) and (
        record.get("type") == "batch"
        or ("hash" in record and ("status" in record or "summary" in record)))


def describe(job: Dict[str, Any]) -> str:
    """One ended job as ``label status`` plus its wall time or error."""
    text = f"{job['label']} {job['status']}"
    if "error" in job:
        return f"{text}: {job['error']}"
    if job["status"] == "ok" and "wall" in job:
        return f"{text} in {job['wall']:.3f}s"
    return text


class BatchWatch:
    """Aggregate view of a batch run, fed one journal line at a time."""

    def __init__(self, recent: int = 5) -> None:
        self.announced = 0  # jobs announced by batch headers
        self.headers = 0
        self.records = 0  # journal lines folded
        self.counts = dict.fromkeys(STATUSES, 0)
        self.cycles = 0
        #: Provenance digest-ledger records of the journaled summaries
        #: (REPRO_DIGEST runs; zero otherwise).
        self.digest_records = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.recent: deque = deque(maxlen=recent)
        self.failures: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def update(self, record: Dict[str, Any]) -> None:
        """Fold one journal line (anything else is ignored)."""
        if not is_journal_record(record):
            return
        self.records += 1
        ts = record.get("time")
        if isinstance(ts, (int, float)):
            self.first_ts = ts if self.first_ts is None else min(
                self.first_ts, ts)
            self.last_ts = ts if self.last_ts is None else max(
                self.last_ts, ts)
        if record.get("type") == "batch":
            self.headers += 1
            self.announced += int(record.get("jobs", 0))
            return
        status = record.get("status", "ok")  # schema 1: a finished job
        if status not in self.counts:
            return
        self.counts[status] += 1
        summary = record.get("summary") or {}
        self.cycles += int(summary.get("total_cycles", 0))
        self.digest_records += len(summary.get("digest_ledger") or ())
        job = {"label": record.get("label", "?"), "status": status}
        if status in ("failed", "skipped"):
            job["error"] = record.get("error") or "?"
        elif "wall" in record:
            job["wall"] = record["wall"]
        if status == "failed":
            self.failures.append(job)
        self.recent.append(job)

    def update_all(self, records) -> None:
        """Fold a batch of records."""
        for record in records:
            self.update(record)

    # ------------------------------------------------------------------
    @property
    def ended(self) -> int:
        """Jobs with a journal line."""
        return sum(self.counts.values())

    @property
    def finished(self) -> bool:
        """Whether every job announced by the header(s) has ended."""
        return self.headers > 0 and self.ended >= self.announced

    def snapshot(self) -> Dict[str, Any]:
        """The numbers one frame renders (also the ``--json`` output)."""
        c = self.counts
        ended = self.ended
        elapsed = 0.0
        if self.first_ts is not None and self.last_ts is not None:
            elapsed = self.last_ts - self.first_ts
        return {
            "jobs_total": max(self.announced, ended),
            "done": c["ok"] + c["cached"],
            "failed": c["failed"],
            "cached": c["cached"],
            "skipped": c["skipped"],
            "simulated_cycles": self.cycles,
            "elapsed_seconds": round(elapsed, 3),
            "cache_hit_rate": round(c["cached"] / ended, 4) if ended
            else 0.0,
            "finished": self.finished,
            "digest_records": self.digest_records,
            "last": list(self.recent),
        }


def _progress_bar(done: int, total: int, width: int = 28) -> str:
    if total <= 0:
        return "[" + "-" * width + "]   0%"
    frac = min(1.0, done / total)
    filled = int(round(frac * width))
    return ("[" + "#" * filled + "-" * (width - filled)
            + f"] {frac * 100:3.0f}%")


def render(watch: BatchWatch, clock: Optional[float] = None) -> str:
    """Draw one dashboard frame as plain text."""
    snap = watch.snapshot()
    total, ended = snap["jobs_total"], watch.ended
    elapsed = snap["elapsed_seconds"]
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(clock if clock is not None
                                   else time.time()))
    if snap["finished"]:
        eta = "done"
    elif ended and elapsed > 0:
        eta = f"{(total - ended) * elapsed / ended:.1f}s"
    else:
        eta = "--"
    rate = snap["simulated_cycles"] / elapsed if elapsed > 0 else 0.0
    lines = [
        f"batch journal — {stamp}",
        (f"  jobs    : {total} total | {snap['done']} done | "
         f"{snap['failed']} failed | {snap['cached']} cached"
         + (f" | {snap['skipped']} skipped" if snap["skipped"] else "")),
        f"  progress: {_progress_bar(ended, total)}  ETA {eta}",
        (f"  cycles  : {snap['simulated_cycles']:,} simulated"
         f" ({rate:,.0f}/s over {elapsed:.1f}s)"),
        (f"  cache   : {snap['cached']} hits, "
         f"{snap['cache_hit_rate'] * 100:.1f}% hit rate"),
    ]
    lines.extend(f"  last    : {describe(job)}" for job in snap["last"])
    return "\n".join(lines)


def tail(path, follow: bool = True, interval: float = 0.5,
         max_frames: Optional[int] = None, out=None,
         use_ansi: Optional[bool] = None) -> BatchWatch:
    """Follow a run journal, redrawing the dashboard as it grows.

    Returns the final :class:`BatchWatch` state.  Exits when every job
    the batch header(s) announced has a line, when ``max_frames``
    polls have run, or on Ctrl-C; ``follow=False`` reads the current
    file content and draws exactly one frame.  A file that has content
    but no journal line (an old telemetry stream, say) raises
    :class:`~repro.errors.ReproError` naming it.
    """
    import sys

    out = out if out is not None else sys.stdout
    if use_ansi is None:
        use_ansi = follow and getattr(out, "isatty", lambda: False)()
    follower = JSONLFollower(path)
    watch = BatchWatch()
    frames = polls = 0
    try:
        while True:
            records = follower.poll()
            polls += 1
            watch.update_all(records)
            if not watch.records and (records or follower.bad_lines):
                raise ReproError(f"{path} holds no run-journal line")
            if records or frames == 0:
                frame = render(watch)
                out.write((ANSI_CLEAR if use_ansi else "") + frame + "\n")
                out.flush()
                frames += 1
            if not follow or watch.finished:
                break
            if max_frames is not None and polls >= max_frames:
                break
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return watch
