"""Terminal view of run journals: ``repro tail``.

``python -m repro tail run.jsonl [more.jsonl ...]`` re-reads the
journals (``--journal`` files) whole each time one changes and redraws
the frame; ``--once`` draws one frame of the files as they stand,
``--json`` prints the same numbers as one JSON document instead.
:class:`BatchWatch` folds the lines :func:`read_journal` returns and
:func:`render` draws a frame.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.runtime.journal import STATUSES, read_journal

#: Terminal control: home the cursor and clear to end of screen.
ANSI_CLEAR = "\x1b[H\x1b[J"


def describe(job: Dict[str, Any]) -> str:
    """One ended job as ``label status`` plus its wall time or error."""
    text = f"{job['label']} {job['status']}"
    if "error" in job:
        return f"{text}: {job['error']}"
    if job["status"] == "ok" and "wall" in job:
        return f"{text} in {job['wall']:.3f}s"
    return text


class BatchWatch:
    """Aggregate view of run journals, fed one journal line at a time."""

    def __init__(self, recent: int = 5) -> None:
        self.announced = 0  # jobs announced by batch headers
        self.headers = 0
        self.counts = dict.fromkeys(STATUSES, 0)
        self.cycles = 0
        #: Provenance digest-ledger records of the journaled summaries
        #: (REPRO_DIGEST runs; zero otherwise).
        self.digest_records = 0
        #: Lines the journal reader skipped.
        self.unreadable = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.recent: deque = deque(maxlen=recent)
        self.failures: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def update(self, line: Dict[str, Any]) -> None:
        """Fold one journal line, as ``read_journal`` returns it."""
        ts = line.get("time")
        if ts is not None:
            self.first_ts = ts if self.first_ts is None else min(
                self.first_ts, ts)
            self.last_ts = ts if self.last_ts is None else max(
                self.last_ts, ts)
        if line.get("type") == "batch":
            self.headers += 1
            self.announced += line.get("jobs", 0)
            return
        status = line.get("status", "ok")  # schema 1: a finished job
        self.counts[status] += 1
        summary = line.get("summary", {})
        self.cycles += summary.get("total_cycles", 0)
        self.digest_records += len(summary.get("digest_ledger") or ())
        job = {"label": line.get("label", "?"), "status": status}
        if status in ("failed", "skipped"):
            job["error"] = line.get("error") or "?"
        elif "wall" in line:
            job["wall"] = line["wall"]
        if status == "failed":
            self.failures.append(job)
        self.recent.append(job)

    def update_all(self, lines) -> None:
        """Fold a batch of lines."""
        for line in lines:
            self.update(line)

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
            "unreadable_lines": self.unreadable,
            "failures": list(self.failures),
            "last": list(self.recent),
        }


def watch_journals(paths) -> BatchWatch:
    """Fold every line of the run journals at ``paths``, in order.

    Raises :class:`~repro.errors.ReproError` for a file that cannot be
    read or has content but no journal line.
    """
    watch = BatchWatch()
    for path in paths:
        lines, skipped = read_journal(path)
        watch.unreadable += skipped
        watch.update_all(lines)
    return watch


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
    if snap["digest_records"]:
        lines.append(
            f"  digests : {snap['digest_records']:,} provenance "
            f"ledger record(s) journaled (REPRO_DIGEST)")
    if snap["unreadable_lines"]:
        lines.append(f"  lines   : {snap['unreadable_lines']} unreadable "
                     "line(s) skipped")
    lines.extend(f"  FAILED  : {job['label']}: {job['error']}"
                 for job in snap["failures"])
    lines.extend(f"  last    : {describe(job)}" for job in snap["last"])
    return "\n".join(lines)


def _stamp(path):
    """``(inode, size, mtime)`` of a file, ``None`` if it is not there."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def tail(paths, follow: bool = True, interval: float = 0.5,
         max_frames: Optional[int] = None, out=None,
         use_ansi: Optional[bool] = None) -> BatchWatch:
    """Watch run journals, drawing a frame to ``out`` (none when it is
    ``None``, as for ``--json``) whenever they change.

    A poll re-reads the files whole when any of them changed since the
    last read.  Following, a journal not created yet reads as empty
    until it appears.  Returns the final :class:`BatchWatch`.  Exits
    when every job the batch header(s) announced has a line, when
    ``max_frames`` polls have run, or on Ctrl-C; ``follow=False``
    reads the files once.
    """
    if use_ansi is None:
        use_ansi = follow and getattr(out, "isatty", lambda: False)()
    watch = BatchWatch()
    read_at = shown = None
    polls = 0
    try:
        while True:
            stamps = [_stamp(path) for path in paths]
            if stamps != read_at:
                watch = watch_journals(
                    [path for path, stamp in zip(paths, stamps)
                     if stamp or not follow])
                read_at = stamps
            polls += 1
            snap = watch.snapshot()
            if out is not None and snap != shown:
                out.write((ANSI_CLEAR if use_ansi else "") + render(watch)
                          + "\n")
                out.flush()
                shown = snap
            if not follow or watch.finished:
                break
            if max_frames is not None and polls >= max_frames:
                break
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return watch
