"""Live terminal dashboard over a telemetry JSONL sink.

``python -m repro tail events.jsonl`` follows a batch-engine telemetry
file as it grows and redraws an in-terminal status table: jobs in
flight, completion progress with an ETA, cache hit rate, simulated
cycles per wall second.  The same machinery renders a single frame of
a finished file (``--once``), which is what tests and CI use.

The pieces compose: :class:`JSONLFollower` incrementally reads whole
lines from a growing file (tolerating partial writes and truncation),
:class:`BatchWatch` folds telemetry records into an aggregate view,
and :func:`render` draws one frame.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Terminal control: home the cursor and clear to end of screen.
ANSI_CLEAR = "\x1b[H\x1b[J"


class JSONLFollower:
    """Incremental reader of a (possibly still growing) JSONL file.

    Each :meth:`poll` returns the records appended since the last
    call.  A partial trailing line (a writer mid-``write``) stays
    buffered until its newline arrives; a shrinking file (truncation /
    rotation) resets the reader to the top.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._pos = 0
        self._buf = ""
        self.bad_lines = 0

    def poll(self) -> List[Dict[str, Any]]:
        """Parse and return records appended since the last poll."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return []
        if size < self._pos:  # truncated or rotated underneath us
            self._pos = 0
            self._buf = ""
        if size == self._pos:
            return []
        with self.path.open("r") as handle:
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


class BatchWatch:
    """Aggregate view of a batch run, fed one telemetry record at a time."""

    def __init__(self, recent: int = 5) -> None:
        self.counts: Dict[str, int] = {}
        self.jobs: Dict[str, str] = {}  # job hash -> last known state
        self.cycles = 0
        #: Provenance digest-ledger records shipped with finishes
        #: (REPRO_DIGEST runs; zero otherwise).
        self.digest_records = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.cache_stats: Optional[Dict[str, Any]] = None
        self.batch_summary: Optional[Dict[str, Any]] = None
        self.recent: deque = deque(maxlen=recent)
        self.failures: List[Dict[str, Any]] = []
        #: Host-profiler rollup (repro.obs.profile), when one was
        #: emitted at batch end.
        self.profile_summary: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def update(self, record: Dict[str, Any]) -> None:
        """Fold one telemetry record into the aggregate."""
        kind = record.get("kind", "")
        self.counts[kind] = self.counts.get(kind, 0) + 1
        ts = record.get("time")
        if isinstance(ts, (int, float)):
            self.first_ts = ts if self.first_ts is None else min(
                self.first_ts, ts)
            self.last_ts = ts if self.last_ts is None else max(
                self.last_ts, ts)
        job = record.get("job", "")
        if kind == "submitted" and job:
            self.jobs.setdefault(job, "pending")
        elif kind == "started" and job:
            self.jobs[job] = "running"
        elif kind in ("finished", "cached", "resumed") and job:
            # Older versions restored jobs from the run journal as
            # "resumed"; such a job still counts done.
            self.jobs[job] = "done"
            self.cycles += int(record.get("cycles", 0))
            self.digest_records += int(record.get("digests", 0))
            self.recent.append(record)
        elif kind == "failed" and job:
            self.jobs[job] = "failed"
            self.failures.append(record)
            self.recent.append(record)
        elif kind == "skipped" and job:
            self.jobs[job] = "skipped"
            self.recent.append(record)
        elif kind == "batch_summary":
            self.batch_summary = record
            if isinstance(record.get("cache"), dict):
                self.cache_stats = record["cache"]
        elif kind == "profile_summary":
            self.profile_summary = record

    def update_all(self, records) -> None:
        """Fold a batch of records."""
        for record in records:
            self.update(record)

    # ------------------------------------------------------------------
    def _job_states(self) -> Dict[str, int]:
        out = {"pending": 0, "running": 0, "done": 0, "failed": 0,
               "skipped": 0}
        for state in self.jobs.values():
            out[state] += 1
        return out

    @property
    def finished(self) -> bool:
        """Whether the batch-end summary event has arrived."""
        return self.batch_summary is not None

    def snapshot(self) -> Dict[str, Any]:
        """The numbers one frame renders (also the ``--json`` output)."""
        states = self._job_states()
        total = len(self.jobs)
        done = states["done"] + states["failed"] + states["skipped"]
        elapsed = 0.0
        if self.first_ts is not None and self.last_ts is not None:
            elapsed = self.last_ts - self.first_ts
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = states["pending"] + states["running"]
        eta = remaining / rate if rate > 0 else None
        cached = self.counts.get("cached", 0)
        lookups = cached + self.counts.get("started", 0)
        return {
            "jobs_total": total,
            "pending": states["pending"],
            "running": states["running"],
            "done": states["done"],
            "failed": states["failed"],
            "skipped": states["skipped"],
            "cached": cached,
            "elapsed_seconds": round(elapsed, 3),
            "jobs_per_second": round(rate, 3),
            "eta_seconds": None if eta is None else round(eta, 1),
            "simulated_cycles": self.cycles,
            "cycles_per_second": round(self.cycles / elapsed, 1)
            if elapsed > 0 else 0.0,
            "cache_hit_rate": round(cached / lookups, 4)
            if lookups else 0.0,
            "finished": self.finished,
            "digest_records": self.digest_records,
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
    done = snap["done"] + snap["failed"] + snap["skipped"]
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(clock if clock is not None
                                   else time.time()))
    eta = ("--" if snap["eta_seconds"] is None
           else f"{snap['eta_seconds']:.1f}s")
    if snap["finished"]:
        eta = "done"
    lines = [
        f"batch telemetry — {stamp}",
        (f"  jobs    : {snap['jobs_total']} total | "
         f"{snap['running']} running | {snap['done']} done | "
         f"{snap['failed']} failed | {snap['cached']} cached"
         + (f" | {snap['skipped']} skipped" if snap["skipped"] else "")),
        (f"  progress: {_progress_bar(done, snap['jobs_total'])}"
         f"  ETA {eta}"),
        (f"  cycles  : {snap['simulated_cycles']:,} simulated"
         f" ({snap['cycles_per_second']:,.0f}/s over "
         f"{snap['elapsed_seconds']:.1f}s)"),
        (f"  cache   : {snap['cached']} hits, "
         f"{snap['cache_hit_rate'] * 100:.1f}% hit rate"),
    ]
    if watch.cache_stats:
        cs = watch.cache_stats
        store = (
            f"  store   : {cs.get('entries', 0)} entries, "
            f"{cs.get('stores', 0)} stores, "
            f"{cs.get('evictions', 0)} evictions at {cs.get('dir', '?')}")
        if cs.get("quarantined"):
            store += f", {cs['quarantined']} quarantined"
        lines.append(store)
    if watch.profile_summary:
        prof = watch.profile_summary
        lines.append(
            f"  profile : {prof.get('kernels', 0)} kernel(s), "
            f"{prof.get('sim_wall_seconds', 0.0):.3f}s simulator wall, "
            f"{prof.get('cycles_per_wall_second', 0.0):,.0f} cycles/s, "
            f"{prof.get('coverage', 0.0) * 100:.1f}% coverage")
        for entry in prof.get("top_phases", [])[:5]:
            try:
                name, seconds, calls = entry
            except (TypeError, ValueError):
                continue
            lines.append(
                f"    {name:<12} {float(seconds):>9.3f}s "
                f"{int(calls):>12,} calls")
    for record in watch.recent:
        verb = record.get("kind", "?")
        extra = ""
        if verb == "finished" and "wall" in record:
            extra = f" in {record['wall']:.3f}s"
        if verb == "failed":
            extra = f": {record.get('error', '?')}"
        lines.append(f"  last    : {record.get('label', '?')} {verb}{extra}")
    return "\n".join(lines)


def tail(path, follow: bool = True, interval: float = 0.5,
         max_frames: Optional[int] = None, out=None,
         use_ansi: Optional[bool] = None) -> BatchWatch:
    """Follow a telemetry file, redrawing the dashboard as it grows.

    Returns the final :class:`BatchWatch` state.  Exits when the
    batch-summary event arrives (the batch is over), when ``max_frames``
    frames have been drawn, or on Ctrl-C; ``follow=False`` reads the
    current file content and draws exactly one frame.
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
            if records or frames == 0:
                frame = render(watch)
                if use_ansi:
                    out.write(ANSI_CLEAR + frame + "\n")
                else:
                    out.write(frame + "\n")
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
