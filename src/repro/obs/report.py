"""Offline aggregation of run journals.

``python -m repro report run.jsonl [more.jsonl ...] [--json]`` folds
run journals (``--journal`` files) into one summary — job counts,
simulated cycles, elapsed time, cache hit rate, failures, the last jobs
to end — suitable for a CI artifact or a quick terminal read after a
long batch.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro.errors import ReproError
from repro.obs.dashboard import BatchWatch, describe, is_journal_record


def load_journal(path) -> List[Dict[str, Any]]:
    """Load one run journal's records (JSONL, one object per line).

    An empty file holds no records.  Anything else without a journal
    line — a profile snapshot or an old telemetry stream — is rejected
    with a :class:`ReproError` naming the file.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    records = []
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"{path}:{i + 1} is not a run journal line: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ReproError(
                f"{path}:{i + 1}: journal lines must be objects")
        records.append(record)
    if records and not any(is_journal_record(r) for r in records):
        raise ReproError(f"{path} holds no run-journal line")
    return records


def aggregate(paths: Iterable) -> Dict[str, Any]:
    """Fold every input journal into one report dict."""
    combined = BatchWatch()
    files: List[Dict[str, Any]] = []
    for path in paths:
        records = load_journal(path)
        watch = BatchWatch()
        watch.update_all(records)
        combined.update_all(records)
        entry = {"path": str(path), "lines": watch.records}
        entry.update(watch.snapshot())
        files.append(entry)

    report: Dict[str, Any] = {"files": files}
    report.update(combined.snapshot())
    report["failures"] = combined.failures
    return report


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable report block."""
    jobs_line = (f"  jobs    : {report['jobs_total']} total | "
                 f"{report['done']} done | {report['failed']} failed | "
                 f"{report['cached']} cached")
    if report.get("skipped"):
        jobs_line += f" | {report['skipped']} skipped"
    lines = [
        "observability report",
        jobs_line,
        (f"  cycles  : {report['simulated_cycles']:,} simulated over "
         f"{report['elapsed_seconds']:.3f}s wall"),
        f"  cache   : {report['cache_hit_rate'] * 100:.1f}% hit rate",
    ]
    if report.get("digest_records"):
        lines.append(
            f"  digests : {report['digest_records']:,} provenance "
            f"ledger record(s) journaled (REPRO_DIGEST)")
    for failure in report["failures"]:
        lines.append(f"  FAILED  : {failure['label']}: {failure['error']}")
    lines.extend(f"  last    : {describe(job)}" for job in report["last"])
    lines.extend(f"  file    : {entry['path']} ({entry['lines']} lines)"
                 for entry in report["files"])
    return "\n".join(lines)
