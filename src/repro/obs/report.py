"""Offline aggregation of run journals and profile files.

``python -m repro report run.jsonl profile.json [--json]`` folds any
mix of run journals (``--journal`` files) and host profile snapshots
(:meth:`~repro.obs.profile.PhaseProfiler.save` output) into one
summary — job counts, simulated cycles, elapsed time, cache hit rate,
failures, the last jobs to end, host profile — suitable for a CI
artifact or a quick terminal read after a long batch.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import ReproError
from repro.obs.dashboard import BatchWatch, describe, is_journal_record
from repro.obs.profile import PhaseProfiler


def classify_file(path) -> Tuple[str, Any]:
    """Load one input file as ``("journal", records)`` or
    ``("profile", snapshot)``.

    Run journals are JSONL (one object per line); host-profiler
    snapshots (:meth:`~repro.obs.profile.PhaseProfiler.save`) are a
    single JSON object with a top-level ``"profile"`` key.  Anything
    else — a non-empty file with no journal line, such as an old
    telemetry stream — is rejected with a :class:`ReproError` naming
    the file.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        return "journal", []
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict) and "profile" in doc:
            return "profile", doc
    records = []
    for i, line in enumerate(stripped.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"{path}:{i + 1} is neither a run journal nor a "
                f"profile snapshot: {exc}") from exc
        if not isinstance(record, dict):
            raise ReproError(
                f"{path}:{i + 1}: journal lines must be objects")
        records.append(record)
    if not any(is_journal_record(r) for r in records):
        raise ReproError(f"{path} holds no run-journal line")
    return "journal", records


def aggregate(paths: Iterable) -> Dict[str, Any]:
    """Fold every input file into one report dict."""
    profiler = PhaseProfiler(enabled=True)
    combined = BatchWatch()
    files: List[Dict[str, Any]] = []
    profile_files = 0
    for path in paths:
        kind, payload = classify_file(path)
        if kind == "profile":
            profiler.merge_snapshot(payload)
            profile_files += 1
            files.append({"path": str(path), "kind": "profile",
                          "phases": len(payload.get("profile", {})
                                        .get("phases", {}))})
            continue
        watch = BatchWatch()
        watch.update_all(payload)
        combined.update_all(payload)
        entry = {"path": str(path), "kind": "journal",
                 "lines": watch.records}
        entry.update(watch.snapshot())
        files.append(entry)

    report: Dict[str, Any] = {"files": files}
    report.update(combined.snapshot())
    report["failures"] = combined.failures
    if profile_files:
        report["host_profile"] = profiler.summary()
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
    profile = report.get("host_profile")
    if profile:
        lines.append(
            f"  profile : {profile['kernels']} kernel(s), "
            f"{profile['sim_wall_seconds']:.3f}s simulator "
            f"wall, {profile['cycles_per_wall_second']:,.0f} "
            f"cycles/s, {profile['coverage'] * 100:.1f}% coverage")
        for p in profile["phases"][:8]:
            lines.append(
                f"    {p['phase']:<12} {p['seconds']:>9.3f}s "
                f"{p['share'] * 100:>5.1f}%  {p['calls']:>12,} calls")
    for failure in report["failures"]:
        lines.append(f"  FAILED  : {failure['label']}: {failure['error']}")
    lines.extend(f"  last    : {describe(job)}" for job in report["last"])
    for entry in report["files"]:
        if entry["kind"] == "journal":
            lines.append(
                f"  file    : {entry['path']} ({entry['lines']} lines)")
        else:
            lines.append(
                f"  file    : {entry['path']} "
                f"({entry['phases']} profiled phase(s))")
    return "\n".join(lines)
