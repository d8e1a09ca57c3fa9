"""Offline aggregation of telemetry and profile files.

``python -m repro report runs.jsonl profile.json [--json]`` folds any
mix of telemetry JSONL sinks (batch-engine event streams) and host
profile snapshots (:meth:`~repro.obs.profile.PhaseProfiler.save`
output) into one summary — job counts, simulated cycles, wall time,
cache counters, failure list, host profile — suitable for a CI
artifact or a quick terminal read after a long batch.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import ReproError
from repro.obs.dashboard import BatchWatch
from repro.obs.profile import PhaseProfiler


def classify_file(path) -> Tuple[str, Any]:
    """Load one input file as ``("telemetry", records)`` or
    ``("profile", snapshot)``.

    Telemetry sinks are JSONL (one event object per line); host-profiler
    snapshots (:meth:`~repro.obs.profile.PhaseProfiler.save`) are a
    single JSON object with a top-level ``"profile"`` key.  Anything
    else is rejected with a :class:`ReproError`.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        return "telemetry", []
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
                f"{path}:{i + 1} is neither telemetry JSONL nor a "
                f"profile snapshot: {exc}") from exc
        if not isinstance(record, dict):
            raise ReproError(
                f"{path}:{i + 1}: telemetry records must be objects")
        records.append(record)
    return "telemetry", records


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
        entry = {"path": str(path), "kind": "telemetry",
                 "events": len(payload)}
        entry.update(watch.snapshot())
        files.append(entry)

    report: Dict[str, Any] = {"files": files}
    report.update(combined.snapshot())
    report["failures"] = [
        {"label": f.get("label", "?"), "error": f.get("error", "?")}
        for f in combined.failures
    ]
    if combined.cache_stats:
        report["cache"] = combined.cache_stats
    if profile_files:
        report["host_profile"] = profiler.summary()
    elif combined.profile_summary is not None:
        # No standalone snapshot files, but the telemetry stream
        # carried a batch-end rollup — surface that one instead.
        report["host_profile"] = {
            k: combined.profile_summary[k]
            for k in ("kernels", "sim_wall_seconds",
                      "cycles_per_wall_second", "coverage",
                      "top_phases")
            if k in combined.profile_summary
        }
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
            f"ledger record(s) shipped (REPRO_DIGEST)")
    if report.get("cache"):
        cs = report["cache"]
        store = (
            f"  store   : {cs.get('entries', 0)} entries, "
            f"{cs.get('hits', 0)} hits, {cs.get('misses', 0)} misses, "
            f"{cs.get('evictions', 0)} evictions")
        if cs.get("quarantined"):
            store += f", {cs['quarantined']} quarantined"
        lines.append(store)
    profile = report.get("host_profile")
    if profile:
        lines.append(
            f"  profile : {profile.get('kernels', 0)} kernel(s), "
            f"{profile.get('sim_wall_seconds', 0.0):.3f}s simulator "
            f"wall, {profile.get('cycles_per_wall_second', 0.0):,.0f} "
            f"cycles/s, {profile.get('coverage', 0.0) * 100:.1f}% "
            f"coverage")
        phases = profile.get("phases")
        if phases:
            for p in phases[:8]:
                lines.append(
                    f"    {p['phase']:<12} {p['seconds']:>9.3f}s "
                    f"{p['share'] * 100:>5.1f}%  "
                    f"{p['calls']:>12,} calls")
        else:
            for entry in profile.get("top_phases", [])[:8]:
                name, seconds, calls = entry
                lines.append(
                    f"    {name:<12} {float(seconds):>9.3f}s "
                    f"{int(calls):>12,} calls")
    for failure in report.get("failures", []):
        lines.append(f"  FAILED  : {failure['label']}: {failure['error']}")
    for entry in report["files"]:
        if entry["kind"] == "telemetry":
            lines.append(
                f"  file    : {entry['path']} ({entry['events']} events)")
        else:
            lines.append(
                f"  file    : {entry['path']} "
                f"({entry['phases']} profiled phase(s))")
    return "\n".join(lines)
