"""Offline aggregation of telemetry and metrics files.

``python -m repro report runs.jsonl metrics.json [--json]`` folds any
mix of telemetry JSONL sinks (batch-engine event streams) and metrics
snapshots (:meth:`~repro.obs.metrics.MetricsRegistry.save` output)
into one summary — job counts, simulated cycles, wall time, cache
counters, failure list, merged metrics — suitable for a CI artifact or
a quick terminal read after a long batch.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import ReproError
from repro.obs.dashboard import BatchWatch
from repro.obs.metrics import MetricsRegistry, percentile_from_counts
from repro.obs.profile import PhaseProfiler


def classify_file(path) -> Tuple[str, Any]:
    """Load one input file as ``("telemetry", records)``,
    ``("metrics", snapshot)`` or ``("profile", snapshot)``.

    Telemetry sinks are JSONL (one event object per line); metrics
    snapshots are a single JSON object with a top-level ``"metrics"``
    key; host-profiler snapshots
    (:meth:`~repro.obs.profile.PhaseProfiler.save`) have a top-level
    ``"profile"`` key.  Anything else is rejected with a
    :class:`ReproError`.
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
        if isinstance(doc, dict) and "metrics" in doc:
            return "metrics", doc
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
                f"{path}:{i + 1} is neither a metrics snapshot nor "
                f"telemetry JSONL: {exc}") from exc
        if not isinstance(record, dict):
            raise ReproError(
                f"{path}:{i + 1}: telemetry records must be objects")
        records.append(record)
    return "telemetry", records


def aggregate(paths: Iterable) -> Dict[str, Any]:
    """Fold every input file into one report dict."""
    registry = MetricsRegistry(enabled=True)
    profiler = PhaseProfiler(enabled=True)
    combined = BatchWatch()
    files: List[Dict[str, Any]] = []
    metrics_files = profile_files = 0
    for path in paths:
        kind, payload = classify_file(path)
        if kind == "metrics":
            registry.merge_snapshot(payload)
            metrics_files += 1
            files.append({"path": str(path), "kind": "metrics",
                          "metrics": len(payload.get("metrics", {}))})
            continue
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
    if metrics_files:
        report["metrics"] = registry.snapshot()["metrics"]
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
                 f"{report['cached']} cached | "
                 f"{report['retried']} retried")
    if report.get("resumed"):
        jobs_line += f" | {report['resumed']} resumed"
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
        elif entry["kind"] == "profile":
            lines.append(
                f"  file    : {entry['path']} "
                f"({entry['phases']} profiled phase(s))")
        else:
            lines.append(
                f"  file    : {entry['path']} "
                f"({entry['metrics']} metric(s))")
    metrics = report.get("metrics")
    if metrics:
        lines.append("  metrics :")
        for name in sorted(metrics):
            entry = metrics[name]
            if entry.get("kind") == "histogram":
                # Percentile estimates over every labelled series
                # merged — readable at a glance, unlike bucket dumps.
                bounds = entry.get("buckets", [])
                merged = [0] * (len(bounds) + 1)
                total = 0
                for s in entry.get("series", []):
                    total += s.get("count", 0)
                    for i, c in enumerate(s.get("counts", [])):
                        if i < len(merged):
                            merged[i] += c
                line = f"    {name} (histogram, {total} samples"
                if total and bounds:
                    p50 = percentile_from_counts(bounds, merged, 50)
                    p90 = percentile_from_counts(bounds, merged, 90)
                    p99 = percentile_from_counts(bounds, merged, 99)
                    line += (f"; p50<={p50:g} p90<={p90:g} "
                             f"p99<={p99:g}")
                lines.append(line + ")")
            else:
                total = sum(s.get("value", 0.0)
                            for s in entry.get("series", []))
                lines.append(f"    {name} = {total:g}")
    return "\n".join(lines)
