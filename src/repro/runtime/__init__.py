"""Parallel experiment runtime.

The layer between "one simulation" (:mod:`repro.frontend`) and "a
paper figure" (:mod:`repro.bench`): frozen job specifications with
content hashes (:mod:`~repro.runtime.jobspec`), an on-disk
content-addressed, self-healing result cache
(:mod:`~repro.runtime.cache`), a process-pool batch engine with
crash retry, backoff and fail-fast/keep-going policies
(:mod:`~repro.runtime.engine`), an append-only run journal for
resumable batches (:mod:`~repro.runtime.journal`), structured run
telemetry with a crash-safe JSONL sink
(:mod:`~repro.runtime.telemetry`), and a deterministic fault-injection
harness that exercises all of the above
(:mod:`~repro.runtime.faults`).

Opt in from the bench harness with ``jobs=`` / ``cache=`` or the
``REPRO_JOBS`` environment variable; drive grids directly with
``python -m repro batch`` and inspect the store with
``python -m repro cache``; interrupt any journaled run and continue it
with ``--resume``.
"""

from repro.runtime.jobspec import (
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    graph_digest,
)
from repro.runtime.cache import (
    ResultCache,
    RunSummary,
    SCHEMA_VERSION,
    default_cache_dir,
    summary_checksum,
    values_digest,
)
from repro.runtime.engine import (
    BatchEngine,
    JobOutcome,
    raise_on_failures,
    resolve_jobs,
    run_specs,
)
from repro.runtime.faults import FaultPlan, FaultRule, get_active_plan
from repro.runtime.journal import RunJournal, append_jsonl
from repro.runtime.telemetry import RunEvent, Telemetry

__all__ = [
    "AlgorithmSpec",
    "GraphSpec",
    "JobSpec",
    "graph_digest",
    "ResultCache",
    "RunSummary",
    "SCHEMA_VERSION",
    "default_cache_dir",
    "summary_checksum",
    "values_digest",
    "BatchEngine",
    "JobOutcome",
    "raise_on_failures",
    "resolve_jobs",
    "run_specs",
    "FaultPlan",
    "FaultRule",
    "get_active_plan",
    "RunJournal",
    "append_jsonl",
    "RunEvent",
    "Telemetry",
]
