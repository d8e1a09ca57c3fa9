"""Parallel experiment runtime.

The layer between "one simulation" (:mod:`repro.frontend`) and "a
paper figure" (:mod:`repro.bench`): frozen job specifications with
content hashes (:mod:`~repro.runtime.jobspec`), an on-disk
content-addressed, self-healing result cache
(:mod:`~repro.runtime.cache`), a batch engine that runs one process
pool per batch with keep-going and fail-fast policies
(:mod:`~repro.runtime.engine`), and an append-only run journal, the
batch's one per-job record, with a crash-safe JSONL writer
(:mod:`~repro.runtime.journal`).

Run a grid through ``BatchEngine(jobs=..., cache=...).run(specs)``
(every paper figure does, through :mod:`repro.figures`), drive one
from the shell with ``python -m repro batch`` and inspect the store
with ``python -m repro cache``.  An interrupted batch continues by
rerunning it against the same cache: nothing that finished is
simulated again.
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
)
from repro.runtime.journal import RunJournal, append_jsonl

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
    "RunJournal",
    "append_jsonl",
]
