"""Unified observability: span tracing, dashboards, reports, profiles.

The layer that explains where cycles and wall time go — the repo-side
analog of the profiling views the paper's evaluation leans on (Fig. 4
stall breakdowns, Fig. 12 memory ratios):

* :mod:`repro.obs.tracing` — wall-clock :class:`Span`s (kernel phases,
  engine job lifecycle) plus simulated-cycle instruction/stall events,
  exported together as Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto.
* :mod:`repro.obs.dashboard` — ``python -m repro tail run.jsonl``:
  a live, refreshing terminal view of a running batch's run journal.
* :mod:`repro.obs.report` — ``python -m repro report`` aggregation of
  run journals and profile snapshots into one text/JSON summary.
* :mod:`repro.obs.profile` — host-side self-profiler (wall-time per
  simulator phase, per-opcode latency histograms, flamegraph
  sampler).  Enable via ``REPRO_PROFILE=1`` or
  :func:`enable_profiling`.
* :mod:`repro.obs.provenance` — rolling digests of simulated
  architectural state and the divergence ledger behind
  ``python -m repro diff``.  Enable via ``REPRO_DIGEST=1`` or
  :func:`enable_digests`.
"""

from repro.obs.profile import (
    PhaseProfiler,
    StackSampler,
    disable_profiling,
    enable_profiling,
    get_profiler,
    percentile_from_counts,
    profiling_enabled,
)
from repro.obs.provenance import (
    KernelWindowTracer,
    StateDigester,
    diff_ledgers,
    digests_enabled,
    disable_digests,
    enable_digests,
    first_divergence,
    get_digester,
)
from repro.obs.tracing import (
    NULL_TRACER,
    Span,
    Tracer,
    execution_trace_events,
)
from repro.obs.dashboard import BatchWatch, JSONLFollower, render, tail
from repro.obs.report import aggregate, format_report

__all__ = [
    "PhaseProfiler",
    "StackSampler",
    "disable_profiling",
    "enable_profiling",
    "get_profiler",
    "percentile_from_counts",
    "profiling_enabled",
    "KernelWindowTracer",
    "StateDigester",
    "diff_ledgers",
    "digests_enabled",
    "disable_digests",
    "enable_digests",
    "first_divergence",
    "get_digester",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "execution_trace_events",
    "BatchWatch",
    "JSONLFollower",
    "render",
    "tail",
    "aggregate",
    "format_report",
]
