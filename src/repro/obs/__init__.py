"""Unified observability: dashboards, reports, provenance, timers.

The layer that explains where cycles go — the repo-side analog of the
profiling views the paper's evaluation leans on (Fig. 4 stall
breakdowns, Fig. 12 memory ratios).  The simulated-cycle timeline
(``repro run --trace``) is :mod:`repro.sim.trace`'s
:class:`~repro.sim.trace.ExecutionTracer` and
:func:`~repro.sim.trace.execution_trace_events`.

* :mod:`repro.obs.dashboard` — ``python -m repro tail run.jsonl``:
  a live, refreshing terminal view of a running batch's run journal.
* :mod:`repro.obs.report` — ``python -m repro report`` aggregation of
  run journals into one text/JSON summary.
* :mod:`repro.obs.profile` — section timers in the simulator's event
  loop; their one reader is the repository benchmark
  (``perfbench --trace 1``), which imports the module directly.
* :mod:`repro.obs.provenance` — rolling digests of simulated
  architectural state and the divergence ledger behind
  ``python -m repro diff``.  Enable via ``REPRO_DIGEST=1`` or
  :func:`enable_digests`.
"""

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
from repro.obs.dashboard import BatchWatch, JSONLFollower, render, tail
from repro.obs.report import aggregate, format_report

__all__ = [
    "KernelWindowTracer",
    "StateDigester",
    "diff_ledgers",
    "digests_enabled",
    "disable_digests",
    "enable_digests",
    "first_divergence",
    "get_digester",
    "BatchWatch",
    "JSONLFollower",
    "render",
    "tail",
    "aggregate",
    "format_report",
]
