"""Unified observability: the journal view, provenance, timers.

The layer that explains where cycles go — the repo-side analog of the
profiling views the paper's evaluation leans on (Fig. 4 stall
breakdowns, Fig. 12 memory ratios).  The simulated-cycle timeline
(``repro run --trace``) is :mod:`repro.sim.trace`'s
:class:`~repro.sim.trace.ExecutionTracer` and
:func:`~repro.sim.trace.execution_trace_events`.

* :mod:`repro.obs.dashboard` — ``python -m repro tail run.jsonl ...``:
  a refreshing terminal view of run journals, one frame of them
  (``--once``) or the same numbers as JSON (``--json``).
* :mod:`repro.obs.profile` — section timers in the simulator's event
  loop; their one reader is the repository benchmark
  (``perfbench --trace 1``), which imports the module directly.
* :mod:`repro.obs.provenance` — rolling digests of simulated
  architectural state and the divergence ledger behind
  ``python -m repro diff``.  Enable via ``REPRO_DIGEST=1`` or
  :func:`~repro.obs.provenance.enable_digests`.

The package itself imports nothing; import the module you need.
"""
