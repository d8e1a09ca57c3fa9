"""Parallel batch execution of :class:`JobSpec` grids.

The engine runs a list of specs and returns one :class:`JobOutcome`
per spec, in submission order, so parallel grids are drop-in equal to
serial ones:

* a spec whose content hash repeats an earlier spec's runs once, and
  every position holding it gets that job's outcome;
* cache lookups happen first, so a warm batch never touches a worker
  and an interrupted batch continues by rerunning against the same
  cache; each simulated job's store writes one file, and the cache is
  trimmed to its bound once, after the batch's last store;
* ``jobs=1`` (the default) runs every miss serially in-process — no
  pool, no pickling — which is what the benchmark suite and tier-1
  tests use;
* ``jobs>1`` submits every miss to one ``ProcessPoolExecutor`` for
  the batch and collects results as they complete, so cache and
  journal writes land as each job ends.  A worker that dies (an OOM
  kill, an interpreter crash) fails the pool's unfinished jobs with
  ``worker process crashed``;
* each job's wall time is measured around :func:`_execute_spec` in
  the process that ran it;
* with a :class:`~repro.runtime.journal.RunJournal`, each batch writes
  a header line with its count of distinct jobs and each job one line
  as it ends;
  without one the engine records nothing beyond the outcomes;
* an exception raised by a job fails that job only.
  ``fail_fast=True`` stops at the first failure and marks the rest of
  the batch ``"skipped"``; the default keeps going and returns every
  failure structurally.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.provenance import get_digester
from repro.runtime.cache import ResultCache, RunSummary
from repro.runtime.jobspec import JobSpec

#: What one job hands back: its summary dict (``None`` on failure),
#: its error (``None`` on success) and its wall seconds.
JobResult = Tuple[Optional[Dict[str, Any]], Optional[str], float]


def _execute_spec(spec: JobSpec) -> Dict[str, Any]:
    """Run one job, return its summary dict.

    Module-level (not a method) so ``ProcessPoolExecutor`` can pickle
    it by reference; returns plain dicts so nothing exotic crosses the
    process boundary.

    The single execution path shared by serial runs and pool workers,
    so the provenance ledger (``REPRO_DIGEST=1``) is captured
    identically everywhere: it rides inside the summary dict as the
    optional ``digest_ledger`` field, through pickling, the run journal
    and the result cache alike.
    """
    digester = get_digester()
    if digester.enabled:
        digester.begin_job()
    result = spec.execute()
    out = RunSummary.from_run_result(result).to_dict()
    if digester.enabled:
        ledger = digester.take_ledger()
        if ledger:
            out["digest_ledger"] = ledger
    return out


def _run_job(spec: JobSpec) -> JobResult:
    """Run and time one job in the process that runs it.

    The serial path calls it in-process and the pool submits it to
    its workers.  An exception fails the job, not the batch: it comes
    back as the error string.  Dispatches through the module global so
    tests can monkeypatch ``_execute_spec`` for both paths.
    """
    start = time.perf_counter()
    try:
        data = _execute_spec(spec)
    except Exception as exc:  # noqa: BLE001 - structured failure
        return (None, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start)
    return data, None, time.perf_counter() - start


def _lost(exc: BaseException) -> JobResult:
    """The result of a job whose worker never handed one back."""
    if isinstance(exc, BrokenProcessPool):
        return None, "worker process crashed", 0.0
    return None, f"{type(exc).__name__}: {exc}", 0.0


# ----------------------------------------------------------------------
@dataclass
class JobOutcome:
    """Structured result of one engine job.

    ``status`` is ``"ok"`` (simulated), ``"cached"`` (result cache
    hit), ``"failed"`` (structured failure, see ``error``) or
    ``"skipped"`` (abandoned after an earlier failure under
    ``fail_fast``).  ``wall_seconds`` is the job's host time, measured
    in the process that ran it.
    """

    spec: JobSpec
    status: str  # "ok" | "cached" | "failed" | "skipped"
    summary: Optional[RunSummary] = None
    error: Optional[str] = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether a usable summary is attached."""
        return self.status in ("ok", "cached")


class BatchEngine:
    """Schedule, parallelize, cache and journal a batch."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        journal=None,
        fail_fast: bool = False,
    ) -> None:
        """``journal`` is a :class:`~repro.runtime.journal.RunJournal`
        that records every job as it ends.
        ``fail_fast`` stops at the first failure and marks the
        remainder ``"skipped"``."""
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.journal = journal
        self.fail_fast = fail_fast

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> List[JobOutcome]:
        """Execute a batch; outcomes align index-for-index with specs.

        Specs with one content hash are one job: it runs once, under
        its first position, and every position gets its outcome.
        """
        first: Dict[str, int] = {}
        for idx, spec in enumerate(specs):
            first.setdefault(spec.content_hash(), idx)
        if self.journal is not None:
            self.journal.start(len(first))
        outcomes: Dict[int, JobOutcome] = {}
        pending: List[Tuple[int, JobSpec]] = []
        for idx in first.values():
            spec = specs[idx]
            summary = self.cache.get(spec) if self.cache is not None else None
            if summary is None:
                pending.append((idx, spec))
            else:
                self._end(idx, JobOutcome(spec, "cached", summary), outcomes)

        if pending:
            if self.jobs <= 1:
                self._run_serial(pending, outcomes)
            else:
                self._run_parallel(pending, outcomes)
            if self.cache is not None:
                self.cache.trim()
        return [outcomes[first[spec.content_hash()]] for spec in specs]

    # ------------------------------------------------------------------
    def _end(self, idx: int, outcome: JobOutcome,
             outcomes: Dict[int, JobOutcome]) -> None:
        """Record one ended job's outcome (and journal it)."""
        outcomes[idx] = outcome
        if self.journal is not None:
            self.journal.record(outcome)

    def _finish(self, idx: int, spec: JobSpec, result: JobResult,
                outcomes: Dict[int, JobOutcome]) -> bool:
        """Record one ended job; returns whether it failed."""
        data, error, wall = result
        if error is not None:
            self._end(idx, JobOutcome(spec, "failed", None, error, wall),
                      outcomes)
            return True
        summary = RunSummary.from_dict(data)
        if self.cache is not None:
            self.cache.put(spec, summary)
        self._end(idx, JobOutcome(spec, "ok", summary, None, wall), outcomes)
        return False

    def _skip(self, idx: int, spec: JobSpec,
              outcomes: Dict[int, JobOutcome]) -> None:
        """Abandon one job after an earlier failure under fail_fast."""
        self._end(idx, JobOutcome(
            spec, "skipped", None,
            "skipped after an earlier failure (fail_fast)"), outcomes)

    # ------------------------------------------------------------------
    def _run_serial(self, pending, outcomes) -> None:
        for n, (idx, spec) in enumerate(pending):
            if (self._finish(idx, spec, _run_job(spec), outcomes)
                    and self.fail_fast):
                for rest_idx, rest_spec in pending[n + 1:]:
                    self._skip(rest_idx, rest_spec, outcomes)
                return

    def _run_parallel(self, pending, outcomes) -> None:
        futures = {}
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        try:
            for idx, spec in pending:
                try:
                    futures[pool.submit(_run_job, spec)] = (idx, spec)
                except BrokenProcessPool as exc:
                    # A worker died while the batch was being submitted;
                    # every later submit fails the same way.
                    self._finish(idx, spec, _lost(exc), outcomes)
            for future in as_completed(futures):
                idx, spec = futures.pop(future)
                try:
                    result = future.result()
                except Exception as exc:  # noqa: BLE001 - structured
                    result = _lost(exc)
                if (self._finish(idx, spec, result, outcomes)
                        and self.fail_fast):
                    break
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        # Anything still uncollected was abandoned by a fail-fast stop.
        for idx, spec in futures.values():
            self._skip(idx, spec, outcomes)

