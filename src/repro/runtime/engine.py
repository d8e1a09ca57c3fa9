"""Parallel batch execution of :class:`JobSpec` grids.

The engine fans a list of specs across a ``ProcessPoolExecutor``:

* journal lookups happen first (``--resume``), then cache lookups, so
  an interrupted batch restarts without re-simulating anything it
  already finished and warm batches never touch a worker;
* each miss is pickled to a worker that rebuilds the algorithm/graph
  from the spec and returns a :class:`RunSummary` dict;
* *transient* failures — a worker process dying (crash, OOM-kill) or
  a :class:`~repro.errors.TransientError` raised in the job — are
  retried on a fresh pool with exponential backoff, bounded by the
  per-job ``retries`` count; deterministic exceptions fail immediately
  (they would only reproduce themselves);
* an optional per-job timeout turns an unresponsive job into a
  structured failure instead of hanging the batch;
* ``fail_fast=True`` stops scheduling after the first failure and
  marks the rest of the batch ``"skipped"``; the default keeps going
  and returns every failure structurally;
* results come back in submission order regardless of completion
  order, so parallel grids are drop-in equal to serial ones.

``jobs=1`` (the default, also via ``REPRO_JOBS``) executes serially
in-process — no pool, no pickling — which is what the benchmark suite
and tier-1 tests use.  Fault injection (:mod:`repro.runtime.faults`)
hooks both paths so every recovery branch above is exercisable
deterministically; with ``REPRO_FAULTS`` unset the hooks are skipped
entirely.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, ReproError, TransientError
from repro.obs.profile import get_profiler
from repro.obs.provenance import get_digester
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.runtime.cache import ResultCache, RunSummary
from repro.runtime.faults import (apply_serial_fault, apply_worker_fault,
                                  get_active_plan)
from repro.runtime.jobspec import JobSpec
from repro.runtime.telemetry import Telemetry


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from None
    return max(1, int(jobs))


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


def _worker_entry(spec: JobSpec, fault=None) -> Dict[str, Any]:
    """Pool worker entry point: execute one job, then ship its profile.

    ``fault`` is the parent-decided fault directive for this attempt
    (``None`` on the default path); applying it may kill the worker,
    hang, or raise before the job runs.  With profiling on, attaches
    the worker profiler's snapshot under ``"_profile"`` and clears it,
    so the parent's profiler aggregates every worker's phases.  Only
    pool workers ship: on the serial path the job already accumulates
    into the parent profiler directly.  Dispatches through the module
    global so tests can monkeypatch ``_execute_spec`` for both paths.
    """
    apply_worker_fault(fault)
    out = _execute_spec(spec)
    profiler = get_profiler()
    if profiler.enabled and profiler.kernels:
        out["_profile"] = profiler.snapshot()
        profiler.clear()
    return out


def _absorb_profile(data: Dict[str, Any]) -> Dict[str, Any]:
    """Merge a worker's shipped profile snapshot locally."""
    prof = data.pop("_profile", None)
    if prof:
        get_profiler().merge_snapshot(prof)
    return data


# ----------------------------------------------------------------------
@dataclass
class JobOutcome:
    """Structured result of one engine job.

    ``status`` is ``"ok"`` (simulated), ``"cached"`` (result cache
    hit), ``"resumed"`` (restored from a run journal), ``"failed"``
    (structured failure, see ``error``) or ``"skipped"`` (abandoned
    after an earlier failure under ``fail_fast``).
    """

    spec: JobSpec
    status: str  # "ok" | "cached" | "resumed" | "failed" | "skipped"
    summary: Optional[RunSummary] = None
    error: Optional[str] = None
    attempts: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether a usable summary is attached."""
        return self.status in ("ok", "cached", "resumed")


class BatchEngine:
    """Schedule, parallelize, cache, journal and observe a batch."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[Telemetry] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        tracer: Optional[Tracer] = None,
        journal=None,
        faults=None,
        fail_fast: bool = False,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
    ) -> None:
        """``timeout`` is per-job wall seconds (None = unbounded);
        ``retries`` counts extra attempts per job after a transient
        failure; retries back off exponentially from ``backoff_base``
        seconds, capped at ``backoff_max``.
        ``journal`` is a :class:`~repro.runtime.journal.RunJournal`:
        already-journaled specs are restored (status ``"resumed"``)
        and new completions are appended as they happen, making the
        batch resumable after an interrupt.  ``faults`` overrides the
        ``REPRO_FAULTS`` fault-injection plan (``None`` = resolve from
        the environment; unset = no hooks).  ``fail_fast`` stops
        scheduling after the first failure and marks the remainder
        ``"skipped"``.  ``tracer`` records one span per job lifecycle
        for Chrome trace export."""
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.timeout = timeout
        self.retries = max(0, retries)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal
        self.faults = faults if faults is not None else get_active_plan()
        self.fail_fast = fail_fast
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> List[JobOutcome]:
        """Execute a batch; outcomes align index-for-index with specs."""
        outcomes: Dict[int, JobOutcome] = {}
        pending: List[Tuple[int, JobSpec]] = []
        for idx, spec in enumerate(specs):
            self.telemetry.emit("submitted", spec)
            if self.journal is not None:
                summary = self.journal.summary_for(spec)
                if summary is not None:
                    outcomes[idx] = JobOutcome(spec, "resumed", summary)
                    self.telemetry.emit("resumed", spec,
                                        cycles=summary.total_cycles)
                    continue
            if self.cache is not None:
                summary = self.cache.get(spec)
                if summary is not None:
                    outcomes[idx] = JobOutcome(spec, "cached", summary)
                    self.telemetry.emit("cached", spec,
                                        cycles=summary.total_cycles)
                    if self.journal is not None:
                        self.journal.record(spec, summary)
                    continue
            pending.append((idx, spec))

        if pending:
            if self.jobs <= 1:
                self._run_serial(pending, outcomes)
            else:
                self._run_parallel(pending, outcomes)

        profiler = get_profiler()
        if profiler.enabled and profiler.kernels:
            # Before batch_summary: followers (repro tail) stop at the
            # summary event, so the profile must already be on disk.
            self.telemetry.emit("profile_summary", None,
                                **profiler.summary_payload())
        self.telemetry.emit_batch_summary(cache=self.cache)
        return [outcomes[i] for i in range(len(specs))]

    # ------------------------------------------------------------------
    def _record_success(self, idx: int, spec: JobSpec,
                        summary: RunSummary, attempts: int, wall: float,
                        outcomes: Dict[int, JobOutcome]) -> None:
        if self.cache is not None:
            self.cache.put(spec, summary)
        if self.journal is not None:
            self.journal.record(spec, summary)
        # Which engine ran is execution metadata, not job identity: it
        # lands on the in-memory summary and in telemetry, never in the
        # cache/journal payloads (engines are bit-identical).
        from repro.sim.engines import resolve_engine_name

        summary.engine = resolve_engine_name(spec.engine)
        outcomes[idx] = JobOutcome(spec, "ok", summary, None, attempts,
                                   wall)
        extra = {}
        if summary.digest_ledger:
            extra["digests"] = len(summary.digest_ledger)
        self.telemetry.emit("finished", spec,
                            cycles=summary.total_cycles,
                            wall=round(wall, 6), attempt=attempts,
                            engine=summary.engine,
                            **extra)

    def _record_failure(self, idx: int, spec: JobSpec, error: str,
                        attempts: int, wall: float,
                        outcomes: Dict[int, JobOutcome]) -> None:
        outcomes[idx] = JobOutcome(spec, "failed", None, error, attempts,
                                   wall)
        self.telemetry.emit("failed", spec, error=error, attempt=attempts)

    def _record_skipped(self, idx: int, spec: JobSpec,
                        outcomes: Dict[int, JobOutcome]) -> None:
        """Abandon one job after an earlier failure under fail_fast."""
        outcomes[idx] = JobOutcome(
            spec, "skipped", None,
            "skipped after an earlier failure (fail_fast)", 0, 0.0)
        self.telemetry.emit("skipped", spec, reason="fail_fast")

    # ------------------------------------------------------------------
    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt + 1``."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_max,
                   self.backoff_base * (2.0 ** (attempt - 1)))

    def _note_retry(self, spec: JobSpec, attempt: int,
                    reason: str) -> None:
        """Telemetry for one granted retry."""
        self.telemetry.emit("retried", spec, attempt=attempt + 1,
                            reason=reason)

    def _sleep_backoff(self, attempt: int) -> None:
        delay = self._backoff_delay(attempt)
        if delay <= 0:
            return
        self.telemetry.emit("backoff", None, seconds=round(delay, 6))
        time.sleep(delay)

    # ------------------------------------------------------------------
    def _run_serial(self, pending, outcomes) -> None:
        abort = False
        for idx, spec in pending:
            if abort:
                self._record_skipped(idx, spec, outcomes)
                continue
            attempt = 1
            while True:
                self.telemetry.emit("started", spec, attempt=attempt)
                start = time.perf_counter()
                with self.tracer.span(f"job:{spec.label}", cat="job",
                                      tid="engine") as span:
                    try:
                        if self.faults is not None:
                            apply_serial_fault(
                                self.faults.worker_fault(idx, attempt))
                        summary = RunSummary.from_dict(_execute_spec(spec))
                    except TransientError as exc:
                        if attempt <= self.retries:
                            span.args["status"] = "retried"
                            self._note_retry(spec, attempt, "transient")
                            self._sleep_backoff(attempt)
                            attempt += 1
                            continue
                        span.args["status"] = "failed"
                        self._record_failure(
                            idx, spec, f"{type(exc).__name__}: {exc}",
                            attempt, time.perf_counter() - start,
                            outcomes)
                        abort = self.fail_fast
                        break
                    except Exception as exc:  # noqa: BLE001 - structured
                        span.args["status"] = "failed"
                        self._record_failure(
                            idx, spec, f"{type(exc).__name__}: {exc}",
                            attempt, time.perf_counter() - start,
                            outcomes)
                        abort = self.fail_fast
                        break
                    span.args["status"] = "ok"
                    span.args["cycles"] = summary.total_cycles
                    self._record_success(idx, spec, summary, attempt,
                                         time.perf_counter() - start,
                                         outcomes)
                    break

    # ------------------------------------------------------------------
    def _run_parallel(self, pending, outcomes) -> None:
        queue: List[Tuple[int, JobSpec, int]] = [
            (idx, spec, 1) for idx, spec in pending
        ]
        round_no = 0
        abort = False
        while queue and not abort:
            round_no += 1
            if round_no > 1:
                # Everything queued here is a transient retry; back
                # off once per round, scaled by how many rounds the
                # batch has already burned.
                self._sleep_backoff(round_no - 1)
            batch, queue = queue, []
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(batch))
            )
            futures = []
            try:
                for idx, spec, attempt in batch:
                    self.telemetry.emit("started", spec, attempt=attempt)
                    fault = (self.faults.worker_fault(idx, attempt)
                             if self.faults is not None else None)
                    futures.append(
                        (idx, spec, attempt, time.perf_counter(),
                         pool.submit(_worker_entry, spec, fault))
                    )
                for idx, spec, attempt, start, future in futures:
                    if abort:
                        future.cancel()
                        self._record_skipped(idx, spec, outcomes)
                        continue
                    try:
                        data = _absorb_profile(
                            future.result(timeout=self.timeout))
                        wall = time.perf_counter() - start
                        self.tracer.add_span(
                            f"job:{spec.label}", "job",
                            self.tracer.now_us() - wall * 1e6,
                            wall * 1e6, tid="engine", status="ok")
                        self._record_success(
                            idx, spec, RunSummary.from_dict(data),
                            attempt, wall, outcomes)
                    except FutureTimeoutError:
                        future.cancel()
                        self._record_failure(
                            idx, spec,
                            f"timed out after {self.timeout}s", attempt,
                            time.perf_counter() - start, outcomes)
                        abort = abort or self.fail_fast
                    except BrokenProcessPool:
                        # The worker process died.  Retry on a fresh
                        # pool; siblings caught in the same pool
                        # collapse are requeued for free.
                        if attempt <= self.retries:
                            self._note_retry(spec, attempt, "crash")
                            queue.append((idx, spec, attempt + 1))
                        else:
                            self._record_failure(
                                idx, spec,
                                "worker process crashed", attempt,
                                time.perf_counter() - start, outcomes)
                            abort = abort or self.fail_fast
                    except TransientError as exc:
                        # Raised inside the worker and pickled back,
                        # but explicitly marked worth retrying.
                        if attempt <= self.retries:
                            self._note_retry(spec, attempt, "transient")
                            queue.append((idx, spec, attempt + 1))
                        else:
                            self._record_failure(
                                idx, spec,
                                f"{type(exc).__name__}: {exc}", attempt,
                                time.perf_counter() - start, outcomes)
                            abort = abort or self.fail_fast
                    except Exception as exc:  # noqa: BLE001
                        # Raised *inside* the worker and pickled back:
                        # deterministic, so fail without a retry.
                        self._record_failure(
                            idx, spec, f"{type(exc).__name__}: {exc}",
                            attempt, time.perf_counter() - start,
                            outcomes)
                        abort = abort or self.fail_fast
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
        # A fail-fast abort abandons anything still queued for retry.
        for idx, spec, _attempt in queue:
            self._record_skipped(idx, spec, outcomes)


# ----------------------------------------------------------------------
def run_specs(
    specs: Sequence[JobSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[Telemetry] = None,
    timeout: Optional[float] = None,
) -> List[JobOutcome]:
    """One-shot convenience wrapper around :class:`BatchEngine`."""
    return BatchEngine(jobs=jobs, cache=cache, telemetry=telemetry,
                       timeout=timeout).run(specs)


def raise_on_failures(outcomes: Sequence[JobOutcome]) -> None:
    """Raise one :class:`ReproError` naming every failed job."""
    failed = [o for o in outcomes if not o.ok]
    if not failed:
        return
    details = "; ".join(
        f"{o.spec.label}: {o.error}" for o in failed[:5]
    )
    more = f" (+{len(failed) - 5} more)" if len(failed) > 5 else ""
    raise ReproError(
        f"{len(failed)} of {len(outcomes)} jobs failed: {details}{more}"
    )
