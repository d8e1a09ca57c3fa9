"""Execute registered figures through the batch engine.

The driver is the one loop the 21 benchmark scripts used to re-code:
collect every selected figure's grid, deduplicate cells shared between
figures, submit the whole batch through one
:class:`~repro.runtime.engine.BatchEngine` (parallel workers, shared
:class:`~repro.runtime.cache.ResultCache`, one telemetry stream), then
hand each figure its results to summarize.

Grid expansion order is *deterministic*: the merged batch is sorted by
:meth:`JobSpec.content_hash` — never by dict/registration order — so
cache keys, telemetry streams and emitted result rows are stable
across runs and across ``--jobs`` values.  Figures look results up by
spec, not by index, so the global ordering is invisible to them.

Failure handling comes in two shapes: :func:`run_figures` raises when
anything did not finish (every figure or nothing), while
:func:`run_figures_report` degrades gracefully — it returns the
figures whose jobs all completed plus a structured
:class:`FailureReport` naming every failed job, every figure skipped
because of one and, outside smoke runs, every paper-shape claim a
figure's :meth:`~repro.figures.registry.Figure.check` found broken,
so a long batch with one bad cell still yields the other N-1 figures,
and a rerun against the same cache simulates only what did not
finish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, ReproError
from repro.figures.registry import (Figure, FigureContext, FigureOutput,
                                    get_figure, resolve_figures)
from repro.runtime.cache import ResultCache, RunSummary
from repro.runtime.engine import BatchEngine, JobOutcome
from repro.runtime.jobspec import JobSpec
from repro.runtime.telemetry import Telemetry
from repro.sim.stats import KernelStats


class ResultSet:
    """Engine outcomes indexed by job spec.

    Figures rebuild their specs in ``summarize`` and look summaries up
    here — content-equal specs hash equal, so the lookup works across
    the build/summarize boundary regardless of batch order.
    """

    def __init__(self, outcomes: Iterable) -> None:
        self._by_spec = {o.spec: o for o in outcomes}

    def __len__(self) -> int:
        return len(self._by_spec)

    def __contains__(self, spec: JobSpec) -> bool:
        return spec in self._by_spec

    def outcome(self, spec: JobSpec) -> Optional[JobOutcome]:
        """The raw engine outcome for ``spec`` (``None`` if unknown)."""
        return self._by_spec.get(spec)

    def ok(self, spec: JobSpec) -> bool:
        """Whether ``spec`` ran and carries a usable summary."""
        outcome = self._by_spec.get(spec)
        return outcome is not None and outcome.ok

    def summary(self, spec: JobSpec) -> RunSummary:
        """The run summary for ``spec`` (raises on unknown/failed)."""
        outcome = self._by_spec.get(spec)
        if outcome is None:
            raise ReproError(
                f"no result for job {spec.label!r} "
                f"({spec.content_hash()[:12]}); was it in build_jobs()?"
            )
        if outcome.summary is None:
            raise ReproError(
                f"job {spec.label!r} failed: {outcome.error}")
        return outcome.summary

    def __getitem__(self, spec: JobSpec) -> RunSummary:
        return self.summary(spec)

    def cycles(self, spec: JobSpec) -> int:
        """Total simulated cycles of ``spec``'s run."""
        return self.summary(spec).total_cycles

    def stats(self, spec: JobSpec) -> KernelStats:
        """The full (round-tripped) kernel stats of ``spec``'s run."""
        return self.summary(spec).stats

    def digest_ledger(self, spec: JobSpec):
        """The provenance digest ledger of ``spec``'s run, or ``None``.

        Populated only on ``REPRO_DIGEST=1`` runs — see
        :mod:`repro.obs.provenance` and ``repro diff``.
        """
        return self.summary(spec).digest_ledger


def expand_jobs(
    figures: Sequence[Figure], ctx: FigureContext,
) -> Tuple[List[JobSpec], Dict[str, List[JobSpec]]]:
    """Collect every figure's grid into one deterministic batch.

    Returns the merged batch — deduplicated, sorted by content hash —
    plus the per-figure job lists (for reporting).
    """
    per_figure: Dict[str, List[JobSpec]] = {}
    merged: Dict[str, JobSpec] = {}
    for figure in figures:
        jobs = list(figure.build_jobs(ctx))
        per_figure[figure.name] = jobs
        for spec in jobs:
            merged[spec.content_hash()] = spec
    batch = [merged[h] for h in sorted(merged)]
    return batch, per_figure


def _apply_sim_engine(batch: List[JobSpec],
                      sim_engine: Optional[str]) -> List[JobSpec]:
    """Stamp a simulator engine onto every spec in a batch.

    ``JobSpec.engine`` is excluded from equality and content hashing,
    so the stamped specs keep their cache addresses and still match
    the engine-less specs figures rebuild in ``summarize``.
    """
    if sim_engine is None:
        return batch
    return [dc_replace(spec, engine=sim_engine) for spec in batch]


@dataclass
class JobFailure:
    """One failed (or skipped) job in a figure batch."""

    label: str
    job: str  # short content hash
    status: str  # "failed" | "skipped"
    error: str


@dataclass
class FailureReport:
    """Structured account of what a figure batch did not finish.

    ``failures`` lists every failed/skipped job; ``skipped_figures``
    names the figures that could not summarize because one of their
    jobs is in ``failures``; ``broken_claims`` lists ``(figure,
    claim)`` for each paper-shape claim a summarized figure's check
    yielded.  An empty report (``ok``) means the batch completed fully
    and every claim held.
    """

    total_jobs: int = 0
    completed_jobs: int = 0
    failures: List[JobFailure] = field(default_factory=list)
    skipped_figures: List[str] = field(default_factory=list)
    broken_claims: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.broken_claims

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[JobOutcome]
                      ) -> "FailureReport":
        report = cls(total_jobs=len(outcomes))
        for outcome in outcomes:
            if outcome.ok:
                report.completed_jobs += 1
            else:
                report.failures.append(JobFailure(
                    label=outcome.spec.label,
                    job=outcome.spec.content_hash()[:12],
                    status=outcome.status,
                    error=outcome.error or "",
                ))
        return report

    def format(self) -> str:
        """Human-readable failure table (for stderr)."""
        lines = []
        if self.failures:
            lines.append(
                f"{len(self.failures)} of {self.total_jobs} job(s) did "
                f"not complete ({self.completed_jobs} ok):")
        for f in self.failures:
            lines.append(f"  {f.status:<7} {f.label} [{f.job}]: "
                         f"{f.error}")
        if self.skipped_figures:
            lines.append("figures skipped: "
                         + ", ".join(self.skipped_figures))
        if self.broken_claims:
            lines.append(f"{len(self.broken_claims)} paper-shape "
                         "claim(s) broken:")
        for figure, claim in self.broken_claims:
            lines.append(f"  {figure}: {claim}")
        return "\n".join(lines)


def _resolve_figure_list(
    figures: Union[Sequence[str], Sequence[Figure]],
) -> List[Figure]:
    """Names/prefixes/instances -> deduplicated, sorted Figure list."""
    resolved: List[Figure] = []
    names: List[str] = []
    for entry in figures:
        if isinstance(entry, Figure):
            resolved.append(entry)
        else:
            names.append(entry)
    if names:
        resolved.extend(resolve_figures(names))
    # De-duplicate while preserving a deterministic (sorted) order.
    unique = {fig.name: fig for fig in resolved}
    return [unique[name] for name in sorted(unique)]


def run_figures_report(
    figures: Union[Sequence[str], Sequence[Figure]],
    ctx: Optional[FigureContext] = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[Telemetry] = None,
    engine: Optional[BatchEngine] = None,
    journal=None,
    policy: str = "keep_going",
    sim_engine: Optional[str] = None,
) -> Tuple[Dict[str, FigureOutput], FailureReport]:
    """Regenerate figures with graceful degradation.

    Failed jobs do not raise: the figures whose jobs all completed are
    summarized and returned, the rest are named in the accompanying
    :class:`FailureReport`.  Unless ``ctx.smoke``, each summarized
    figure's :meth:`~repro.figures.registry.Figure.check` runs on its
    output and every claim it yields joins the report.
    ``policy`` is ``"keep_going"`` (default: run everything, report
    failures at the end) or ``"fail_fast"`` (stop scheduling at the
    first failure; unreached jobs come back ``"skipped"``).
    ``journal`` takes a :class:`~repro.runtime.journal.RunJournal`
    that records each finished or cached job as it ends.
    ``sim_engine`` stamps a simulator engine name (``reference`` /
    ``fast`` / ``auto``) onto every job; engines are bit-identical, so
    it changes wall-clock speed only, never results or cache keys.
    """
    if policy not in ("keep_going", "fail_fast"):
        raise ConfigError(
            f"unknown failure policy {policy!r}; expected 'keep_going' "
            f"or 'fail_fast'")
    ctx = ctx or FigureContext()
    ordered = _resolve_figure_list(figures)

    batch, per_figure = expand_jobs(ordered, ctx)
    batch = _apply_sim_engine(batch, sim_engine)
    if engine is None:
        engine = BatchEngine(jobs=jobs, cache=cache, telemetry=telemetry,
                             journal=journal,
                             fail_fast=(policy == "fail_fast"))
    elif (jobs is not None or cache is not None or telemetry is not None
          or journal is not None):
        raise ReproError(
            "pass either a prebuilt engine or jobs=/cache=/telemetry=/"
            "journal=, not both")
    outcomes = engine.run(batch)
    results = ResultSet(outcomes)
    report = FailureReport.from_outcomes(outcomes)

    outputs: Dict[str, FigureOutput] = {}
    for fig in ordered:
        if not all(results.ok(spec) for spec in per_figure[fig.name]):
            report.skipped_figures.append(fig.name)
            continue
        out = outputs[fig.name] = fig.summarize(ctx, results)
        if not ctx.smoke:
            report.broken_claims.extend(
                (fig.name, claim) for claim in fig.check(out))
    return outputs, report


def run_figures(
    figures: Union[Sequence[str], Sequence[Figure]],
    ctx: Optional[FigureContext] = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[Telemetry] = None,
    sim_engine: Optional[str] = None,
) -> Dict[str, FigureOutput]:
    """Regenerate a set of figures; returns name -> output.

    ``figures`` may be Figure objects or names/prefixes (resolved via
    :func:`~repro.figures.registry.resolve_figures`).  ``jobs`` /
    ``cache`` / ``telemetry`` configure the shared engine; a warm
    cache turns the whole batch into lookups — a second identical run
    simulates nothing.  A failed job or a broken claim raises
    :class:`~repro.errors.ReproError` with the
    :class:`FailureReport`'s text; use :func:`run_figures_report` to
    degrade gracefully instead.
    """
    outputs, report = run_figures_report(
        figures, ctx, jobs=jobs, cache=cache, telemetry=telemetry,
        sim_engine=sim_engine)
    if not report.ok:
        raise ReproError(report.format())
    return outputs


def run_figure(
    name: Union[str, Figure],
    ctx: Optional[FigureContext] = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[Telemetry] = None,
    sim_engine: Optional[str] = None,
) -> FigureOutput:
    """Regenerate one figure (name, prefix-unique name, or instance)."""
    figure = name if isinstance(name, Figure) else get_figure(name)
    outputs = run_figures([figure], ctx, jobs=jobs, cache=cache,
                          telemetry=telemetry, sim_engine=sim_engine)
    return outputs[figure.name]
