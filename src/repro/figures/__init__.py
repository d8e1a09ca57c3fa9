"""Unified figure registry: every paper benchmark behind one API.

Each figure/table of the paper (plus the repo's own ablations and
calibration microbenchmarks) is a registered :class:`Figure` that
declares its simulation grid as :class:`~repro.runtime.jobspec.JobSpec`
data and folds engine summaries back into the rows/series the paper
reports.  One driver executes any subset through the
:class:`~repro.runtime.engine.BatchEngine` — parallel, cached,
telemetered — so ``repro bench --figures fig10,fig11 --jobs 8``
regenerates paper outputs incrementally (a second run is all cache
hits).

Each figure's :meth:`~repro.figures.registry.Figure.check` holds the
paper-shape claims its output must keep at the default scale; the
driver evaluates them on every non-smoke run, so ``repro bench``
regenerates the artifacts and checks the paper's shapes in one pass.
"""

from repro.figures.registry import (
    DEFAULT_SCALE,
    SMOKE_SCALE,
    Figure,
    FigureContext,
    FigureOutput,
    figure_names,
    get_figure,
    list_figures,
    register,
    resolve_figures,
)
from repro.figures.driver import (
    FailureReport,
    JobFailure,
    ResultSet,
    expand_jobs,
    run_figure,
    run_figures,
    run_figures_report,
)

__all__ = [
    "DEFAULT_SCALE",
    "SMOKE_SCALE",
    "FailureReport",
    "Figure",
    "FigureContext",
    "FigureOutput",
    "JobFailure",
    "ResultSet",
    "expand_jobs",
    "figure_names",
    "get_figure",
    "list_figures",
    "register",
    "resolve_figures",
    "run_figure",
    "run_figures",
    "run_figures_report",
]
