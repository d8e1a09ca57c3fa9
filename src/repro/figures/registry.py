"""The figure registry: every paper figure/table as declarative data.

A :class:`Figure` names one regenerable paper artifact and declares

* :meth:`Figure.build_jobs` — the simulation grid as a list of
  :class:`~repro.runtime.jobspec.JobSpec` (possibly empty for analytic
  or model-only figures), and
* :meth:`Figure.summarize` — the fold from engine summaries back into
  the formatted rows/series the paper reports, and
* :meth:`Figure.check` — the paper-shape claims that output must keep,
  evaluated by the driver on every non-smoke run.

Declaring grids as data (instead of re-coding the loop per benchmark)
is what lets one driver execute any subset of figures through the
:class:`~repro.runtime.engine.BatchEngine` with a shared result cache
and telemetry — the GraphIt-style "schedules are data" discipline
applied to the experiment harness itself.

Figures register at import of :mod:`repro.figures.defs`; the registry
loads lazily so ``import repro`` stays light.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.errors import ReproError
from repro.sim.config import GPUConfig

#: The dataset-analog scale every benchmark default assumes; a
#: context's ``scale`` rescales relative to this (see
#: :meth:`FigureContext.rescale`).
DEFAULT_SCALE = 0.25

#: Scale used by ``--smoke`` runs (CI health checks, registry tests).
SMOKE_SCALE = 0.05


@dataclass
class FigureContext:
    """Execution-wide knobs shared by every figure in a run.

    ``scale`` is the base dataset-analog scale (figures that use a
    non-default scale express theirs *relative* to it through
    :meth:`rescale`, so one knob shrinks every grid coherently).
    ``smoke`` asks figures to trim sweeps to a representative handful
    of points — CI uses it for a fast end-to-end pass whose outputs
    are health checks, not paper shapes, so the driver evaluates no
    :meth:`Figure.check` under it.  ``config`` overrides the
    benchmark GPU preset for figures that do not pin their own.
    """

    scale: float = DEFAULT_SCALE
    smoke: bool = False
    config: Optional[GPUConfig] = None

    @classmethod
    def smoke_context(cls, scale: float = SMOKE_SCALE) -> "FigureContext":
        """The tiny-scale context ``repro bench --smoke`` runs under."""
        return cls(scale=scale, smoke=True)

    def gpu_config(self) -> GPUConfig:
        """The default GPU preset for figures without their own."""
        return self.config or GPUConfig.vortex_bench()

    def rescale(self, scale: float) -> float:
        """Map a figure's literal scale onto this context's base.

        At the default context this is the identity, so figure grids
        are bit-identical to the pre-registry benchmark scripts; a
        smoke context shrinks every dataset proportionally.
        """
        return scale * (self.scale / DEFAULT_SCALE)

    def trim(self, values: Sequence, smoke_count: int) -> List:
        """Full sweep normally; the first ``smoke_count`` points under
        ``smoke`` (sweeps stay representative but cheap)."""
        values = list(values)
        if self.smoke:
            return values[:max(1, smoke_count)]
        return values


@dataclass
class FigureOutput:
    """What regenerating one figure produces.

    ``blocks`` maps artifact name -> formatted text — exactly the
    ``benchmarks/results/<name>.txt`` files ``repro bench`` writes.
    ``data`` carries the structured values (cycles, speedups, stats
    objects) the figure's :meth:`Figure.check` reads.
    """

    name: str
    blocks: Dict[str, str] = field(default_factory=dict)
    data: Dict[str, Any] = field(default_factory=dict)


class Figure:
    """One registered paper figure/table.

    Subclasses (or instances) set ``name`` (registry key, also the
    prefix the CLI matches), ``title`` (one-line description) and
    ``paper`` (the paper artifact it regenerates, e.g. ``"Fig. 10"``).

    ``build_jobs`` must be deterministic for a given context — the
    driver relies on rebuilt specs hashing to the same content
    addresses in :meth:`summarize` lookups, and the result cache keys
    on them across processes and runs.
    """

    name: str = ""
    title: str = ""
    paper: str = ""

    def build_jobs(self, ctx: FigureContext):
        """The figure's simulation grid; [] for model-only figures."""
        return []

    def summarize(self, ctx: FigureContext, results) -> FigureOutput:
        """Fold engine results into formatted blocks + checkable data.

        ``results`` is a :class:`~repro.figures.driver.ResultSet`
        answering spec -> :class:`~repro.runtime.cache.RunSummary`;
        figures look their cells up by rebuilding the same specs.
        Model-only figures compute everything here.
        """
        raise NotImplementedError

    def check(self, out: FigureOutput) -> Iterator[str]:
        """Yield the text of each paper-shape claim ``out`` breaks.

        The claims hold at the default scale; the driver evaluates
        them on every non-smoke context, where a yielded claim fails
        the run.  Compare explicitly: an ``assert`` vanishes under
        ``python -O``.
        """
        raise NotImplementedError

    def output(self, blocks: Dict[str, str], **data) -> FigureOutput:
        """Convenience constructor for :class:`FigureOutput`."""
        return FigureOutput(self.name, dict(blocks), data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Figure {self.name!r} ({self.paper})>"


# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Figure] = {}
_LOADED = False


def register(figure) -> Figure:
    """Add a figure to the registry (import-time side effect of
    :mod:`repro.figures.defs`); names must be unique.

    Usable as a class decorator (the class is instantiated with no
    arguments) or called with a prebuilt instance; returns whatever it
    was given so decorated names stay bound to the class.
    """
    instance = figure() if isinstance(figure, type) else figure
    if not instance.name:
        raise ReproError("figures must set a non-empty name")
    if instance.name in _REGISTRY:
        raise ReproError(f"duplicate figure name {instance.name!r}")
    _REGISTRY[instance.name] = instance
    return figure


def _ensure_loaded() -> None:
    global _LOADED
    if not _LOADED:
        _LOADED = True
        import repro.figures.defs  # noqa: F401 - registration side effect


def figure_names() -> List[str]:
    """Every registered figure name, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def list_figures() -> List[Figure]:
    """Every registered figure, sorted by name."""
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_figure(name: str) -> Figure:
    """Look one figure up by exact name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown figure {name!r}; run `repro bench --list` or see "
            f"repro.figures.figure_names()"
        ) from None


def resolve_figures(patterns: Sequence[str]) -> List[Figure]:
    """Expand CLI-style patterns into figures.

    Each pattern matches exactly, or as a name prefix (``fig10`` ->
    all four ``fig10_*`` grids; ``ablation`` -> every ablation).
    Unknown patterns raise; duplicates collapse; the result is sorted
    by figure name.
    """
    _ensure_loaded()
    picked: Dict[str, Figure] = {}
    for pattern in patterns:
        if pattern in _REGISTRY:
            picked[pattern] = _REGISTRY[pattern]
            continue
        hits = {name: fig for name, fig in _REGISTRY.items()
                if name.startswith(pattern)}
        if not hits:
            raise ReproError(
                f"no figure matches {pattern!r}; known: "
                + ", ".join(sorted(_REGISTRY)))
        picked.update(hits)
    return [picked[name] for name in sorted(picked)]
