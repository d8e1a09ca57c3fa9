"""Experiment runner shared by every benchmark module.

Each paper figure boils down to "run algorithm X under schedules S on
graphs G with configuration C; report cycles/speedups/breakdowns" —
this module is that loop, once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.errors import ReproError
from repro.frontend.framework import GraphProcessor, RunResult
from repro.frontend.udf import Algorithm
from repro.graph.csr import CSRGraph
from repro.sim.config import GPUConfig


@dataclass
class ExperimentResult:
    """Cycles per (graph, schedule) cell plus full run objects.

    ``runs`` cells are full :class:`RunResult` objects from
    :func:`run_schedule_comparison` and
    :class:`~repro.runtime.cache.RunSummary` objects when a figure
    folds batch-engine cells — both expose ``.stats`` /
    ``.total_cycles``.
    """

    cycles: Dict[str, Dict[str, int]] = field(default_factory=dict)
    runs: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def speedups(self, baseline: str = "vertex_map") -> Dict[str, Dict[str, float]]:
        """Per-graph speedups of every schedule over ``baseline``."""
        out: Dict[str, Dict[str, float]] = {}
        for graph_name, per_sched in self.cycles.items():
            if baseline not in per_sched:
                raise ReproError(
                    f"baseline schedule {baseline!r} was not run for "
                    f"graph {graph_name!r}; available schedules: "
                    f"{sorted(per_sched)}"
                )
            base = per_sched[baseline]
            out[graph_name] = {
                sched: base / c if c else float("inf")
                for sched, c in per_sched.items()
            }
        return out

    def geomean_speedups(self, baseline: str = "vertex_map") -> Dict[str, float]:
        """Geometric-mean speedup per schedule across graphs."""
        per_graph = self.speedups(baseline)
        scheds = next(iter(per_graph.values())).keys() if per_graph else []
        return {
            sched: geomean([per_graph[g][sched] for g in per_graph])
            for sched in scheds
        }


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (1.0 for an empty sequence)."""
    values = [v for v in values]
    if not values:
        return 1.0
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


def run_single(
    algorithm: Algorithm,
    graph: CSRGraph,
    schedule: str,
    config: Optional[GPUConfig] = None,
    max_iterations: Optional[int] = None,
    symmetrize: bool = False,
    engine: Optional[str] = None,
    **processor_kwargs,
) -> RunResult:
    """One (algorithm, graph, schedule) run.

    ``engine`` selects the simulator execution engine by name (see
    :mod:`repro.sim.engines`); it changes wall-clock speed only, never
    simulated results.
    """
    proc = GraphProcessor(
        algorithm, schedule=schedule, config=config,
        symmetrize=symmetrize, engine=engine, **processor_kwargs,
    )
    return proc.run(graph, max_iterations=max_iterations)


def run_schedule_comparison(
    algorithm_factory: Callable[[], Algorithm],
    graphs: Dict[str, CSRGraph],
    schedules: Sequence[str],
    *,
    config: Optional[GPUConfig] = None,
    max_iterations: Optional[int] = None,
    symmetrize: bool = False,
) -> ExperimentResult:
    """The Fig. 10-style grid: every schedule on every graph, serially.

    ``algorithm_factory`` is called per run so trials never share
    mutable state.  Everything after ``schedules`` is keyword-only.
    Parallel or cached grids go through
    :class:`~repro.runtime.engine.BatchEngine`, as the figures do.
    """
    result = ExperimentResult()
    for graph_name, graph in graphs.items():
        result.cycles[graph_name] = {}
        result.runs[graph_name] = {}
        for sched in schedules:
            run = run_single(
                algorithm_factory(), graph, sched, config=config,
                max_iterations=max_iterations, symmetrize=symmetrize,
            )
            result.cycles[graph_name][sched] = run.stats.total_cycles
            result.runs[graph_name][sched] = run
    return result
