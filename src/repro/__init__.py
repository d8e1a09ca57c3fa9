"""SparseWeaver (HPCA 2025) reproduction.

A hardware/software co-designed graph-processing framework: the Weaver
unit converts sparse gather operations into dense, SIMD-friendly work
distribution. This package reproduces the paper's system on a
cycle-level Python simulator of a Vortex-like GPU.

Quickstart::

    from repro import GraphProcessor, make_algorithm, powerlaw_graph

    graph = powerlaw_graph(2_000, 12_000, seed=1)
    proc = GraphProcessor(make_algorithm("pagerank"), schedule="sparseweaver")
    result = proc.run(graph)
    print(result.values[:5], result.total_cycles)

Layers (see DESIGN.md for the full inventory):

* :mod:`repro.graph` — CSR storage, generators, dataset analogs.
* :mod:`repro.sim` — the cycle-level SIMT GPU simulator.
* :mod:`repro.core` — the Weaver FSM/tables/unit, ISA, EGHW, area model.
* :mod:`repro.sched` — scheduling schemes (software baselines + SW + EGHW).
* :mod:`repro.frontend` — UDF model and the GraphProcessor driver.
* :mod:`repro.algorithms` — PR, BFS, SSSP, CC, GCN.
* :mod:`repro.bench` — schedule-comparison results and report formatting.
* :mod:`repro.runtime` — parallel batch engine, result cache, run journal.
* :mod:`repro.figures` — the paper-figure registry and engine driver.
"""

from repro.errors import (
    AlgorithmError,
    ConfigError,
    GraphError,
    ReproError,
    ScheduleError,
    SimulationError,
    WeaverError,
)
from repro.graph import (
    CSRGraph,
    dataset,
    dataset_names,
    from_edge_list,
    powerlaw_graph,
)
from repro.sim import (
    GPU,
    GPUConfig,
    KernelStats,
    SimulatorEngine,
    available_engines,
    get_engine,
)
from repro.core import WeaverAreaModel, WeaverFSM, WeaverUnit
from repro.sched import (ALL_SCHEDULES, EXTENDED_SCHEDULES,
                         SOFTWARE_SCHEDULES, make_schedule)
from repro.frontend import Algorithm, Direction, GraphProcessor, RunResult
from repro.algorithms import make_algorithm, algorithm_names
from repro.runtime import (
    AlgorithmSpec,
    BatchEngine,
    GraphSpec,
    JobSpec,
    ResultCache,
    RunJournal,
)
from repro.figures import (
    FailureReport,
    Figure,
    FigureContext,
    FigureOutput,
    figure_names,
    list_figures,
    run_figure,
    run_figures,
    run_figures_report,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GraphError",
    "ConfigError",
    "SimulationError",
    "WeaverError",
    "ScheduleError",
    "AlgorithmError",
    "CSRGraph",
    "from_edge_list",
    "powerlaw_graph",
    "dataset",
    "dataset_names",
    "GPU",
    "GPUConfig",
    "KernelStats",
    "SimulatorEngine",
    "get_engine",
    "available_engines",
    "WeaverFSM",
    "WeaverUnit",
    "WeaverAreaModel",
    "ALL_SCHEDULES",
    "EXTENDED_SCHEDULES",
    "SOFTWARE_SCHEDULES",
    "make_schedule",
    "Algorithm",
    "Direction",
    "GraphProcessor",
    "RunResult",
    "make_algorithm",
    "algorithm_names",
    "AlgorithmSpec",
    "BatchEngine",
    "GraphSpec",
    "JobSpec",
    "ResultCache",
    "RunJournal",
    "FailureReport",
    "Figure",
    "FigureContext",
    "FigureOutput",
    "figure_names",
    "list_figures",
    "run_figure",
    "run_figures",
    "run_figures_report",
    "__version__",
]
