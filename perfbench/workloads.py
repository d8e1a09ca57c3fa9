"""The benchmark's workloads: seeded inputs, one round of work, checks.

A *round* is a fixed set of simulation jobs; the runner repeats rounds
until its time budget is spent.  Every workload builds its inputs from
the seed alone and runs the same jobs each round.  Afterwards the
program's outputs are checked three ways: across rounds (the
simulator is deterministic, see ``run.py``), against an oracle, and
across engines (jobs are re-run on the ``reference`` engine, whose
cycles and values every engine must match bit for bit).
"""

from __future__ import annotations

import dataclasses
import random
import sys
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import BatchEngine, GraphProcessor, make_algorithm, powerlaw_graph
from repro.figures import FigureContext, list_figures
from repro.figures.driver import ResultSet, expand_jobs
from repro.frontend import reference
from repro.graph.datasets import dataset_spec
from repro.graph.generators import road_grid_graph
from repro.runtime.cache import values_digest


@dataclasses.dataclass
class JobRun:
    """One simulation job of a round."""

    label: str
    seconds: float
    cycles: int = 0
    #: What must repeat exactly across rounds: cycles and values.
    fingerprint: Any = None
    error: Optional[str] = None


def _failure(label: str) -> str:
    """Log the active exception to stderr; return a one-line reason."""
    traceback.print_exc(file=sys.stderr)
    exc = sys.exc_info()[1]
    return f"{label}: {type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# Library workloads: GraphProcessor runs on seeded generator graphs
# ----------------------------------------------------------------------
#: Graph shapes: skewed power-law graphs (hub vertices, the case the
#: Weaver unit targets) and a near-regular road lattice.  Host work on
#: one power-law graph varies by about 7% between seeds, so a round
#: spreads it over several independent instances.
POWERLAW = dict(num_vertices=1000, num_edges=5000, exponent=2.1)
POWERLAW_GRAPHS = tuple(f"powerlaw{i}" for i in range(3))
ROAD_SIDE = 32

def _hub(graph) -> int:
    """BFS source: the highest-degree vertex, so every seed's search
    starts in the giant component (a random vertex may be isolated)."""
    return int(np.argmax(graph.degrees))


def _algorithm(alg: str, graph):
    if alg == "bfs":
        return make_algorithm("bfs", source=_hub(graph))
    return make_algorithm("pagerank", iterations=3)


def _oracle(alg: str, graph) -> np.ndarray:
    """The pure NumPy result a job's values must match."""
    if alg == "bfs":
        return reference.bfs_levels(graph, _hub(graph))
    return reference.pagerank(graph, iterations=3)


def _fingerprint(result) -> Tuple[int, str]:
    return result.total_cycles, values_digest(result.values)


def build_graphs(seed: int) -> Dict[str, Any]:
    """The workload graphs for ``seed`` (same seed, same arrays)."""
    *powerlaw_seeds, road_seed = np.random.SeedSequence(
        seed).generate_state(len(POWERLAW_GRAPHS) + 1)
    graphs = {name: powerlaw_graph(seed=int(graph_seed), **POWERLAW)
              for name, graph_seed in zip(POWERLAW_GRAPHS, powerlaw_seeds)}
    graphs["road"] = road_grid_graph(ROAD_SIDE, seed=int(road_seed))
    return graphs


class GraphWorkload:
    """(algorithm, schedule, graph) jobs through ``GraphProcessor``."""

    def __init__(self, engine: str,
                 jobs: List[Tuple[str, str, str]]) -> None:
        self.engine = engine
        self.jobs = jobs

    def build(self, seed: int, engine: str) -> list:
        graphs = build_graphs(seed)
        return [
            (f"{alg}/{schedule}/{graph}",
             GraphProcessor(_algorithm(alg, graphs[graph]),
                            schedule=schedule, engine=engine),
             graphs[graph], alg)
            for alg, schedule, graph in self.jobs
        ]

    def run_round(self, inputs, clock) -> List[JobRun]:
        return [clock.run(self._run_job, label, proc, graph)
                for label, proc, graph, _alg in inputs]

    @staticmethod
    def _run_job(label: str, proc, graph) -> JobRun:
        start = perf_counter()
        try:
            result = proc.run(graph)
        except Exception:  # one failed job must not end the run
            return JobRun(label, perf_counter() - start,
                          error=_failure(label))
        return JobRun(label, perf_counter() - start, result.total_cycles,
                      _fingerprint(result))

    def check(self, inputs, first: List[JobRun]) -> List[str]:
        """Re-run each job on the reference engine: the run must match
        it bit for bit, and its values must match the oracle."""
        errors = []
        for (label, proc, graph, alg), run in zip(inputs, first):
            if run.error:
                continue
            ref = GraphProcessor(proc.algorithm, schedule=proc.schedule.name,
                                 engine="reference").run(graph)
            if _fingerprint(ref) != run.fingerprint:
                errors.append(f"{label}: cycles or values differ from the "
                              "reference engine")
            want = np.asarray(_oracle(alg, graph), dtype=float)
            if not np.allclose(ref.values.astype(float), want, rtol=0.0,
                               atol=1e-9):
                errors.append(f"{label}: values differ from the oracle")
        return errors


# ----------------------------------------------------------------------
# Registry workload: every paper figure through the batch engine
# ----------------------------------------------------------------------
#: Jobs re-run on the reference engine as the cross-engine check.
PARITY_SAMPLE = 12

#: Jobs per timed batch-engine call: short enough that the calibrations
#: around it track host-speed changes (a pass is about 18 chunks).
CHUNK_JOBS = 8


def _job_label(spec) -> str:
    return f"{spec.label} [{spec.content_hash()[:12]}]"


class RegistryWorkload:
    """Every registered figure at smoke scale, one pass per round.

    The batch ``repro bench --smoke`` runs: job grids expanded and
    content-hashed by the figure driver, simulated serially by the
    batch engine, then summarized into figure outputs.  Figures have
    fixed datasets, so the seed shuffles the order jobs are submitted
    in; results do not depend on it.
    """

    engine = "auto"

    def __init__(self) -> None:
        self.ctx = FigureContext.smoke_context()

    def build(self, seed: int, engine: str):
        figures = list_figures()
        batch, _per_figure = expand_jobs(figures, self.ctx)
        graphs = {(spec.graph.kind, spec.graph.name, spec.graph.params):
                  spec.graph for spec in batch}
        for (kind, name, params), graph in graphs.items():
            # Build each graph fresh: GraphSpec.build memoizes datasets.
            if kind == "dataset":
                dataset_spec(name).instantiate(**dict(params))
            else:
                graph.build()
        order = [dataclasses.replace(spec, engine=engine) for spec in batch]
        random.Random(seed).shuffle(order)
        return figures, order

    def run_round(self, inputs, clock) -> List[JobRun]:
        figures, batch = inputs
        engine = BatchEngine(jobs=1)
        outcomes = []
        for start in range(0, len(batch), CHUNK_JOBS):
            outcomes += clock.run(engine.run,
                                  batch[start:start + CHUNK_JOBS])
        runs = []
        for outcome in outcomes:
            label = _job_label(outcome.spec)
            if not outcome.ok:
                runs.append(JobRun(label, outcome.wall_seconds,
                                   error=f"{label}: {outcome.error}"))
                continue
            summary = outcome.summary
            runs.append(JobRun(label, outcome.wall_seconds,
                               summary.total_cycles,
                               (summary.total_cycles,
                                summary.values_digest)))
        return runs + clock.run(self._summarize, figures, outcomes)

    def _summarize(self, figures, outcomes) -> List[JobRun]:
        """Fold the pass into figure outputs; a failure is a job run."""
        results = ResultSet(outcomes)
        failed = []
        for figure in figures:
            try:
                figure.summarize(self.ctx, results)
            except Exception:  # report the figure, keep the run going
                failed.append(JobRun(f"summarize/{figure.name}", 0.0,
                                     error=_failure(figure.name)))
        return failed

    def check(self, inputs, first: List[JobRun]) -> List[str]:
        _figures, batch = inputs
        by_label = {run.label: run for run in first}
        sample = random.Random(len(batch)).sample(
            batch, min(PARITY_SAMPLE, len(batch)))
        errors = []
        for outcome in BatchEngine(jobs=1).run(
                [dataclasses.replace(spec, engine="reference")
                 for spec in sample]):
            label = _job_label(outcome.spec)
            run = by_label[label]
            if run.error:
                continue
            if not outcome.ok:
                errors.append(f"{label}: reference engine failed: "
                              f"{outcome.error}")
            elif (outcome.summary.total_cycles,
                  outcome.summary.values_digest) != run.fingerprint:
                errors.append(f"{label}: cycles or values differ from "
                              "the reference engine")
        return errors


WORKLOADS = {
    "weaver": GraphWorkload("fast", [
        (alg, schedule, graph)
        for graph in POWERLAW_GRAPHS
        for alg in ("pagerank", "bfs")
        for schedule in ("sparseweaver", "eghw")
    ] + [("pagerank", "sparseweaver", "road")]),
    "replay": GraphWorkload("fast", [
        ("pagerank", schedule, graph)
        for graph in POWERLAW_GRAPHS + ("road",)
        for schedule in ("vertex_map", "warp_map", "cta_map", "edge_map")
    ]),
    "registry": RegistryWorkload(),
}
