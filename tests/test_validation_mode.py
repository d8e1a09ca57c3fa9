"""Edge-coverage check and failure injection.

Every ``GraphProcessor`` run checks that each gather launch hands each
edge to ``edge_update`` at most once (exactly once without filters).
The injection tests plant deliberately broken schedules and assert the
check catches them — a misbehaving schedule must fail loudly, not
produce subtly wrong floats.
"""

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.errors import SimulationError
from repro.frontend import GraphProcessor
from repro.graph import powerlaw_graph
from repro.sched import EXTENDED_SCHEDULES
from repro.sched.base import Schedule
from repro.sched.common import inspect_topology, process_edge_batch
from repro.sim import GPUConfig
from repro.sim.instructions import counter

CFG = GPUConfig.vortex_tiny()
GRAPH = powerlaw_graph(100, 400, exponent=2.0, seed=17).undirected()


@pytest.mark.parametrize("schedule", EXTENDED_SCHEDULES)
def test_every_schedule_passes_validation(schedule):
    proc = GraphProcessor(
        make_algorithm("pagerank", iterations=2), schedule=schedule,
        config=CFG,
    )
    proc.run(GRAPH)  # must not raise


@pytest.mark.parametrize("schedule", ["vertex_map", "sparseweaver"])
def test_filtered_algorithms_pass_validation(schedule):
    proc = GraphProcessor(
        make_algorithm("bfs", source=0), schedule=schedule, config=CFG,
    )
    proc.run(GRAPH)


class _DroppingSchedule(Schedule):
    """Broken on purpose: skips every vertex's last edge."""

    name = "dropping"
    label = "broken"

    def warp_factory(self, env):
        n = env.num_vertices
        stride = env.config.total_threads
        num_epochs = max(1, -(-n // stride))

        def factory(ctx):
            if ctx.thread_ids[0] >= n:
                return None

            def kernel():
                for epoch in range(num_epochs):
                    vids = ctx.thread_ids + epoch * stride
                    vids = vids[vids < n]
                    if vids.size == 0:
                        break
                    starts, degrees = yield from inspect_topology(
                        env, vids)
                    degrees = np.maximum(degrees - 1, 0)  # the bug
                    alive = np.nonzero(degrees > 0)[0]
                    k = 0
                    while alive.size:
                        yield counter("warp_iterations")
                        yield from process_edge_batch(
                            env, vids[alive], starts[alive] + k,
                            accumulate="atomic")
                        k += 1
                        alive = alive[degrees[alive] > k]

            return kernel()

        return factory


class _DuplicatingSchedule(_DroppingSchedule):
    """Broken the other way: processes every edge twice."""

    name = "duplicating"

    def warp_factory(self, env):
        inner = super().warp_factory(env)
        n = env.num_vertices
        stride = env.config.total_threads
        num_epochs = max(1, -(-n // stride))

        def factory(ctx):
            if ctx.thread_ids[0] >= n:
                return None

            def kernel():
                for epoch in range(num_epochs):
                    vids = ctx.thread_ids + epoch * stride
                    vids = vids[vids < n]
                    if vids.size == 0:
                        break
                    starts, degrees = yield from inspect_topology(
                        env, vids)
                    for _repeat in range(2):  # the bug
                        alive = np.nonzero(degrees > 0)[0]
                        k = 0
                        while alive.size:
                            yield from process_edge_batch(
                                env, vids[alive], starts[alive] + k,
                                accumulate="atomic")
                            k += 1
                            alive = alive[degrees[alive] > k]

            return kernel()

        _ = inner
        return factory


def test_validation_catches_dropped_edges():
    proc = GraphProcessor(
        make_algorithm("pagerank", iterations=1),
        schedule=_DroppingSchedule(), config=CFG,
    )
    with pytest.raises(SimulationError, match="dropped"):
        proc.run(GRAPH)


def test_validation_catches_duplicated_edges():
    proc = GraphProcessor(
        make_algorithm("pagerank", iterations=1),
        schedule=_DuplicatingSchedule(), config=CFG,
    )
    with pytest.raises(SimulationError, match="duplicated"):
        proc.run(GRAPH)


def test_validation_does_not_change_results():
    """The check observes only: values match the pure reference, and
    the fast engine (which replays gathers through the counting
    update) matches the reference engine bit for bit.  Exact cycles
    are pinned by ``tests/test_golden_pin.py``."""
    from repro.frontend import reference

    a, b = (GraphProcessor(
        make_algorithm("pagerank", iterations=2),
        schedule="sparseweaver", config=CFG, engine=engine,
    ).run(GRAPH) for engine in ("reference", "fast"))
    np.testing.assert_allclose(a.values,
                               reference.pagerank(GRAPH, iterations=2))
    np.testing.assert_array_equal(a.values, b.values)
    assert a.stats.total_cycles == b.stats.total_cycles
