"""Simulator determinism and analytic-model agreement.

Two meta-properties the whole evaluation rests on: (1) identical inputs
give identical cycle counts (the benchmarks are replayable), and (2)
the closed-form warp-iteration model of Fig. 2a agrees with what the
simulator actually counts.
"""

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.frontend import GraphProcessor
from repro.graph import dataset, powerlaw_graph, star_graph
from repro.sched import analytic
from repro.sim import GPUConfig

CFG = GPUConfig.vortex_tiny()


@pytest.mark.parametrize("schedule", ["vertex_map", "warp_map",
                                      "sparseweaver", "eghw", "twc"])
def test_simulation_is_deterministic(schedule):
    g = powerlaw_graph(150, 700, seed=8).undirected()

    def run():
        return GraphProcessor(
            make_algorithm("pagerank", iterations=2), schedule=schedule,
            config=CFG,
        ).run(g)

    a, b = run(), run()
    assert a.stats.total_cycles == b.stats.total_cycles
    assert a.stats.instructions == b.stats.instructions
    np.testing.assert_array_equal(a.values, b.values)


def test_dataset_analogs_are_deterministic():
    a = dataset("graph500", scale=0.2)
    b = dataset("graph500", scale=0.2)
    assert a == b


@pytest.mark.parametrize("schedule", ["vertex_map", "warp_map"])
def test_measured_rounds_match_model_exactly(schedule):
    """For schemes without filters the counter must equal the model."""
    g = powerlaw_graph(120, 600, seed=14).undirected()
    predicted = analytic.expected_warp_iterations(g, schedule, CFG)
    run = GraphProcessor(
        make_algorithm("pagerank", iterations=1), schedule=schedule,
        config=CFG, time_init=False, time_apply=False,
    ).run(g)
    assert run.stats.warp_iterations == predicted


def test_sparseweaver_rounds_close_to_block_model():
    """SW's dynamic batches include per-warp drain rounds (each warp's
    final -1 answer), so measured = model + O(warps)."""
    g = powerlaw_graph(120, 600, seed=14).undirected()
    predicted = analytic.expected_warp_iterations(g, "sparseweaver", CFG)
    run = GraphProcessor(
        make_algorithm("pagerank", iterations=1), schedule="sparseweaver",
        config=CFG, time_init=False, time_apply=False,
    ).run(g)
    block = CFG.threads_per_core
    epochs = -(-g.num_vertices // (CFG.num_cores * block))
    # one drain round (-1 answer) per warp per epoch
    slack = epochs * CFG.num_cores * CFG.warps_per_core
    assert predicted <= run.stats.warp_iterations <= predicted + slack


def test_model_ordering_predicts_measured_ordering():
    g = star_graph(200)
    order_model = sorted(
        ("vertex_map", "warp_map", "edge_map"),
        key=lambda s: analytic.expected_warp_iterations(g, s, CFG),
    )
    order_measured = sorted(
        ("vertex_map", "warp_map", "edge_map"),
        key=lambda s: GraphProcessor(
            make_algorithm("pagerank", iterations=1), schedule=s,
            config=CFG, time_init=False, time_apply=False,
        ).run(g).stats.warp_iterations,
    )
    assert order_model == order_measured

