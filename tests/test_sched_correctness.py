"""Every schedule must compute identical results to the pure references
on every graph family — the central correctness matrix.
"""

import numpy as np
import pytest

from repro.frontend import GraphProcessor, reference
from repro.algorithms import make_algorithm
from repro.graph import (
    chain_graph,
    from_edge_list,
    powerlaw_graph,
    road_grid_graph,
    star_graph,
)
from repro.sched import ALL_SCHEDULES
from repro.sim import GPUConfig
from repro.sim.instructions import Op

CFG = GPUConfig.vortex_tiny()

GRAPHS = {
    "powerlaw": powerlaw_graph(120, 500, exponent=2.0, seed=21).undirected(),
    "road": road_grid_graph(7, seed=3),
    "star": star_graph(25),
    "chain": chain_graph(20),
}


@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
@pytest.mark.parametrize("graph_name", list(GRAPHS))
def test_pagerank_matches_reference(schedule, graph_name):
    g = GRAPHS[graph_name]
    ref = reference.pagerank(g, iterations=3)
    proc = GraphProcessor(
        make_algorithm("pagerank", iterations=3), schedule=schedule,
        config=CFG,
    )
    res = proc.run(g)
    np.testing.assert_allclose(res.values, ref, atol=1e-9)


@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
@pytest.mark.parametrize("graph_name", list(GRAPHS))
def test_bfs_matches_reference(schedule, graph_name):
    g = GRAPHS[graph_name]
    ref = reference.bfs_levels(g, 0)
    proc = GraphProcessor(
        make_algorithm("bfs", source=0), schedule=schedule, config=CFG
    )
    res = proc.run(g)
    assert res.values.tolist() == ref.tolist()


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_bottom_up_bfs_skips_through_the_live_weaver(engine):
    """Bottom-up BFS is the one early-exit algorithm: under
    ``sparseweaver`` a lane that finds a parent sends ``WEAVER_SKIP``
    to the unit, which the fast engine serves live."""
    g = GRAPHS["powerlaw"]
    proc = GraphProcessor(
        make_algorithm("bfs", source=0, variant="bottom_up"),
        schedule="sparseweaver", config=CFG, engine=engine)
    res = proc.run(g)
    assert res.values.tolist() == reference.bfs_levels(g, 0).tolist()
    assert res.stats.op_counts[Op.WEAVER_SKIP] > 0


@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
@pytest.mark.parametrize("graph_name", list(GRAPHS))
def test_sssp_matches_reference(schedule, graph_name):
    g = GRAPHS[graph_name]
    ref = reference.sssp(g, 0)
    proc = GraphProcessor(
        make_algorithm("sssp", source=0), schedule=schedule, config=CFG
    )
    res = proc.run(g)
    np.testing.assert_allclose(res.values, ref, atol=1e-9)


@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
@pytest.mark.parametrize("graph_name", list(GRAPHS))
def test_cc_matches_reference(schedule, graph_name):
    g = GRAPHS[graph_name]
    ref = reference.connected_components(g)
    proc = GraphProcessor(
        make_algorithm("cc"), schedule=schedule, config=CFG
    )
    res = proc.run(g)
    assert res.values.astype(np.int64).tolist() == ref.tolist()


@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
def test_weighted_sssp(schedule):
    g = from_edge_list(
        [(0, 1, 4.0), (1, 0, 4.0), (0, 2, 1.0), (2, 0, 1.0),
         (2, 1, 1.0), (1, 2, 1.0), (1, 3, 2.0), (3, 1, 2.0)],
        num_vertices=4,
    )
    ref = reference.sssp(g, 0)
    assert ref.tolist() == [0.0, 2.0, 1.0, 4.0]
    proc = GraphProcessor(
        make_algorithm("sssp", source=0), schedule=schedule, config=CFG
    )
    res = proc.run(g)
    np.testing.assert_allclose(res.values, ref)


@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
def test_bfs_unreachable_vertices(schedule):
    g = from_edge_list([(0, 1), (1, 0), (2, 3), (3, 2)], num_vertices=4)
    proc = GraphProcessor(
        make_algorithm("bfs", source=0), schedule=schedule, config=CFG
    )
    res = proc.run(g)
    assert res.values.tolist() == [0, 1, -1, -1]


@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
def test_disconnected_components(schedule):
    g = from_edge_list([(0, 1), (1, 0), (2, 3), (3, 2)], num_vertices=4)
    proc = GraphProcessor(make_algorithm("cc"), schedule=schedule,
                          config=CFG)
    res = proc.run(g)
    assert res.values.astype(np.int64).tolist() == [0, 0, 2, 2]


@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
def test_graph_larger_than_grid(schedule):
    """More vertices than total threads forces multi-epoch kernels."""
    total_threads = CFG.total_threads  # 8 on the tiny config
    g = powerlaw_graph(total_threads * 5, 300, seed=13).undirected()
    ref = reference.pagerank(g, iterations=2)
    proc = GraphProcessor(
        make_algorithm("pagerank", iterations=2), schedule=schedule,
        config=CFG,
    )
    res = proc.run(g)
    np.testing.assert_allclose(res.values, ref, atol=1e-9)


@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
def test_empty_frontier_second_round(schedule):
    """BFS on a single edge: the frontier empties after one level."""
    g = from_edge_list([(0, 1), (1, 0)], num_vertices=2)
    proc = GraphProcessor(
        make_algorithm("bfs", source=0), schedule=schedule, config=CFG
    )
    res = proc.run(g)
    assert res.values.tolist() == [0, 1]


EXTRA_SCHEDULES = ["twc", "twce", "strict", "split_vertex_map"]


@pytest.mark.parametrize("schedule", EXTRA_SCHEDULES)
@pytest.mark.parametrize("alg_name", ["pagerank", "bfs", "sssp", "cc"])
def test_extended_schedules_match_reference(schedule, alg_name):
    """The Table I schemes the paper tabulates (S_twc, S_twce,
    S_strict) and the Tigr splits run the same UDFs bit-exactly."""
    g = GRAPHS["powerlaw"]
    kwargs = ({"iterations": 3} if alg_name == "pagerank"
              else {"source": 0} if alg_name in ("bfs", "sssp") else {})
    proc = GraphProcessor(make_algorithm(alg_name, **kwargs),
                          schedule=schedule, config=CFG)
    res = proc.run(g)
    if alg_name == "pagerank":
        ref = reference.pagerank(g, iterations=3)
        np.testing.assert_allclose(res.values, ref, atol=1e-9)
    elif alg_name == "bfs":
        assert res.values.tolist() == reference.bfs_levels(g, 0).tolist()
    elif alg_name == "sssp":
        np.testing.assert_allclose(res.values, reference.sssp(g, 0),
                                   atol=1e-9)
    else:
        ref = reference.connected_components(g)
        assert res.values.astype(np.int64).tolist() == ref.tolist()


@pytest.mark.parametrize("schedule", EXTRA_SCHEDULES)
def test_extended_schedules_on_star(schedule):
    g = GRAPHS["star"]
    ref = reference.pagerank(g, iterations=2)
    proc = GraphProcessor(make_algorithm("pagerank", iterations=2),
                          schedule=schedule, config=CFG)
    np.testing.assert_allclose(proc.run(g).values, ref, atol=1e-9)
