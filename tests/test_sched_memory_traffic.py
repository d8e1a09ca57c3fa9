"""Validate Table I's edge-memory formulas against simulated traffic.

The engine counts elements loaded per named region; one PR gather
iteration must read exactly the traffic Table I attributes to each
scheme: ``2|V| + |E|`` for vertex/warp/cta mapping and SparseWeaver
(two row_ptr entries per vertex + one col entry per edge), ``2|E|``
for edge mapping (both endpoints per edge, no topology reads).
"""

import pytest

from repro.algorithms import make_algorithm
from repro.frontend import GraphProcessor
from repro.graph import powerlaw_graph
from repro.sim import GPUConfig

CFG = GPUConfig.vortex_tiny()
GRAPH = powerlaw_graph(100, 400, exponent=2.0, seed=33).undirected()


def traffic(schedule, algorithm=None):
    alg = algorithm or make_algorithm("pagerank", iterations=1)
    run = GraphProcessor(alg, schedule=schedule, config=CFG,
                         time_init=False, time_apply=False).run(GRAPH)
    return {
        k.split(":", 1)[1]: v
        for k, v in run.stats.counters.items()
        if k.startswith("elements_loaded:")
    }


V = GRAPH.num_vertices
E = GRAPH.num_edges


@pytest.mark.parametrize("schedule",
                         ["vertex_map", "warp_map", "cta_map",
                          "sparseweaver"])
def test_topology_schemes_read_2v_plus_e(schedule):
    t = traffic(schedule)
    assert t["row_ptr"] == 2 * V
    assert t["col_idx"] == E
    assert "edge_src" not in t  # no second-endpoint reads


def test_edge_map_reads_2e():
    t = traffic("edge_map")
    assert t["edge_src"] == E   # the extra |E| endpoint reads
    assert t["col_idx"] == E
    assert "row_ptr" not in t   # no topology reads at all


def test_every_scheme_reads_each_property_once_per_edge():
    for schedule in ("vertex_map", "edge_map", "warp_map", "cta_map",
                     "sparseweaver"):
        t = traffic(schedule)
        assert t["state:contrib"] == E, schedule


def test_eghw_gpu_side_reads_no_topology_or_edges():
    """EGHW's GPU kernel only reads vertex properties; topology and
    edge info flow through the unit (charged on its timeline)."""
    t = traffic("eghw")
    assert "row_ptr" not in t
    assert "col_idx" not in t
    assert t["state:contrib"] == E


def test_weighted_algorithm_adds_weight_traffic():
    alg = make_algorithm("sssp", source=0)
    run = GraphProcessor(alg, schedule="sparseweaver", config=CFG,
                         time_init=False, time_apply=False).run(
        GRAPH, max_iterations=1)
    t = {
        k.split(":", 1)[1]: v
        for k, v in run.stats.counters.items()
        if k.startswith("elements_loaded:")
    }
    assert t["weights"] == E  # first round touches every edge weight


def test_bfs_frontier_rounds_read_less():
    """Top-down BFS reads far fewer edges than |E| per early round."""
    alg = make_algorithm("bfs", source=0)
    run = GraphProcessor(alg, schedule="sparseweaver", config=CFG,
                         time_init=False, time_apply=False).run(
        GRAPH, max_iterations=1)
    t = {
        k.split(":", 1)[1]: v
        for k, v in run.stats.counters.items()
        if k.startswith("elements_loaded:")
    }
    # Round 1: only the source's neighbor run is distributed.
    assert t.get("col_idx", 0) == GRAPH.degree(0)
