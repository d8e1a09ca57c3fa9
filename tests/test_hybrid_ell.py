"""Hybrid ELL/CSR format and the ELL+SparseWeaver schedule."""

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.errors import GraphError
from repro.frontend import GraphProcessor, reference
from repro.graph import chain_graph, powerlaw_graph, star_graph
from repro.graph.ell import hybrid_covers_all_edges, to_hybrid_ell
from repro.sched import HybridELLSchedule, make_schedule
from repro.sim import GPUConfig

CFG = GPUConfig.vortex_tiny()
GRAPH = powerlaw_graph(150, 700, exponent=2.0, seed=29).undirected()


# ----------------------------------------------------------------------
# Format split
# ----------------------------------------------------------------------
def test_split_covers_all_edges():
    hybrid = to_hybrid_ell(GRAPH, width=4)
    assert hybrid_covers_all_edges(hybrid)
    assert hybrid.ell_edges + hybrid.residue_edges == GRAPH.num_edges


def test_default_width_is_mean_degree():
    hybrid = to_hybrid_ell(GRAPH)
    avg = GRAPH.num_edges / GRAPH.num_vertices
    assert hybrid.width == int(np.ceil(avg))


def test_wide_slab_empties_residue():
    hybrid = to_hybrid_ell(GRAPH, width=int(GRAPH.degrees.max()))
    assert hybrid.residue_edges == 0
    assert hybrid.coverage() == 1.0


def test_narrow_slab_pushes_hubs_to_residue():
    star = star_graph(50)
    hybrid = to_hybrid_ell(star, width=1)
    assert hybrid.residue_edges == 49        # hub tail
    assert hybrid.residue.degree(0) == 49


def test_chain_fits_entirely_in_slab():
    hybrid = to_hybrid_ell(chain_graph(10), width=2)
    assert hybrid.residue_edges == 0


def test_invalid_width():
    with pytest.raises(GraphError):
        to_hybrid_ell(GRAPH, width=0)


def test_ell_is_column_major_padded():
    hybrid = to_hybrid_ell(star_graph(3), width=2)
    # leaves have degree 1: row 1 of their columns is padding
    assert (hybrid.ell_cols[1, 1:] == -1).all()


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
def test_registered():
    assert make_schedule("ell").name == "hybrid_ell"


@pytest.mark.parametrize("alg_name,kwargs,ref_fn", [
    ("pagerank", {"iterations": 3},
     lambda g: reference.pagerank(g, iterations=3)),
    ("bfs", {"source": 0}, lambda g: reference.bfs_levels(g, 0)),
    ("sssp", {"source": 0}, lambda g: reference.sssp(g, 0)),
    ("cc", {}, lambda g: reference.connected_components(g)),
])
def test_hybrid_correct(alg_name, kwargs, ref_fn):
    res = GraphProcessor(
        make_algorithm(alg_name, **kwargs), schedule="hybrid_ell",
        config=CFG,
    ).run(GRAPH)
    ref = np.asarray(ref_fn(GRAPH), dtype=float)
    np.testing.assert_allclose(res.values.astype(float), ref, atol=1e-9)


@pytest.mark.parametrize("width", [1, 3, 10])
def test_hybrid_widths_all_correct(width):
    res = GraphProcessor(
        make_algorithm("pagerank", iterations=2),
        schedule=HybridELLSchedule(width=width), config=CFG,
    ).run(GRAPH)
    ref = reference.pagerank(GRAPH, iterations=2)
    np.testing.assert_allclose(res.values, ref, atol=1e-9)


def test_hybrid_beats_vm_on_skew():
    g = powerlaw_graph(800, 4800, exponent=1.9, seed=3)
    cfg = GPUConfig.vortex_bench()

    def cycles(schedule):
        return GraphProcessor(
            make_algorithm("pagerank", iterations=2), schedule=schedule,
            config=cfg,
        ).run(g).stats.total_cycles

    assert cycles("hybrid_ell") < cycles("vertex_map") / 2


def test_hybrid_weaves_only_the_tail():
    """The Weaver's decode traffic covers just the residue, not |E|."""
    g = powerlaw_graph(400, 2400, exponent=1.9, seed=6)
    cfg = GPUConfig.vortex_bench()
    hybrid_run = GraphProcessor(
        make_algorithm("pagerank", iterations=1),
        schedule="hybrid_ell", config=cfg,
        time_init=False, time_apply=False,
    ).run(g)
    sw_run = GraphProcessor(
        make_algorithm("pagerank", iterations=1),
        schedule="sparseweaver", config=cfg,
        time_init=False, time_apply=False,
    ).run(g)
    from repro.sim.instructions import Op

    assert (hybrid_run.stats.op_counts[Op.WEAVER_DEC_ID]
            < sw_run.stats.op_counts[Op.WEAVER_DEC_ID])


def test_hybrid_registers_residue_by_st_capacity():
    """``vortex_paper`` has 1,024 threads per core but 512 ST entries:
    only the first 16 warps of a core register residue vertices, in
    capacity-sized epochs, instead of one entry per thread (which ran
    past the table)."""
    cfg = GPUConfig.vortex_paper()
    assert cfg.weaver_entries < cfg.threads_per_core
    g = powerlaw_graph(1500, 6000, exponent=2.1, seed=3)
    res = GraphProcessor(
        make_algorithm("pagerank", iterations=2), schedule="hybrid_ell",
        config=cfg,
    ).run(g)
    ref = reference.pagerank(g, iterations=2)
    np.testing.assert_allclose(res.values, ref, atol=1e-9)
