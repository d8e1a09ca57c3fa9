"""UDF spec validation, reference oracles, GraphProcessor driver."""

import numpy as np
import pytest

from repro.errors import AlgorithmError, ScheduleError
from repro.frontend import Algorithm, Direction, GraphProcessor, reference
from repro.algorithms import make_algorithm, algorithm_names
from repro.graph import chain_graph, from_edge_list, star_graph
from repro.sim import GPUConfig
from repro.sim.stats import KernelStats

CFG = GPUConfig.vortex_tiny()


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------
def test_pagerank_sums_to_at_most_one(small_powerlaw):
    pr = reference.pagerank(small_powerlaw, iterations=30)
    assert 0.0 < pr.sum() <= 1.0 + 1e-9
    assert np.all(pr > 0)


def test_pagerank_uniform_on_cycle():
    g = from_edge_list([(0, 1), (1, 2), (2, 0)], num_vertices=3)
    pr = reference.pagerank(g, iterations=50)
    np.testing.assert_allclose(pr, [1 / 3] * 3, atol=1e-6)


def test_pagerank_tol_early_stop():
    g = from_edge_list([(0, 1), (1, 0)], num_vertices=2)
    a = reference.pagerank(g, iterations=500, tol=1e-12)
    b = reference.pagerank(g, iterations=500)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_bfs_levels_on_chain():
    g = chain_graph(5)
    assert reference.bfs_levels(g, 0).tolist() == [0, 1, 2, 3, 4]


def test_bfs_source_validation():
    with pytest.raises(AlgorithmError):
        reference.bfs_levels(chain_graph(3), 99)


def test_sssp_matches_bfs_on_unit_weights():
    g = chain_graph(6)
    dist = reference.sssp(g, 0)
    levels = reference.bfs_levels(g, 0)
    np.testing.assert_allclose(dist, levels)


def test_sssp_rejects_negative_weights():
    g = from_edge_list([(0, 1, -1.0)], num_vertices=2)
    with pytest.raises(AlgorithmError):
        reference.sssp(g, 0)


def test_cc_on_two_components():
    g = from_edge_list([(0, 1), (1, 0), (2, 3), (3, 2)], num_vertices=4)
    assert reference.connected_components(g).tolist() == [0, 0, 2, 2]


# ----------------------------------------------------------------------
# Algorithm spec
# ----------------------------------------------------------------------
def test_algorithm_names():
    assert algorithm_names() == ["pagerank", "bfs", "sssp", "cc"]


def test_make_algorithm_aliases():
    assert make_algorithm("pr").name == "pagerank"
    assert make_algorithm("connected_components").name == "cc"


def test_make_algorithm_unknown():
    with pytest.raises(AlgorithmError):
        make_algorithm("dijkstra")


def test_algorithm_factory_validation():
    with pytest.raises(AlgorithmError):
        make_algorithm("pagerank", damping=1.5)
    with pytest.raises(AlgorithmError):
        make_algorithm("pagerank", iterations=0)
    with pytest.raises(AlgorithmError):
        make_algorithm("bfs", source=-1)
    with pytest.raises(AlgorithmError):
        make_algorithm("sssp", max_rounds=0)
    with pytest.raises(AlgorithmError):
        make_algorithm("cc", max_rounds=0)


def test_make_state_checks_declared_arrays(small_star):
    alg = make_algorithm("pagerank")
    state = alg.make_state(small_star)
    assert set(state) >= {"rank", "contrib", "acc"}


def test_make_state_missing_array_raises(small_star):
    alg = Algorithm(
        name="broken",
        direction=Direction.PULL,
        init_state=lambda g: {"x": np.zeros(g.num_vertices)},
        edge_update=lambda *a: None,
        apply_update=lambda *a: 0,
        converged=lambda *a: True,
        result_array="missing",
        acc_array="x",
    )
    with pytest.raises(AlgorithmError):
        alg.make_state(small_star)


def test_filtered_degrees_zeroes_filtered(small_star):
    # top-down: only the frontier (the source, at depth 0) expands
    alg = make_algorithm("bfs", source=0)
    state = alg.make_state(small_star)
    vids = np.array([0, 1, 2])
    degs = np.array([5, 5, 5])
    out = alg.filtered_degrees(state, vids, degs)
    assert out.tolist() == [5, 0, 0]
    assert degs.tolist() == [5, 5, 5]  # input untouched

    # bottom-up: visited vertices (the source) stop gathering
    alg_bu = make_algorithm("bfs", source=0, variant="bottom_up")
    state_bu = alg_bu.make_state(small_star)
    out_bu = alg_bu.filtered_degrees(state_bu, vids, degs)
    assert out_bu.tolist() == [0, 5, 5]


def test_bfs_source_out_of_range_at_init(small_star):
    alg = make_algorithm("bfs", source=10_000)
    with pytest.raises(AlgorithmError):
        alg.make_state(small_star)


# ----------------------------------------------------------------------
# GraphProcessor
# ----------------------------------------------------------------------
def test_unknown_schedule_rejected():
    with pytest.raises(ScheduleError):
        GraphProcessor(make_algorithm("pagerank"), schedule="quantum")


def test_weaver_penalty_applied_only_to_sparseweaver():
    pr = make_algorithm("pagerank")
    sw = GraphProcessor(pr, schedule="sparseweaver", config=CFG)
    vm = GraphProcessor(pr, schedule="vertex_map", config=CFG)
    assert sw.config.l1.size_bytes == CFG.l1.size_bytes // 2
    assert vm.config.l1.size_bytes == CFG.l1.size_bytes


def test_run_result_fields(small_star):
    proc = GraphProcessor(
        make_algorithm("pagerank", iterations=2), schedule="vertex_map",
        config=CFG,
    )
    res = proc.run(small_star)
    assert res.iterations == 2
    assert res.values.shape == (small_star.num_vertices,)
    assert res.total_cycles > 0
    assert isinstance(res.stats, KernelStats)


def test_max_iterations_caps_run(small_star):
    proc = GraphProcessor(
        make_algorithm("pagerank", iterations=50), schedule="vertex_map",
        config=CFG,
    )
    res = proc.run(small_star, max_iterations=2)
    assert res.iterations == 2


def test_iteration_cap_checked_before_any_kernel(small_star):
    """A cap below one is refused before the GPU is built: no kernel,
    not even the init kernel, is simulated."""
    from repro.errors import SimulationError
    from repro.sim import engines
    from repro.sim.gpu import GPU

    launches = []

    class CountingGPU(GPU):
        def run_kernel(self, *args, **kwargs):
            launches.append(1)
            return super().run_kernel(*args, **kwargs)

    class CountingEngine:
        name = "counting-for-cap-test"

        def build_gpu(self, config, schedule=None):
            return CountingGPU(config)

    engines.register_engine(CountingEngine())
    try:
        proc = GraphProcessor(make_algorithm("pagerank", iterations=2),
                              schedule="vertex_map", config=CFG,
                              engine=CountingEngine.name)
        with pytest.raises(SimulationError, match="at least 1"):
            proc.run(small_star, max_iterations=0)
        assert launches == []
        proc.run(small_star, max_iterations=1)
        assert launches
    finally:
        engines._ENGINES.pop(CountingEngine.name, None)


def test_symmetrize_option():
    g = from_edge_list([(0, 1), (1, 2)], num_vertices=3)  # directed path
    proc = GraphProcessor(make_algorithm("cc"), schedule="vertex_map",
                          config=CFG, symmetrize=True)
    res = proc.run(g)
    assert res.values.astype(int).tolist() == [0, 0, 0]


def test_time_flags_skip_init_apply_kernels(small_star):
    from repro.sim.instructions import Phase

    timed = GraphProcessor(
        make_algorithm("pagerank", iterations=2), schedule="vertex_map",
        config=CFG,
    ).run(small_star)
    untimed = GraphProcessor(
        make_algorithm("pagerank", iterations=2), schedule="vertex_map",
        config=CFG, time_init=False, time_apply=False,
    ).run(small_star)
    assert untimed.stats.instructions < timed.stats.instructions
    assert untimed.stats.phase_cycles.get(Phase.INIT, 0) == 0
    assert untimed.stats.phase_cycles.get(Phase.APPLY, 0) == 0
    assert timed.stats.phase_cycles[Phase.APPLY] > 0
    np.testing.assert_allclose(untimed.values, timed.values)


def test_values_are_copies(small_star):
    proc = GraphProcessor(
        make_algorithm("pagerank", iterations=1), schedule="vertex_map",
        config=CFG,
    )
    res = proc.run(small_star)
    res.values[:] = -1
    assert not np.array_equal(res.values, res.state["rank"])
