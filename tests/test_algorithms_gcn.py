"""GCN operators (Case Study 2): correctness and strategy behavior."""

import numpy as np
import pytest

from repro.algorithms.gcn import (
    GCNResult,
    _normalization,
    gcn_reference,
    run_gcn_operator,
)
from repro.errors import AlgorithmError
from repro.graph import chain_graph, powerlaw_graph, star_graph
from repro.sim import GPUConfig

CFG = GPUConfig.vortex_tiny()


@pytest.fixture
def gcn_inputs():
    g = powerlaw_graph(60, 240, seed=3)
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(g.num_vertices, 4))
    weight = rng.normal(size=(4, 3))
    return g, feats, weight


def test_reference_matches_manual_star():
    g = star_graph(3)  # hub 0 <-> leaves 1..3
    feats = np.eye(4)[:, :2]
    weight = np.eye(2)
    out = gcn_reference(g, feats, weight)
    norm = _normalization(g)
    # hub row aggregates the three leaves with coefficient 1/sqrt(3*1)
    expected_hub = sum(
        feats[leaf] * norm[i] for i, leaf in enumerate([1, 2, 3])
    )
    np.testing.assert_allclose(out[0], expected_hub)


def test_normalization_uses_both_degrees():
    g = star_graph(4)
    norm = _normalization(g)
    assert norm.shape == (g.num_edges,)
    # hub out-degree 4, leaf in-degree 1 -> 1/2 on hub->leaf edges
    np.testing.assert_allclose(norm[:4], 0.5)


@pytest.mark.parametrize("strategy", ["vertex_map", "sparseweaver"])
def test_strategies_match_reference(gcn_inputs, strategy):
    g, feats, weight = gcn_inputs
    ref = gcn_reference(g, feats, weight)
    res = run_gcn_operator(g, feats, weight, strategy=strategy, config=CFG)
    np.testing.assert_allclose(res.features, ref, atol=1e-9)


def test_three_kernels_reported(gcn_inputs):
    g, feats, weight = gcn_inputs
    res = run_gcn_operator(g, feats, weight, strategy="vertex_map",
                           config=CFG)
    assert set(res.kernel_stats) == {"init", "spmm", "graphsum"}
    assert isinstance(res, GCNResult)
    assert res.stats.total_cycles == sum(
        s.total_cycles for s in res.kernel_stats.values()
    )


def test_spmm_cost_identical_across_strategies(gcn_inputs):
    g, feats, weight = gcn_inputs
    vm = run_gcn_operator(g, feats, weight, strategy="vertex_map",
                          config=CFG)
    sw = run_gcn_operator(g, feats, weight, strategy="sparseweaver",
                          config=CFG)
    assert vm.kernel_stats["spmm"].instructions == \
        sw.kernel_stats["spmm"].instructions


def test_sparseweaver_wins_graphsum_on_skewed_low_dims():
    g = powerlaw_graph(120, 900, exponent=1.8, seed=11)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(g.num_vertices, 4))
    weight = rng.normal(size=(4, 2))
    vm = run_gcn_operator(g, feats, weight, strategy="vertex_map",
                          config=CFG)
    sw = run_gcn_operator(g, feats, weight, strategy="sparseweaver",
                          config=CFG)
    assert sw.kernel_stats["graphsum"].total_cycles < \
        vm.kernel_stats["graphsum"].total_cycles


def test_weight_dims_scale_cost(gcn_inputs):
    g, feats, _ = gcn_inputs
    rng = np.random.default_rng(2)
    small = run_gcn_operator(g, feats, rng.normal(size=(4, 1)),
                             strategy="sparseweaver", config=CFG)
    large = run_gcn_operator(g, feats, rng.normal(size=(4, 8)),
                             strategy="sparseweaver", config=CFG)
    assert large.stats.total_cycles > small.stats.total_cycles


def test_chain_graph_gcn():
    g = chain_graph(10)
    feats = np.ones((10, 2))
    weight = np.eye(2)
    ref = gcn_reference(g, feats, weight)
    res = run_gcn_operator(g, feats, weight, strategy="sparseweaver",
                           config=CFG)
    np.testing.assert_allclose(res.features, ref, atol=1e-9)


def test_gcn_validation(gcn_inputs):
    g, feats, weight = gcn_inputs
    with pytest.raises(AlgorithmError):
        run_gcn_operator(g, feats, weight, strategy="magic", config=CFG)
    with pytest.raises(AlgorithmError):
        run_gcn_operator(g, feats[:5], weight, config=CFG)
    with pytest.raises(AlgorithmError):
        run_gcn_operator(g, feats, np.ones((9, 2)), config=CFG)
