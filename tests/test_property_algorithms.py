"""Cross-algorithm invariants on random graphs (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import algorithm_names, make_algorithm
from repro.frontend import GraphProcessor, reference
from repro.graph import from_edge_list
from repro.sim import GPUConfig

CFG = GPUConfig.vortex_tiny()


@st.composite
def symmetric_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=14))
    m = draw(st.integers(min_value=2, max_value=30))
    edges = set()
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.add((u, v))
            edges.add((v, u))
    if not edges:
        edges = {(0, 1), (1, 0)}
    return from_edge_list(sorted(edges), num_vertices=n)


@given(symmetric_graphs())
@settings(max_examples=40, deadline=None)
def test_pagerank_mass_is_conserved_modulo_dangling(graph):
    pr = reference.pagerank(graph, iterations=30)
    assert np.all(pr > 0)
    assert pr.sum() <= 1.0 + 1e-9


@given(symmetric_graphs())
@settings(max_examples=40, deadline=None)
def test_unit_weight_sssp_equals_bfs(graph):
    dist = reference.sssp(graph, 0)
    levels = reference.bfs_levels(graph, 0)
    reached = levels >= 0
    np.testing.assert_allclose(dist[reached], levels[reached])
    assert np.all(np.isinf(dist[~reached]))


@given(symmetric_graphs())
@settings(max_examples=40, deadline=None)
def test_bfs_levels_differ_by_at_most_one_across_edges(graph):
    levels = reference.bfs_levels(graph, 0)
    for u, v, _ in graph.edges():
        if levels[u] >= 0 and levels[v] >= 0:
            assert abs(levels[u] - levels[v]) <= 1


@given(symmetric_graphs())
@settings(max_examples=40, deadline=None)
def test_cc_labels_are_component_minima(graph):
    labels = reference.connected_components(graph)
    levels = reference.bfs_levels(graph, 0)
    comp0 = levels >= 0
    # the component containing vertex 0 is labeled 0
    assert np.all(labels[comp0] == 0)
    # labels are idempotent under another propagation round
    assert np.all(labels[labels] == labels)


@given(symmetric_graphs())
@settings(max_examples=20, deadline=None)
def test_simulated_bfs_equals_simulated_sssp_on_unit_weights(graph):
    bfs = GraphProcessor(
        make_algorithm("bfs", source=0), schedule="sparseweaver",
        config=CFG,
    ).run(graph)
    sssp = GraphProcessor(
        make_algorithm("sssp", source=0), schedule="sparseweaver",
        config=CFG,
    ).run(graph)
    reached = bfs.values >= 0
    np.testing.assert_allclose(sssp.values[reached],
                               bfs.values[reached])


#: Every registered algorithm, plus the direction and variant each
#: factory also builds.
EDGE_UPDATE_ALGORITHMS = [(name, {}) for name in algorithm_names()] + [
    ("pagerank", {"direction": "push"}), ("bfs", {"variant": "bottom_up"})]


@st.composite
def edge_batches(draw, graph):
    """Warp-sized edge batches whose targets repeat within and across
    batches, as a wide hub's updates do."""
    n = graph.num_vertices
    batches = []
    for size in draw(st.lists(st.integers(1, 40), min_size=1, max_size=6)):
        ids = st.lists(st.integers(0, n - 1), min_size=size, max_size=size)
        batches.append((
            np.array(draw(ids), dtype=np.int64),
            np.array(draw(ids), dtype=np.int64),
            np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=size,
                                   max_size=size))),
            np.arange(size, dtype=np.int64)))
    return batches


@pytest.mark.parametrize("name,params", EDGE_UPDATE_ALGORITHMS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_edge_update_on_concatenated_batches_equals_batches_in_order(
        name, params, data):
    """The ``edge_update`` contract a replayed launch relies on when it
    applies a launch's updates in one call."""
    graph = data.draw(symmetric_graphs())
    alg = make_algorithm(name, **params)
    state = alg.make_state(graph)
    # Float state gets values of mixed magnitude, so an accumulation
    # in another order rounds differently.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for array in state.values():
        if array.dtype.kind == "f":
            array[:] = rng.standard_normal(array.size) * 10.0 ** rng.integers(
                -6, 7, array.size)
    batches = data.draw(edge_batches(graph))
    in_order = {key: array.copy() for key, array in state.items()}
    for batch in batches:
        alg.edge_update(in_order, *batch)
    at_once = {key: array.copy() for key, array in state.items()}
    alg.edge_update(at_once, *map(np.concatenate, zip(*batches)))
    for key in state:
        assert at_once[key].tobytes() == in_order[key].tobytes(), key
