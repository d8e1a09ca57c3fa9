"""JobSpec content addressing: determinism and sensitivity."""

import dataclasses

import pytest

from repro.errors import ConfigError, ReproError
from repro.graph import powerlaw_graph
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec, graph_digest
from repro.sim import GPUConfig


def make_spec(**overrides):
    base = dict(
        algorithm=AlgorithmSpec.of("pagerank", iterations=2),
        graph=GraphSpec.from_dataset("bio-human", scale=0.2),
        schedule="vertex_map",
        config=GPUConfig.vortex_tiny(),
        max_iterations=2,
    )
    base.update(overrides)
    return JobSpec(**base)


def test_same_spec_same_hash():
    assert make_spec().content_hash() == make_spec().content_hash()


def test_hash_is_hex_sha256():
    h = make_spec().content_hash()
    assert len(h) == 64
    int(h, 16)  # parses as hex


@pytest.mark.parametrize("overrides", [
    {"schedule": "edge_map"},
    {"max_iterations": 3},
    {"symmetrize": True},
    {"seed": 7},
    {"algorithm": AlgorithmSpec.of("pagerank", iterations=3)},
    {"algorithm": AlgorithmSpec.of("bfs", source=0)},
    {"graph": GraphSpec.from_dataset("bio-human", scale=0.3)},
    {"graph": GraphSpec.from_dataset("road-ca", scale=0.2)},
    {"config": GPUConfig.vortex_bench()},
    {"config": dataclasses.replace(GPUConfig.vortex_tiny(),
                                   dram_latency=101)},
])
def test_any_field_change_changes_hash(overrides):
    assert make_spec().content_hash() != make_spec(
        **overrides).content_hash()


def test_default_config_normalizes_to_bench_preset():
    explicit = make_spec(config=GPUConfig.vortex_bench())
    implicit = make_spec(config=None)
    assert explicit.content_hash() == implicit.content_hash()


def test_dict_round_trip_preserves_hash():
    spec = make_spec()
    again = JobSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.content_hash() == spec.content_hash()


def test_inline_graph_digest_tracks_content():
    g1 = powerlaw_graph(100, 400, seed=1)
    g2 = powerlaw_graph(100, 400, seed=1)
    g3 = powerlaw_graph(100, 400, seed=2)
    assert graph_digest(g1) == graph_digest(g2)
    assert graph_digest(g1) != graph_digest(g3)
    s1 = make_spec(graph=GraphSpec.inline(g1))
    s2 = make_spec(graph=GraphSpec.inline(g2))
    s3 = make_spec(graph=GraphSpec.inline(g3))
    assert s1.content_hash() == s2.content_hash()
    assert s1.content_hash() != s3.content_hash()


def test_inline_digest_ignores_lazy_unit_weights():
    g = powerlaw_graph(60, 200, seed=4)
    before = graph_digest(g)
    g.weights  # materializes lazy unit weights
    assert graph_digest(g) == before


def test_algorithm_spec_is_a_factory():
    spec = AlgorithmSpec.of("pagerank", iterations=2)
    alg = spec()
    assert alg.name == "pagerank"
    # Fresh instance per call — trials must not share state.
    assert spec() is not alg


def test_algorithm_spec_rejects_non_scalar_params():
    with pytest.raises(ConfigError):
        AlgorithmSpec.of("pagerank", weights=[1, 2, 3])


def test_graph_spec_builds_dataset_and_generator():
    d = GraphSpec.from_dataset("road-ca", scale=0.2).build()
    assert d.num_vertices > 0
    g = GraphSpec.from_generator("powerlaw_graph", num_vertices=80,
                                 num_edges=200, seed=9).build()
    assert g.num_vertices == 80


def test_inline_spec_refuses_json_round_trip():
    spec = GraphSpec.inline(powerlaw_graph(50, 120, seed=2))
    with pytest.raises(ReproError):
        GraphSpec.from_dict(spec.to_dict())


def test_execute_matches_direct_run():
    from repro.frontend import GraphProcessor

    g = powerlaw_graph(100, 400, seed=1)
    spec = make_spec(graph=GraphSpec.inline(g))
    direct = GraphProcessor(spec.algorithm.build(), schedule=spec.schedule,
                            config=spec.config).run(
        g, max_iterations=spec.max_iterations)
    assert spec.execute().stats.total_cycles == direct.stats.total_cycles
