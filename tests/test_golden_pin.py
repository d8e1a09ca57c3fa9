"""Golden pin: exact simulated numbers for a fixed set of small jobs.

Cross-engine parity tests prove the two engines agree with each other;
this file proves the simulator agrees with itself across commits.  Seven
schedules run PageRank (2 iterations) and BFS on one seeded 300-vertex
power-law graph, and SparseWeaver also runs bottom-up BFS (its early
exit is the only ``WEAVER_SKIP`` path), on both engines, with the
provenance digester on.  Each job's total cycles, stall cycles by class,
DRAM line fills, result values digest and a hash of its digest ledger
are pinned exactly.  Both GCN operator strategies run on the same graph,
with each kernel's cycles and stall cycles pinned.

The pins hold only while the timing model does.  A change that is meant
to move simulated numbers updates every pin below together with
``repro.sim.SIMULATOR_VERSION``; any other change must leave them alone.
"""

import hashlib
import json
import os

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.gcn import gcn_reference, run_gcn_operator
from repro.graph import powerlaw_graph
from repro.obs.provenance import (DEFAULT_INTERVAL, INTERVAL_ENV,
                                  disable_digests, enable_digests)
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec
from repro.runtime.engine import _execute_spec
from repro.sim import CacheConfig, GPUConfig
from repro.sim.config import KB

#: Two cores sharing an L2 and an L3, so core interleaving, every
#: cache level and DRAM queueing all shape the pinned numbers; a
#: 16-entry Weaver table forces multi-epoch unit gathers with barriers.
CONFIG = GPUConfig(
    num_sockets=1, cores_per_socket=2, warps_per_core=4,
    threads_per_warp=8,
    l1=CacheConfig(1 * KB, ways=2),
    l2=CacheConfig(4 * KB, ways=4, hit_latency=20),
    l3=CacheConfig(16 * KB, ways=8, hit_latency=40),
    weaver_entries=16,
)

GRAPH = GraphSpec.inline(
    powerlaw_graph(num_vertices=300, num_edges=1500, exponent=2.1, seed=3),
    name="golden-pl300")

ALGORITHMS = {
    "pagerank": (AlgorithmSpec.of("pagerank", iterations=2), 2),
    "bfs": (AlgorithmSpec.of("bfs"), None),
    "bfs_bottom_up": (AlgorithmSpec.of("bfs", variant="bottom_up"), None),
}

#: (algorithm, schedule) -> (total_cycles, stall cycles by class,
#: dram_accesses, values digest prefix, ledger hash prefix).
GOLDEN = {
    ("bfs", "vertex_map"): (
        24573, {"MEMORY": 31741},
        556, "78e58fdf2370afc2", "57d73299b1a9c00e"),
    ("bfs", "warp_map"): (
        16947, {"MEMORY": 21311, "SHARED": 377},
        557, "78e58fdf2370afc2", "f18e759e21673486"),
    ("bfs", "cta_map"): (
        14508, {"MEMORY": 16265, "SHARED": 254, "SYNC": 6936},
        567, "78e58fdf2370afc2", "1074cf8fecf6166f"),
    ("bfs", "edge_map"): (
        33838, {"MEMORY": 59219},
        2090, "78e58fdf2370afc2", "d2adfdbccf025faf"),
    ("bfs", "sparseweaver"): (
        16216, {"MEMORY": 23446, "SYNC": 30281, "WEAVER": 1951},
        566, "78e58fdf2370afc2", "5fd92f4d030ba21e"),
    ("bfs", "hybrid_ell"): (
        26256, {"MEMORY": 42569, "SYNC": 58288, "WEAVER": 1218},
        958, "78e58fdf2370afc2", "7e4e2e9270132669"),
    ("bfs", "eghw"): (
        20131, {"MEMORY": 18482, "SHARED": 14, "SYNC": 4578, "EGHW": 14071},
        1078, "78e58fdf2370afc2", "7096ac826318cf15"),
    ("bfs_bottom_up", "sparseweaver"): (
        23667, {"MEMORY": 33810, "SYNC": 33102, "WEAVER": 3164},
        936, "78e58fdf2370afc2", "3c76c206aaea711c"),
    ("pagerank", "vertex_map"): (
        26454, {"MEMORY": 39410},
        1129, "703ca6cb2a557669", "5bdb61ff6a9d1bae"),
    ("pagerank", "warp_map"): (
        26011, {"MEMORY": 38785, "SHARED": 661},
        1094, "703ca6cb2a557669", "24a8ae71b4776c93"),
    ("pagerank", "cta_map"): (
        21864, {"MEMORY": 29573, "SHARED": 408, "SYNC": 3510},
        1122, "baca623d7d64e3ff", "493bb539c64e59fb"),
    ("pagerank", "edge_map"): (
        30074, {"MEMORY": 55431},
        1847, "485e253db3cd1e69", "6abb3a62af35ae2c"),
    ("pagerank", "sparseweaver"): (
        22379, {"MEMORY": 35898, "SYNC": 16280, "WEAVER": 2310},
        1127, "3f19e5a9495e9345", "3bd3a7c63182fa2c"),
    ("pagerank", "hybrid_ell"): (
        26927, {"MEMORY": 46654, "SYNC": 30577, "WEAVER": 1119},
        1336, "cd0800cad95b9868", "70ea27a949d0df79"),
    ("pagerank", "eghw"): (
        33196, {"MEMORY": 39356, "SYNC": 4990, "EGHW": 20654},
        1905, "7c88119e7e2a2db5", "5b7ccb9dfc8bc517"),
}


@pytest.fixture(autouse=True)
def _digests_on():
    disable_digests(clear=True)
    enable_digests(DEFAULT_INTERVAL)
    yield
    disable_digests(clear=True)
    os.environ.pop(INTERVAL_ENV, None)


def _pinned(summary: dict) -> tuple:
    stats = summary["stats"]
    ledger = json.dumps(summary["digest_ledger"], separators=(",", ":"))
    return (
        stats["total_cycles"],
        stats["stall_cycles"],
        stats["dram_accesses"],
        summary["values_digest"][:16],
        hashlib.sha256(ledger.encode()).hexdigest()[:16],
    )


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("algorithm,schedule", sorted(GOLDEN))
def test_golden_pin(algorithm, schedule, engine):
    alg, iterations = ALGORITHMS[algorithm]
    spec = JobSpec(algorithm=alg, graph=GRAPH, schedule=schedule,
                   config=CONFIG, max_iterations=iterations,
                   engine=engine)
    assert _pinned(_execute_spec(spec)) == GOLDEN[(algorithm, schedule)]


#: GCN's operator driver on the golden config with a 32-entry Weaver
#: table, one per core's resident threads: strategy -> kernel ->
#: (total_cycles, stall cycles by class).
GOLDEN_GCN = {
    "sparseweaver": {
        "init": (58, {"MEMORY": 2}),
        "spmm": (2168, {"MEMORY": 2865}),
        "graphsum": (23550, {"MEMORY": 37115, "SYNC": 3598,
                             "WEAVER": 1103})},
    "vertex_map": {
        "init": (58, {"MEMORY": 2}),
        "spmm": (1977, {"MEMORY": 2441}),
        "graphsum": (47739, {"MEMORY": 62654})},
}


@pytest.mark.parametrize("strategy", sorted(GOLDEN_GCN))
def test_golden_pin_gcn(strategy):
    graph = GRAPH.build()
    rng = np.random.default_rng(5)
    features = rng.normal(size=(graph.num_vertices, 4))
    weight = rng.normal(size=(4, 3))
    res = run_gcn_operator(graph, features, weight, strategy=strategy,
                           config=replace(CONFIG, weaver_entries=32))
    np.testing.assert_allclose(res.features,
                               gcn_reference(graph, features, weight),
                               atol=1e-9)
    summaries = {name: stats.to_summary_dict()
                 for name, stats in res.kernel_stats.items()}
    assert {name: (s["total_cycles"], s["stall_cycles"])
            for name, s in summaries.items()} == GOLDEN_GCN[strategy]
