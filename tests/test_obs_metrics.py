"""Simulator metrics: a parallel batch reports what a serial one does.

Each job carries its simulator metrics home in its ``KernelStats``
summary (cycles, phase and stall cycles, op counts, cache hits and
misses), across the pool's process boundary as well as in-process.
"""

from repro.graph import powerlaw_graph
from repro.runtime import AlgorithmSpec, BatchEngine, GraphSpec, JobSpec
from repro.sim import GPUConfig


def _two_specs():
    algorithm = AlgorithmSpec.of("pagerank", iterations=1)
    graph = GraphSpec.inline(powerlaw_graph(100, 400, seed=3), name="pl")
    return [
        JobSpec(algorithm=algorithm, graph=graph, schedule=sched,
                config=GPUConfig.vortex_tiny(), max_iterations=1)
        for sched in ("vertex_map", "warp_map")
    ]


def test_parallel_metrics_match_serial():
    specs = _two_specs()
    serial = BatchEngine(jobs=1).run(specs)
    parallel = BatchEngine(jobs=2).run(specs)
    assert [o.status for o in serial] == ["ok"] * len(specs)
    assert [o.status for o in parallel] == ["ok"] * len(specs)
    serial_stats = [o.summary.stats.to_summary_dict() for o in serial]
    parallel_stats = [o.summary.stats.to_summary_dict() for o in parallel]
    assert all(s["total_cycles"] > 0 for s in serial_stats)
    assert serial_stats == parallel_stats
