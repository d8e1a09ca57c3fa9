"""S_strict — kernel-level exact balancing (Davidson et al. [12]).

A grid-wide prefix sum over all vertex degrees (built by extra scan
kernels and parked in *global* memory — Table I's 3|V| global cost and
"17, 3, 0, 15" registration row) lets every thread claim an exact
contiguous slice of the edge ranks. Distribution needs no further
synchronization or atomically shared counters: each lane binary-
searches the *global* prefix array (log |V| global loads per edge
batch) to find its rank's owner. Perfect balance and high edge-access
locality, paid for in registration-stage kernels and global-memory
searches.
"""

from __future__ import annotations

import numpy as np

from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import WARP_ITERATION, log2_ceil, process_edge_batch
from repro.sim.instructions import (
    Phase,
    alu,
    load,
    store,
    sync,
)


class StrictSchedule(Schedule):
    """Grid-wide exact edge partitioning via a global degree scan."""

    name = "strict"
    label = "S_strict"
    trace_safe = True

    def warp_factory(self, env: KernelEnv):
        cfg = env.config
        lanes = env.lanes
        stride = cfg.total_threads
        graph = env.graph
        num_vertices = env.num_vertices
        alg = env.algorithm

        if "strict_prefix" not in env.regions:
            env.regions["strict_prefix"] = env.memory_map.alloc(
                "strict_prefix", max(1, 3 * num_vertices), 8
            )
        prefix_region = env.regions["strict_prefix"]
        log_v = log2_ceil(max(2, num_vertices))
        vertex_epochs = max(1, -(-num_vertices // stride))

        def factory(ctx):
            def kernel():
                # ---- registration: build the global degree prefix ----
                # (scan kernels: read topology, apply base filter, store
                # partials, rescan — modeled as three passes with
                # barriers, the "extra kernels" of Table I)
                for epoch in range(vertex_epochs):
                    vids = ctx.thread_ids + epoch * stride
                    vids = vids[vids < num_vertices]
                    if vids.size:
                        yield load(Phase.REGISTRATION,
                                   env.region("row_ptr"),
                                   np.concatenate([vids, vids + 1]))
                        yield alu(Phase.REGISTRATION)
                        starts = graph.row_ptr[vids]
                        degrees = graph.row_ptr[vids + 1] - starts
                        if alg.has_base_filter:
                            for name in alg.base_filter_arrays:
                                yield load(Phase.REGISTRATION,
                                           env.region(name), vids)
                            yield alu(Phase.REGISTRATION)
                            degrees = alg.filtered_degrees(
                                env.state, vids, degrees
                            )
                        yield store(Phase.REGISTRATION, prefix_region,
                                    vids)
                    yield sync(Phase.REGISTRATION)
                    # scan-kernel passes over the partials
                    yield load(Phase.REGISTRATION, prefix_region,
                               vids if vids.size else
                               np.zeros(0, np.int64))
                    yield alu(Phase.REGISTRATION, 2)
                    yield store(Phase.REGISTRATION, prefix_region,
                                vids if vids.size else
                                np.zeros(0, np.int64))
                    yield sync(Phase.REGISTRATION)

                # Functional prefix built once per launch per core 0
                # warp 0; all warps share the same numpy arrays below.
                starts_all, prefix, total = _global_prefix(
                    graph, alg, env.state
                )

                # ---- distribution: exact contiguous rank slices ------
                per_thread = -(-total // stride) if total else 0
                warp_lo = (ctx.global_warp_id * lanes) * per_thread
                for block in range(per_thread):
                    lo = warp_lo + block * lanes
                    if lo >= total:
                        break
                    ranks = np.arange(lo, min(lo + lanes, total),
                                      dtype=np.int64)
                    yield WARP_ITERATION
                    # Per-lane binary search over the GLOBAL prefix:
                    # log|V| *dependent* probes, each a scattered
                    # global load (the scheme's distribution bill).
                    span = max(1, num_vertices)
                    probe = np.full(ranks.size, span // 2, dtype=np.int64)
                    for step in range(log_v):
                        yield load(Phase.SCHEDULE, prefix_region, probe)
                        yield alu(Phase.SCHEDULE)
                        shift = max(1, span >> (step + 2))
                        probe = (probe + ((ranks % 2) * 2 - 1)
                                 * shift) % span
                    owners = np.searchsorted(prefix, ranks, side="right")
                    prev = np.where(owners > 0, prefix[owners - 1], 0)
                    eids = starts_all[owners] + (ranks - prev)
                    bases = owners.astype(np.int64)
                    yield from process_edge_batch(
                        env, bases, eids, accumulate="atomic"
                    )

            return kernel()

        return factory


def _global_prefix(graph, alg, state):
    """Filtered degree prefix over every vertex (the scan's output)."""
    degrees = graph.degrees.astype(np.int64)
    if alg.has_base_filter:
        vids = np.arange(graph.num_vertices, dtype=np.int64)
        degrees = alg.filtered_degrees(state, vids, degrees)
    prefix = np.cumsum(degrees)
    total = int(prefix[-1]) if prefix.size else 0
    return graph.row_ptr[:-1], prefix, total
