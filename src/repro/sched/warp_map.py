"""S_wm — warp-level sharing (Meng et al. [33]; Table I column 3).

Registration: every lane inspects its vertex's topology and the warp
builds a prefix sum of degrees via shuffle-style exchanges, storing the
(vid, start, prefix) triples to shared memory — Table I's "3|B| shared
memory / 6 warp shuffles" costs.

Distribution: the warp's total degree is chopped into warp-wide rounds;
each lane binary-searches the shared prefix array (``O(log T)`` shared
reads per edge — Table I's "|E| binary search" complexity) to find the
vertex owning its rank, then processes one edge. Balance is per-warp:
a hub still serializes within its own warp's share.
"""

from __future__ import annotations

import numpy as np

from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import (
    WARP_ITERATION,
    epoch_vertex_ids,
    inspect_topology,
    log2_ceil,
    process_edge_batch,
)
from repro.sim.instructions import (
    Phase,
    alu,
    shmem_load,
    shmem_store,
)


class WarpMapSchedule(Schedule):
    """Warp-shared prefix sum + per-edge binary search."""

    name = "warp_map"
    label = "S_wm"
    trace_safe = True

    def warp_factory(self, env: KernelEnv):
        num_epochs = env.vertex_epochs()
        lanes = env.lanes
        log_t = log2_ceil(lanes)

        def factory(ctx):
            if ctx.thread_ids[0] >= env.num_vertices:
                return None

            def kernel():
                for epoch in range(num_epochs):
                    vids = epoch_vertex_ids(ctx, env, epoch)
                    if vids.size == 0:
                        break
                    starts, degrees = yield from inspect_topology(env, vids)
                    # Warp-wide inclusive scan of degrees (shuffles) and
                    # the triple store to shared memory.
                    yield alu(Phase.REGISTRATION, log_t)
                    yield shmem_store(Phase.REGISTRATION, 3)
                    prefix = np.cumsum(degrees)
                    total = int(prefix[-1]) if prefix.size else 0
                    for offset in range(0, total, lanes):
                        yield WARP_ITERATION
                        ranks = offset + np.arange(
                            min(lanes, total - offset), dtype=np.int64
                        )
                        # Per-lane binary search over the shared prefix.
                        yield shmem_load(Phase.SCHEDULE, log_t)
                        yield alu(Phase.SCHEDULE, log_t)
                        owners = np.searchsorted(prefix, ranks, side="right")
                        prev = np.where(owners > 0, prefix[owners - 1], 0)
                        eids = starts[owners] + (ranks - prev)
                        bases = vids[owners]
                        yield from process_edge_batch(
                            env, bases, eids, accumulate="atomic"
                        )

            return kernel()

        return factory
