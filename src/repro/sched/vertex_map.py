"""S_vm — naive vertex mapping (Table I column 1).

Each thread owns a vertex and serially walks that vertex's neighbor
list. Lockstep execution makes every warp round last as long as its
highest-degree lane, which is the workload-imbalance pathology of
Fig. 1: warp rounds = sum over warps of max degree in the warp.

Upside: no extra synchronization, no shared memory, accumulators live
in registers (one store per vertex), edge memory traffic is the minimal
``2|V| + |E|``.
"""

from __future__ import annotations

import numpy as np

from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import (
    WARP_ITERATION,
    check_early_exit,
    epoch_vertex_ids,
    inspect_topology,
    process_edge_batch,
    writeback_accumulators,
)


class VertexMapSchedule(Schedule):
    """One vertex per thread; per-thread serial edge walk."""

    name = "vertex_map"
    label = "S_vm"
    trace_safe = True

    def warp_factory(self, env: KernelEnv):
        num_epochs = env.vertex_epochs()
        stride = env.config.total_threads
        # Pull keeps each lane's sum in a register (one store at the
        # end); push scatters to the opposite endpoint and pays atomics
        # like everyone else.
        pull_local = env.algorithm.accumulate_target == "base"
        accumulate = "local" if pull_local else "atomic"
        early_exit = env.algorithm.has_early_exit

        def factory(ctx):
            if ctx.thread_ids[0] >= env.num_vertices:
                return None  # this warp never owns a vertex

            def kernel():
                for epoch in range(num_epochs):
                    vids = epoch_vertex_ids(ctx, env, epoch)
                    if vids.size == 0:
                        break
                    starts, degrees = yield from inspect_topology(env, vids)
                    alive = np.nonzero(degrees > 0)[0]
                    k = 0
                    while alive.size:
                        yield WARP_ITERATION
                        bases = vids[alive]
                        eids = starts[alive] + k
                        yield from process_edge_batch(
                            env, bases, eids, accumulate=accumulate
                        )
                        k += 1
                        alive = alive[degrees[alive] > k]
                        if early_exit and alive.size:
                            done = yield from check_early_exit(
                                env, vids[alive]
                            )
                            if done.any():
                                alive = alive[~done]
                    if pull_local:
                        touched = vids[degrees > 0]
                        yield from writeback_accumulators(env, touched)

            return kernel()

        _ = stride  # stride is implicit in epoch_vertex_ids
        return factory
