"""S_em — edge mapping (Table I column 2).

One edge per thread: perfectly balanced by construction (warp rounds =
|E| / warp width) but each thread must read *both* endpoints of its
edge because it has no base-vertex context — the ``2|E|`` edge-memory
column of Table I — and accumulation needs atomics since many lanes can
share a destination. On low-skew graphs that double edge read makes
S_em lose to S_vm; on highly skewed graphs balance wins (Fig. 11b).
"""

from __future__ import annotations

import numpy as np

from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import (
    WARP_ITERATION,
    epoch_edge_ids,
    process_edge_batch,
)
from repro.sim.instructions import Phase, alu, load


class EdgeMapSchedule(Schedule):
    """One edge per thread, grid-stride over the edge array."""

    name = "edge_map"
    label = "S_em"
    trace_safe = True

    def warp_factory(self, env: KernelEnv):
        num_epochs = env.edge_epochs()
        alg = env.algorithm
        edge_sources = env.graph.edge_sources()

        def factory(ctx):
            if ctx.thread_ids[0] >= env.num_edges:
                return None

            def kernel():
                for epoch in range(num_epochs):
                    eids = epoch_edge_ids(ctx, env, epoch)
                    if eids.size == 0:
                        break
                    yield WARP_ITERATION
                    # Second endpoint read: the base vertex of each edge
                    # (this is the extra |E| read S_em pays).
                    yield load(Phase.EDGE_ACCESS, env.region("edge_src"),
                               eids)
                    bases = edge_sources[eids]
                    if alg.has_base_filter:
                        for name in alg.base_filter_arrays:
                            yield load(Phase.SCHEDULE, env.region(name),
                                       bases)
                        yield alu(Phase.SCHEDULE)
                        keep = ~alg.base_filter(env.state, bases)
                        bases = bases[keep]
                        eids = eids[keep]
                    yield from process_edge_batch(
                        env, bases, eids, accumulate="atomic"
                    )

            return kernel()

        return factory
