"""EGHW schedule — Case Study 1's edge-generating-hardware baseline.

The GPU stages active vertex ids into the unit's shared-memory buffer;
the unit itself reads graph topology *and* edge information from the
memory hierarchy on its serial private timeline and emits complete edge
records; warps block on ``EGHW_FETCH`` for each batch. The GPU only
performs the vertex-property gather on the records.

Contrast with SparseWeaver: the unit's own memory reads cannot be
hidden behind other warps, and the generated records cost extra
shared-memory traffic — the two overheads Fig. 18's breakdown shows.
"""

from __future__ import annotations

import numpy as np

from repro.core.eghw import EGHWUnit
from repro.errors import ScheduleError
from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import (
    WARP_ITERATION,
    epoch_vertex_ids,
    process_edge_batch,
)
from repro.sim.instructions import (
    Phase,
    alu,
    eghw_fetch,
    eghw_push,
    load,
    shmem_store,
    sync,
)


class EGHWSchedule(Schedule):
    """Offload topology + edge-info access wholesale to a unit."""

    name = "eghw"
    label = "EGHW"
    uses_hardware_unit = True
    trace_safe = True

    def unit_factory(self, env: KernelEnv):
        if env.memory is None:
            raise ScheduleError(
                "EGHW needs env.memory bound to the GPU's hierarchy "
                "before launch"
            )
        graph = env.graph

        def build(core_id: int) -> EGHWUnit:
            return EGHWUnit(
                core_id,
                env.config,
                env.memory,
                env.region("row_ptr"),
                env.region("col_idx"),
                env.region("weights"),
                graph.row_ptr,
                graph.col_idx,
                graph.weights,
            )

        return build

    def warp_factory(self, env: KernelEnv):
        num_epochs = env.vertex_epochs()
        alg = env.algorithm

        def factory(ctx):
            def kernel():
                for epoch in range(num_epochs):
                    vids = epoch_vertex_ids(ctx, env, epoch)
                    if vids.size and alg.has_base_filter:
                        for name in alg.base_filter_arrays:
                            yield load(Phase.REGISTRATION,
                                       env.region(name), vids)
                        yield alu(Phase.REGISTRATION)
                        vids = vids[~alg.base_filter(env.state, vids)]
                    if vids.size:
                        # Stage vertex ids into the unit's input buffer.
                        yield shmem_store(Phase.REGISTRATION, 1)
                        yield eghw_push(Phase.REGISTRATION, vids.tolist())
                    yield sync(Phase.REGISTRATION)

                    while True:
                        yield WARP_ITERATION
                        batch = yield eghw_fetch(Phase.SCHEDULE)
                        if batch.exhausted:
                            break
                        # The unit already fetched endpoints + weights;
                        # the GPU only gathers vertex properties.  The
                        # records fill the batch's first lanes.
                        n = batch.count
                        yield from process_edge_batch(
                            env, batch.vids[:n], batch.eids[:n],
                            accumulate="atomic", preloaded=True,
                            others=batch.others[:n],
                            weights=batch.weights[:n],
                        )
                    if epoch < num_epochs - 1:
                        yield sync(Phase.SCHEDULE)

            return kernel()

        return factory
