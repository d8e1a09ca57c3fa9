"""The SparseWeaver schedule (Sections III-IV; kernel of Fig. 9).

Registration: each thread inspects its vertex's topology and issues
``WEAVER_REG(vid, start, degree)`` (filtered vertices register degree
zero). One barrier separates the stages. Distribution: warps loop on
``WEAVER_DEC_ID`` / ``WEAVER_DEC_LOC``, getting densely packed
(VID, EID) work across all lanes until the unit returns -1; algorithms
with early exit send ``WEAVER_SKIP`` for finished vertices.

Block-level balance comes for free (the per-core unit scans every
warp's registrations), work is handed out in request order (dynamic
distribution), and the only software overhead left is the single
barrier — the "low / low" complexity column of Table I.

When the vertex range exceeds one registration capacity, the kernel
runs multiple epochs; a trailing barrier protects the table reset
between epochs (the paper's single-epoch case keeps exactly one sync).
"""

from __future__ import annotations

import numpy as np

from repro.core.unit import WeaverUnit
from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import (
    WARP_ITERATION,
    check_early_exit,
    inspect_topology,
    process_edge_batch,
    weaver_registration,
)
from repro.sim.instructions import (
    Phase,
    sync,
    weaver_dec_id,
    weaver_dec_loc,
    weaver_reg,
    weaver_skip,
)


class SparseWeaverSchedule(Schedule):
    """Hardware-woven dense work distribution.

    The constructor exposes the microarchitectural knobs the ablation
    benchmarks sweep: OD prefetch depth (decoupled scan), the zero-entry
    bitmap scan width (frontier-friendly skipping), and the DT
    write-buffer bypass. Defaults are the modeled hardware's.
    """

    name = "sparseweaver"
    label = "SW"
    uses_hardware_unit = True
    trace_safe = True

    def __init__(
        self,
        prefetch_depth: int = 4,
        zero_skip_width: int = None,
        dt_bypass: bool = True,
    ) -> None:
        self.prefetch_depth = prefetch_depth
        self.zero_skip_width = zero_skip_width
        self.dt_bypass = dt_bypass

    def unit_factory(self, env: KernelEnv):
        config = env.config
        prefetch_depth = self.prefetch_depth
        zero_skip_width = self.zero_skip_width
        dt_bypass = self.dt_bypass

        def build(core_id: int) -> WeaverUnit:
            unit = WeaverUnit(config, prefetch_depth=prefetch_depth)
            if zero_skip_width is not None:
                unit.fsm.zero_skip_width = zero_skip_width
            if not dt_bypass:
                unit.DT_BYPASS_LATENCY = config.weaver_table_latency
            return unit

        return build

    def warp_factory(self, env: KernelEnv):
        lane_ids = np.arange(env.lanes, dtype=np.int64)
        num_epochs, registered = weaver_registration(env)
        early_exit = env.algorithm.has_early_exit

        def factory(ctx):
            def kernel():
                for epoch in range(num_epochs):
                    vids = registered(ctx, epoch)
                    if vids.size:
                        starts, degrees = yield from inspect_topology(
                            env, vids
                        )
                        entries = list(
                            zip(lane_ids[: vids.size].tolist(),
                                vids.tolist(),
                                starts.tolist(),
                                degrees.tolist())
                        )
                        yield weaver_reg(Phase.REGISTRATION, entries)
                    else:
                        yield weaver_reg(Phase.REGISTRATION, [])
                    yield sync(Phase.REGISTRATION)

                    while True:
                        yield WARP_ITERATION
                        decoded = yield weaver_dec_id(Phase.SCHEDULE)
                        if decoded.exhausted:
                            break
                        eid_row = yield weaver_dec_loc(Phase.SCHEDULE)
                        # Work fills the first lanes of both rows.
                        work = decoded.work_count
                        bases = decoded.vids[:work]
                        eids = eid_row[:work]
                        yield from process_edge_batch(
                            env, bases, eids, accumulate="atomic"
                        )
                        if not early_exit:
                            continue
                        done = yield from check_early_exit(env, bases)
                        if done.any():
                            for vid in np.unique(bases[done]).tolist():
                                yield weaver_skip(Phase.GATHER, int(vid))
                    if epoch < num_epochs - 1:
                        # Protect the ST/DT reset of the next epoch's
                        # registration from stragglers.
                        yield sync(Phase.SCHEDULE)

            return kernel()

        return factory
