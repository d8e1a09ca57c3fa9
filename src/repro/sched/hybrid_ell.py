"""Hybrid ELL + SparseWeaver schedule (Section III-D).

The dense ELL slab is processed with zero imbalance — every lane walks
exactly ``width`` column-major slots, loads fully coalesced — and only
the CSR residue (the hub tails that would have wrecked the slab) goes
through the Weaver. On skewed graphs this keeps the Weaver's tables and
decode traffic proportional to the tail instead of the whole edge set.
"""

from __future__ import annotations

import numpy as np

from repro.core.unit import WeaverUnit
from repro.graph.ell import to_hybrid_ell
from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import WARP_ITERATION, weaver_registration
from repro.sim.instructions import (
    Phase,
    alu,
    atomic,
    load,
    sync,
    weaver_dec_id,
    weaver_dec_loc,
    weaver_reg,
)


class HybridELLSchedule(Schedule):
    """ELL slab densely, CSR residue through the Weaver."""

    name = "hybrid_ell"
    label = "ELL+SW"
    uses_hardware_unit = True
    trace_safe = True

    def __init__(self, width: int = None) -> None:
        self.width = width

    def unit_factory(self, env: KernelEnv):
        config = env.config
        return lambda core_id: WeaverUnit(config, core_id=core_id)

    def warp_factory(self, env: KernelEnv):
        cfg = env.config
        lanes = env.lanes
        stride = cfg.total_threads
        alg = env.algorithm
        state = env.state
        n = env.num_vertices

        hybrid = env.regions.get("_hybrid_ell_cache")
        if hybrid is None:
            hybrid = to_hybrid_ell(env.graph, self.width)
            env.regions["_hybrid_ell_cache"] = hybrid
            env.regions["ell_cols"] = env.memory_map.alloc(
                "ell_cols", hybrid.ell_cols.size, 8)
            env.regions["ell_weights"] = env.memory_map.alloc(
                "ell_weights", hybrid.ell_weights.size, 8)
            env.regions["res_row_ptr"] = env.memory_map.alloc(
                "res_row_ptr", hybrid.residue.row_ptr.size, 8)
            env.regions["res_col_idx"] = env.memory_map.alloc(
                "res_col_idx", max(1, hybrid.residue.num_edges), 8)
            env.regions["res_weights"] = env.memory_map.alloc(
                "res_weights", max(1, hybrid.residue.num_edges), 8)
        residue = hybrid.residue
        width = hybrid.width
        # The slab is grid-strided over every thread; the residue is
        # registered by ST capacity, as SparseWeaver registers.
        reg_epochs, registered = weaver_registration(env)
        num_epochs = max(-(-n // stride), reg_epochs)
        lane_ids = np.arange(lanes, dtype=np.int64)

        def process(bases, others, weights_arr, eids):
            """Shared functional + filter handling (timing emitted by
            the caller around it)."""
            if alg.has_other_filter:
                keep = ~alg.other_filter(state, others)
            else:
                keep = np.ones(bases.size, dtype=bool)
            if keep.any():
                alg.edge_update(state, bases[keep], others[keep],
                                weights_arr[keep], eids[keep])
            return keep

        def factory(ctx):
            def kernel():
                for epoch in range(num_epochs):
                    vids = ctx.thread_ids + epoch * stride
                    vids = vids[vids < n]
                    # ---- dense ELL slab: no imbalance by construction
                    if vids.size:
                        if alg.has_base_filter:
                            for name in alg.base_filter_arrays:
                                yield load(Phase.REGISTRATION,
                                           env.region(name), vids)
                            yield alu(Phase.REGISTRATION)
                            blocked = alg.base_filter(state, vids)
                        else:
                            blocked = np.zeros(vids.size, dtype=bool)
                        for j in range(width):
                            others = hybrid.ell_cols[j, vids]
                            active = (others >= 0) & ~blocked
                            if not active.any():
                                continue
                            yield WARP_ITERATION
                            # column-major: lane-adjacent slots
                            yield load(Phase.EDGE_ACCESS,
                                       env.region("ell_cols"),
                                       j * n + vids[active])
                            if alg.uses_weights:
                                yield load(Phase.EDGE_ACCESS,
                                           env.region("ell_weights"),
                                           j * n + vids[active])
                            for name in alg.edge_value_arrays:
                                yield load(Phase.GATHER,
                                           env.region(name),
                                           others[active])
                            yield alu(Phase.GATHER, alg.gather_alu)
                            keep = process(
                                vids[active], others[active],
                                hybrid.ell_weights[j, vids[active]],
                                np.full(int(active.sum()), -1,
                                        dtype=np.int64),
                            )
                            targets = (vids[active] if
                                       alg.accumulate_target == "base"
                                       else others[active])
                            if keep.any():
                                yield atomic(Phase.GATHER,
                                             env.region(alg.acc_array),
                                             targets[keep])

                    # ---- residue: weave the hub tails ---------------
                    vids = registered(ctx, epoch)
                    if vids.size:
                        yield load(Phase.REGISTRATION,
                                   env.region("res_row_ptr"),
                                   np.concatenate([vids, vids + 1]))
                        yield alu(Phase.REGISTRATION)
                        starts = residue.row_ptr[vids]
                        degrees = residue.row_ptr[vids + 1] - starts
                        if alg.has_base_filter:
                            degrees = alg.filtered_degrees(
                                state, vids, degrees)
                        entries = list(zip(
                            lane_ids[: vids.size].tolist(),
                            vids.tolist(), starts.tolist(),
                            degrees.tolist()))
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
                        work = decoded.work_count
                        bases = decoded.vids[:work]
                        eids = eid_row[:work]
                        yield load(Phase.EDGE_ACCESS,
                                   env.region("res_col_idx"), eids)
                        others = residue.col_idx[eids]
                        if alg.uses_weights:
                            yield load(Phase.EDGE_ACCESS,
                                       env.region("res_weights"), eids)
                        for name in alg.edge_value_arrays:
                            yield load(Phase.GATHER, env.region(name),
                                       others)
                        yield alu(Phase.GATHER, alg.gather_alu)
                        keep = process(bases, others,
                                       residue.weights[eids],
                                       np.full(bases.size, -1,
                                               dtype=np.int64))
                        targets = (bases if alg.accumulate_target ==
                                   "base" else others)
                        if keep.any():
                            yield atomic(Phase.GATHER,
                                         env.region(alg.acc_array),
                                         targets[keep])
                    if epoch < num_epochs - 1:
                        yield sync(Phase.SCHEDULE)

            return kernel()

        return factory
