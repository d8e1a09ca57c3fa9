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
from repro.sched.common import (
    EPOCH_RESET,
    WARP_ITERATION,
    read_rows,
    weaver_epoch,
    weaver_registration,
)
from repro.sim.instructions import Phase, alu, atomic, load


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
        reg_epochs, registered = weaver_registration(cfg, n)
        num_epochs = max(-(-n // stride), reg_epochs)

        def gather(cols, weight_array, slots, bases, others, weights):
            """One slab or residue batch: its edge reads at ``slots``
            of the ``cols`` (and ``weight_array``) regions, gather and
            atomic."""
            yield load(Phase.EDGE_ACCESS, env.region(cols), slots)
            if alg.uses_weights:
                yield load(Phase.EDGE_ACCESS, env.region(weight_array),
                           slots)
            for name in alg.edge_value_arrays:
                yield load(Phase.GATHER, env.region(name), others)
            yield alu(Phase.GATHER, alg.gather_alu)
            eids = np.full(bases.size, -1, dtype=np.int64)
            if alg.has_other_filter:
                keep = ~alg.other_filter(state, others)
                if not keep.any():
                    return
                bases, others, weights, eids = (
                    bases[keep], others[keep], weights[keep], eids[keep])
            env.edge_update(bases, others, weights, eids)
            yield atomic(Phase.GATHER, env.region(alg.acc_array),
                         bases if alg.accumulate_target == "base"
                         else others)

        def register(vids):
            starts, degrees = yield from read_rows(
                env.region("res_row_ptr"), residue.row_ptr, vids)
            if alg.has_base_filter:
                degrees = alg.filtered_degrees(state, vids, degrees)
            return starts, degrees

        def residue_batch(bases, eids):
            yield from gather("res_col_idx", "res_weights", eids, bases,
                              residue.col_idx[eids], residue.weights[eids])

        def factory(ctx):
            def kernel():
                for epoch in range(num_epochs):
                    if epoch:
                        yield EPOCH_RESET
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
                            bases = vids[active]
                            # column-major: lane-adjacent slots
                            yield from gather(
                                "ell_cols", "ell_weights", j * n + bases,
                                bases, others[active],
                                hybrid.ell_weights[j, bases])
                    # ---- residue: weave the hub tails ---------------
                    yield from weaver_epoch(registered(ctx, epoch),
                                            register, residue_batch)

            return kernel()

        return factory
