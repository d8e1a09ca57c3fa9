"""S_cm — CTA/block-level sharing (Meng et al. [33]; Table I column 4).

All warps of a core pool their vertices' degree runs into one shared
prefix array, then split the block's total work evenly across every
lane of every warp. Better balance than S_wm (a hub is spread across
the whole block) at the price of block-wide synchronization and a
deeper ``O(log(W*T))`` binary search per edge — the higher registration
complexity row of Table I.

The block-wide scan is modeled hierarchically: intra-warp shuffle scan,
a barrier, warp-totals scan, a barrier, then the triple store.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
    sync,
)


class CTAMapSchedule(Schedule):
    """Block-shared prefix sum + per-edge binary search over the block."""

    name = "cta_map"
    label = "S_cm"
    # Shared per-launch registries are slot-keyed before each barrier
    # and combined idempotently after it — the trace_safe contract.
    trace_safe = True

    def warp_factory(self, env: KernelEnv):
        num_epochs = env.vertex_epochs()
        cfg = env.config
        lanes = env.lanes
        warps = cfg.warps_per_core
        block_threads = warps * lanes
        log_t = log2_ceil(lanes)
        log_w = log2_ceil(warps)
        log_b = log2_ceil(block_threads)
        # Shared registry: (core, epoch) -> per-warp registered runs.
        shared: Dict[Tuple[int, int], Dict] = {}

        def factory(ctx):
            core_key = ctx.core_id

            def kernel():
                for epoch in range(num_epochs):
                    key = (core_key, epoch)
                    entry = shared.setdefault(
                        key, {"warps": {}, "combined": None}
                    )
                    vids = epoch_vertex_ids(ctx, env, epoch)
                    starts, degrees = yield from inspect_topology(env, vids)
                    entry["warps"][ctx.warp_slot] = (vids, starts, degrees)
                    # Hierarchical block scan: intra-warp shuffles, warp
                    # total to shared, barrier, warp-totals scan, barrier,
                    # final (vid, start, prefix) store.
                    yield alu(Phase.REGISTRATION, log_t)
                    yield shmem_store(Phase.REGISTRATION, 1)
                    yield sync(Phase.REGISTRATION)
                    yield shmem_load(Phase.REGISTRATION, 1)
                    yield alu(Phase.REGISTRATION, log_w)
                    yield shmem_store(Phase.REGISTRATION, 3)
                    yield sync(Phase.REGISTRATION)

                    combined = entry.get("combined")
                    if combined is None:
                        combined = _combine(entry["warps"])
                        entry["combined"] = combined
                    all_vids, all_starts, prefix, total = combined
                    rounds = -(-total // block_threads) if total else 0
                    for block_round in range(rounds):
                        yield WARP_ITERATION
                        lo = (block_round * block_threads
                              + ctx.warp_slot * lanes)
                        hi = min(lo + lanes, total)
                        if lo >= total:
                            # Lockstep: idle warps still pay the search
                            # round alongside their block.
                            yield shmem_load(Phase.SCHEDULE, log_b)
                            yield alu(Phase.SCHEDULE, log_b)
                            continue
                        ranks = np.arange(lo, hi, dtype=np.int64)
                        yield shmem_load(Phase.SCHEDULE, log_b)
                        yield alu(Phase.SCHEDULE, log_b)
                        owners = np.searchsorted(prefix, ranks, side="right")
                        prev = np.where(owners > 0, prefix[owners - 1], 0)
                        eids = all_starts[owners] + (ranks - prev)
                        bases = all_vids[owners]
                        yield from process_edge_batch(
                            env, bases, eids, accumulate="atomic"
                        )

            return kernel()

        return factory


def _combine(per_warp: Dict[int, Tuple]) -> Tuple:
    """Concatenate per-warp registrations in warp order and build the
    block prefix sum."""
    vids_list, starts_list, degs_list = [], [], []
    for slot in sorted(per_warp):
        vids, starts, degs = per_warp[slot]
        vids_list.append(vids)
        starts_list.append(starts)
        degs_list.append(degs)
    all_vids = np.concatenate(vids_list) if vids_list else np.zeros(0, np.int64)
    all_starts = (
        np.concatenate(starts_list) if starts_list else np.zeros(0, np.int64)
    )
    all_degs = (
        np.concatenate(degs_list) if degs_list else np.zeros(0, np.int64)
    )
    prefix = np.cumsum(all_degs)
    total = int(prefix[-1]) if prefix.size else 0
    return all_vids, all_starts, prefix, total
