"""S_twc — Thread/Warp/CTA bucketing (Merrill et al. [34]).

Registration classifies vertices by degree into three buckets held in
*global* memory (Table I charges this scheme 3|V| global memory and
3|V| atomics): small vertices are processed thread-per-vertex like
S_vm, medium vertices warp-per-vertex (all lanes cooperate on one
neighbor list), and large vertices block-per-vertex (every warp of the
core cooperates). The tiered cooperation removes the worst lockstep
imbalance without a per-edge binary search — at the cost of the bucket
build (atomic appends) and two extra distribution sub-phases.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import ScheduleError
from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import (
    WARP_ITERATION,
    inspect_topology,
    process_edge_batch,
)
from repro.sim.instructions import (
    Phase,
    alu,
    atomic,
    load,
    sync,
)


class TWCSchedule(Schedule):
    """Three-bucket thread/warp/CTA cooperation."""

    name = "twc"
    label = "S_twc"
    # Bucket registries are slot-keyed before the barrier and
    # bucketized idempotently after it — the trace_safe contract.
    trace_safe = True

    def __init__(self, small_max: int = 4,
                 medium_max: int = None) -> None:
        if small_max < 1:
            raise ScheduleError("small_max must be at least 1")
        self.small_max = small_max
        self.medium_max = medium_max  # default: 8 * warp width

    def warp_factory(self, env: KernelEnv):
        cfg = env.config
        lanes = env.lanes
        warps = cfg.warps_per_core
        small_max = self.small_max
        medium_max = self.medium_max or 8 * lanes
        stride = cfg.total_threads
        num_epochs = env.vertex_epochs()
        num_vertices = env.num_vertices
        # Global bucket lists (the scheme's 3|V| global memory).
        if "twc_buckets" not in env.regions:
            env.regions["twc_buckets"] = env.memory_map.alloc(
                "twc_buckets", 3 * max(1, num_vertices), 8
            )
        # Shared per-(core, launch-local epoch) registry, one per launch.
        shared: Dict[Tuple[int, int], Dict] = {}

        def factory(ctx):
            def kernel():
                for epoch in range(num_epochs):
                    key = (ctx.core_id, epoch)
                    entry = shared.setdefault(key, {"warps": {}})
                    vids = ctx.thread_ids + epoch * stride
                    vids = vids[vids < num_vertices]
                    starts, degrees = yield from inspect_topology(env, vids)
                    if vids.size:
                        # classify + atomic append into global buckets
                        yield alu(Phase.REGISTRATION, 2)
                        yield atomic(Phase.REGISTRATION,
                                     env.region("twc_buckets"), vids)
                    entry["warps"][ctx.warp_slot] = (vids, starts, degrees)
                    yield sync(Phase.REGISTRATION)

                    combined = entry.get("combined")
                    if combined is None:
                        combined = _bucketize(entry["warps"], small_max,
                                              medium_max)
                        entry["combined"] = combined
                    small, medium, large = combined

                    # --- small: thread-per-vertex (S_vm style) -------
                    s_vids, s_starts, s_degs = _my_slice(
                        small, ctx, warps, lanes, per="thread")
                    alive = np.nonzero(s_degs > 0)[0]
                    k = 0
                    while alive.size:
                        yield WARP_ITERATION
                        yield from process_edge_batch(
                            env, s_vids[alive], s_starts[alive] + k,
                            accumulate="atomic",
                        )
                        k += 1
                        alive = alive[s_degs[alive] > k]

                    # --- medium: warp-per-vertex ---------------------
                    m_vids, m_starts, m_degs = _my_slice(
                        medium, ctx, warps, lanes, per="warp")
                    for v, s, d in zip(m_vids.tolist(), m_starts.tolist(),
                                       m_degs.tolist()):
                        # bucket-entry read before the cooperative walk
                        yield load(Phase.SCHEDULE,
                                   env.region("twc_buckets"), [v])
                        for off in range(0, d, lanes):
                            yield WARP_ITERATION
                            eids = s + np.arange(off,
                                                 min(off + lanes, d))
                            yield from process_edge_batch(
                                env, np.full(eids.size, v), eids,
                                accumulate="atomic",
                            )

                    # --- large: block-per-vertex ---------------------
                    yield sync(Phase.SCHEDULE)
                    l_vids, l_starts, l_degs = large
                    block = warps * lanes
                    for v, s, d in zip(l_vids.tolist(), l_starts.tolist(),
                                       l_degs.tolist()):
                        rounds = -(-d // block)
                        for r in range(rounds):
                            yield WARP_ITERATION
                            lo = s + r * block + ctx.warp_slot * lanes
                            hi = min(lo + lanes, s + d)
                            if lo >= s + d:
                                continue
                            eids = np.arange(lo, hi)
                            yield from process_edge_batch(
                                env, np.full(eids.size, v), eids,
                                accumulate="atomic",
                            )
                    yield sync(Phase.SCHEDULE)

            return kernel()

        return factory


def _bucketize(per_warp: Dict[int, Tuple], small_max: int,
               medium_max: int):
    """Split the core's registered vertices into three degree buckets."""
    vids_list, starts_list, degs_list = [], [], []
    for slot in sorted(per_warp):
        vids, starts, degs = per_warp[slot]
        vids_list.append(vids)
        starts_list.append(starts)
        degs_list.append(degs)
    vids = (np.concatenate(vids_list) if vids_list
            else np.zeros(0, np.int64))
    starts = (np.concatenate(starts_list) if starts_list
              else np.zeros(0, np.int64))
    degs = (np.concatenate(degs_list) if degs_list
            else np.zeros(0, np.int64))
    small = degs <= small_max
    large = degs > medium_max
    medium = ~small & ~large
    return (
        (vids[small], starts[small], degs[small]),
        (vids[medium], starts[medium], degs[medium]),
        (vids[large], starts[large], degs[large]),
    )


def _my_slice(bucket, ctx, warps: int, lanes: int, per: str):
    """The subset of a bucket this warp owns: round-robin by thread
    (small) or by warp (medium)."""
    vids, starts, degs = bucket
    if per == "thread":
        lo = ctx.warp_slot * lanes
        idx = np.arange(vids.size)
        mine = (idx % (warps * lanes) >= lo) & (
            idx % (warps * lanes) < lo + lanes)
    else:  # per warp
        idx = np.arange(vids.size)
        mine = idx % warps == ctx.warp_slot
    return vids[mine], starts[mine], degs[mine]
