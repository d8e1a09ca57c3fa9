"""S_twce — TWC with Extra kernels (GraphIt [6]; Table I column 6).

GraphIt's variant of thread/warp/CTA bucketing launches a *separate
kernel per bucket* (Table I's "add Kernel = 3") and builds the buckets
with atomically-bumped shared/global worklist counters (2|V| atomics at
registration, 6|B| shared memory). During distribution, threads pop
work from the shared worklists with atomic counters instead of binary
searching — no searches, but alpha|E| atomics and alpha|E| syncs.

Modeled here as the TWC structure plus: worklist-append atomics at
registration, kernel-boundary barriers with bucket-data reloads between
sub-phases (registers do not survive a kernel launch), and a
shared-memory worklist pop per processed batch.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import (
    WARP_ITERATION,
    inspect_topology,
    process_edge_batch,
)
from repro.sched.twc import TWCSchedule, _bucketize, _my_slice
from repro.sim.instructions import (
    Phase,
    alu,
    atomic,
    load,
    shmem_store,
    sync,
)


class TWCESchedule(TWCSchedule):
    """TWC with per-bucket kernels and worklist atomics."""

    name = "twce"
    label = "S_twce"
    trace_safe = True  # inherits twc's slot-keyed registry discipline

    def warp_factory(self, env: KernelEnv):
        cfg = env.config
        lanes = env.lanes
        warps = cfg.warps_per_core
        small_max = self.small_max
        medium_max = self.medium_max or 8 * lanes
        stride = cfg.total_threads
        num_epochs = env.vertex_epochs()
        num_vertices = env.num_vertices
        if "twc_buckets" not in env.regions:
            env.regions["twc_buckets"] = env.memory_map.alloc(
                "twc_buckets", 3 * max(1, num_vertices), 8
            )
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
                        # two worklist-counter bumps per vertex
                        yield alu(Phase.REGISTRATION, 2)
                        yield atomic(Phase.REGISTRATION,
                                     env.region("twc_buckets"), vids)
                        yield atomic(Phase.REGISTRATION,
                                     env.region("twc_buckets"),
                                     vids + num_vertices)
                        yield shmem_store(Phase.REGISTRATION, 2)
                    entry["warps"][ctx.warp_slot] = (vids, starts, degrees)
                    yield sync(Phase.REGISTRATION)

                    combined = entry.get("combined")
                    if combined is None:
                        combined = _bucketize(entry["warps"], small_max,
                                              medium_max)
                        entry["combined"] = combined
                    buckets = dict(zip(("small", "medium", "large"),
                                       combined))

                    # --- three sub-kernels, one per bucket ------------
                    for which in ("small", "medium", "large"):
                        # kernel boundary: reload this bucket's entries
                        # from global memory (registers don't survive).
                        b_vids, b_starts, b_degs = buckets[which]
                        if b_vids.size:
                            yield load(Phase.SCHEDULE,
                                       env.region("twc_buckets"), b_vids)
                        if which == "small":
                            s_vids, s_starts, s_degs = _my_slice(
                                buckets[which], ctx, warps, lanes,
                                per="thread")
                            alive = np.nonzero(s_degs > 0)[0]
                            k = 0
                            while alive.size:
                                yield WARP_ITERATION
                                yield shmem_store(Phase.SCHEDULE, 1)
                                yield from process_edge_batch(
                                    env, s_vids[alive],
                                    s_starts[alive] + k,
                                    accumulate="atomic",
                                )
                                k += 1
                                alive = alive[s_degs[alive] > k]
                        elif which == "medium":
                            m_vids, m_starts, m_degs = _my_slice(
                                buckets[which], ctx, warps, lanes,
                                per="warp")
                            for v, s, d in zip(m_vids.tolist(),
                                               m_starts.tolist(),
                                               m_degs.tolist()):
                                for off in range(0, d, lanes):
                                    yield WARP_ITERATION
                                    yield shmem_store(Phase.SCHEDULE, 1)
                                    eids = s + np.arange(
                                        off, min(off + lanes, d))
                                    yield from process_edge_batch(
                                        env, np.full(eids.size, v), eids,
                                        accumulate="atomic",
                                    )
                        else:
                            l_vids, l_starts, l_degs = buckets[which]
                            block = warps * lanes
                            for v, s, d in zip(l_vids.tolist(),
                                               l_starts.tolist(),
                                               l_degs.tolist()):
                                rounds = -(-d // block)
                                for r in range(rounds):
                                    yield WARP_ITERATION
                                    lo = (s + r * block
                                          + ctx.warp_slot * lanes)
                                    hi = min(lo + lanes, s + d)
                                    if lo >= s + d:
                                        continue
                                    yield shmem_store(Phase.SCHEDULE, 1)
                                    eids = np.arange(lo, hi)
                                    yield from process_edge_batch(
                                        env, np.full(eids.size, v), eids,
                                        accumulate="atomic",
                                    )
                        # kernel boundary barrier
                        yield sync(Phase.SCHEDULE)

            return kernel()

        return factory
