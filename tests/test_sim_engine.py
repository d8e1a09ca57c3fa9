"""The event-driven SIMT engine: issue, latency hiding, barriers, stalls."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import GPU, GPUConfig, CacheConfig, MemoryMap
from repro.sim.config import KB
from repro.sim.instructions import (
    Instr,
    Op,
    Phase,
    alu,
    atomic,
    counter,
    load,
    nop,
    shmem_load,
    store,
    sync,
)
from repro.sim.stats import StallCat


def one_core_config(warps=2, threads=4):
    return GPUConfig(
        num_sockets=1, cores_per_socket=1, warps_per_core=warps,
        threads_per_warp=threads,
        l1=CacheConfig(1 * KB, ways=2, hit_latency=4),
        l2=CacheConfig(4 * KB, ways=4, hit_latency=20),
        dram_latency=100,
    )


def run(cfg, factory, **kw):
    return GPU(cfg).run_kernel(factory, **kw)


def test_single_alu_instruction():
    cfg = one_core_config(warps=1)

    def factory(ctx):
        def k():
            yield alu(Phase.GATHER)
        return k()

    stats = run(cfg, factory)
    assert stats.instructions == 1
    # issue (1 cycle) with the 1-cycle ALU latency folded into it
    assert stats.total_cycles == 1


def test_alu_count_charges_issue_cycles():
    cfg = one_core_config(warps=1)

    def factory(ctx):
        def k():
            yield alu(Phase.GATHER, 5)
        return k()

    # count issue cycles; result ready at the end of the last one
    assert run(cfg, factory).total_cycles == 5


def test_warps_hide_memory_latency():
    """Two warps issuing independent DRAM loads overlap them."""
    cfg = one_core_config(warps=2)
    mm = MemoryMap()
    r = mm.alloc("r", 1024, 8)

    def solo_factory(ctx):
        if ctx.warp_slot > 0:
            return None

        def k():
            yield load(Phase.GATHER, r, np.array([0]))
        return k()

    def duo_factory(ctx):
        def k():
            yield load(Phase.GATHER, r, np.array([ctx.warp_slot * 512]))
        return k()

    solo = run(cfg, solo_factory)
    duo = run(cfg, duo_factory)
    # The second load overlaps the first: far less than 2x.
    assert duo.total_cycles < solo.total_cycles + 10


def test_dependent_loads_serialize_within_warp():
    cfg = one_core_config(warps=1)
    mm = MemoryMap()
    r = mm.alloc("r", 4096, 8)

    def factory(ctx):
        def k():
            yield load(Phase.GATHER, r, np.array([0]))
            yield load(Phase.GATHER, r, np.array([256]))
        return k()

    stats = run(cfg, factory)
    assert stats.total_cycles >= 2 * cfg.dram_latency_cycles


def test_memory_stall_attributed():
    cfg = one_core_config(warps=1)
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)

    def factory(ctx):
        def k():
            yield load(Phase.GATHER, r, np.array([0]))
            yield alu(Phase.GATHER)
        return k()

    stats = run(cfg, factory)
    assert stats.stall_cycles[StallCat.MEMORY] >= cfg.dram_latency_cycles - 1


def test_barrier_synchronizes_warps():
    cfg = one_core_config(warps=2)
    order = []

    def factory(ctx):
        def k():
            if ctx.warp_slot == 0:
                yield alu(Phase.GATHER, 50)  # slow warp
            order.append(("pre", ctx.warp_slot))
            yield sync(Phase.OTHER)
            order.append(("post", ctx.warp_slot))
            yield alu(Phase.GATHER)
        return k()

    stats = run(cfg, factory)
    pre = [e for e in order if e[0] == "pre"]
    post = [e for e in order if e[0] == "post"]
    assert order.index(post[0]) > order.index(pre[-1])
    assert stats.stall_cycles[StallCat.SYNC] > 0


def test_none_factory_warps_skip_barriers():
    cfg = one_core_config(warps=2)

    def factory(ctx):
        if ctx.warp_slot == 1:
            return None

        def k():
            yield sync(Phase.OTHER)
            yield alu(Phase.GATHER)
        return k()

    stats = run(cfg, factory)
    assert stats.warps_launched == 1


def test_store_is_buffered():
    cfg = one_core_config(warps=1)
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)

    def factory(ctx):
        def k():
            yield store(Phase.GATHER, r, np.array([0]))
        return k()

    stats = run(cfg, factory)
    assert stats.total_cycles <= 1 + cfg.store_latency + 1


def test_atomic_conflicts_serialize():
    cfg = one_core_config(warps=1)
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)

    def same_addr(ctx):
        def k():
            yield atomic(Phase.GATHER, r, np.array([0, 0, 0, 0]))
        return k()

    def distinct(ctx):
        def k():
            yield atomic(Phase.GATHER, r, np.array([0, 1, 2, 3]))
        return k()

    assert (run(cfg, same_addr).total_cycles
            > run(cfg, distinct).total_cycles)


def test_shmem_latency():
    cfg = one_core_config(warps=1)

    def factory(ctx):
        def k():
            yield shmem_load(Phase.SCHEDULE, 3)
        return k()

    assert run(cfg, factory).total_cycles == 3 + cfg.shmem_latency - 1


def test_counter_is_free():
    cfg = one_core_config(warps=1)

    def factory(ctx):
        def k():
            yield counter("things", 7)
            yield counter("things", 3)
        return k()

    stats = run(cfg, factory)
    assert stats.counters["things"] == 10
    assert stats.instructions == 0
    assert stats.total_cycles == 0


def test_phase_cycles_accumulate():
    cfg = one_core_config(warps=1)

    def factory(ctx):
        def k():
            yield alu(Phase.INIT, 2)
            yield alu(Phase.APPLY, 3)
        return k()

    stats = run(cfg, factory)
    assert stats.phase_cycles[Phase.INIT] == 2
    assert stats.phase_cycles[Phase.APPLY] == 3


def test_unit_op_without_unit_raises():
    cfg = one_core_config(warps=1)

    def factory(ctx):
        def k():
            yield Instr(Op.WEAVER_DEC_ID, Phase.SCHEDULE)
        return k()

    with pytest.raises(SimulationError):
        run(cfg, factory)


def test_runaway_kernel_guard():
    cfg = one_core_config(warps=1)

    def factory(ctx):
        def k():
            while True:
                yield nop()
        return k()

    with pytest.raises(SimulationError):
        run(cfg, factory, max_instructions=100)


def test_multi_core_total_is_max():
    cfg = GPUConfig(
        num_sockets=1, cores_per_socket=2, warps_per_core=1,
        threads_per_warp=4,
        l1=CacheConfig(1 * KB, ways=2), l2=None,
    )

    def factory(ctx):
        def k():
            yield alu(Phase.GATHER, 10 if ctx.core_id == 0 else 100)
        return k()

    stats = run(cfg, factory)
    assert stats.total_cycles == 100


def test_warp_context_thread_ids():
    cfg = one_core_config(warps=2, threads=4)
    seen = {}

    def factory(ctx):
        seen[ctx.warp_slot] = ctx.thread_ids.tolist()
        return None

    run(cfg, factory)
    assert seen[0] == [0, 1, 2, 3]
    assert seen[1] == [4, 5, 6, 7]


def test_flush_caches_forces_cold_start():
    cfg = one_core_config(warps=1)
    gpu = GPU(cfg)
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)

    def factory(ctx):
        def k():
            yield load(Phase.GATHER, r, np.array([0]))
        return k()

    first = gpu.run_kernel(factory)
    warm = gpu.run_kernel(factory)
    cold = gpu.run_kernel(factory, flush_caches=True)
    assert warm.total_cycles < first.total_cycles
    assert cold.total_cycles == first.total_cycles


def test_dram_accesses_per_kernel():
    cfg = one_core_config(warps=1)
    gpu = GPU(cfg)
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)

    def factory(ctx):
        def k():
            yield load(Phase.GATHER, r, np.array([0]))
        return k()

    first = gpu.run_kernel(factory)
    second = gpu.run_kernel(factory)
    assert first.dram_accesses == 1
    assert second.dram_accesses == 0


def test_cache_counts_per_kernel():
    """``stats.cache`` holds the kernel's own increments in objects of
    its own: a later kernel on the same GPU leaves it unchanged."""
    cfg = one_core_config(warps=1)
    gpu = GPU(cfg)
    mm = MemoryMap()
    r = mm.alloc("r", 256, 8)
    per_line = cfg.l1.line_bytes // 8

    def factory(lines):
        def make(ctx):
            def k():
                yield load(Phase.GATHER, r, np.arange(lines) * per_line)
            return k()
        return make

    first = gpu.run_kernel(factory(4))
    counts = {name: (cs.hits, cs.misses) for name, cs in first.cache.items()}
    second = gpu.run_kernel(factory(6))
    assert {name: (cs.hits, cs.misses)
            for name, cs in first.cache.items()} == counts
    assert (first.cache["L1"].hits, first.cache["L1"].misses) == (0, 4)
    assert (second.cache["L1"].hits, second.cache["L1"].misses) == (4, 2)
    for stats in (first, second):
        last = stats.cache[max(stats.cache)]
        assert last.misses == stats.dram_accesses
    assert (first.dram_accesses, second.dram_accesses) == (4, 2)
