"""KernelStats accounting and instruction helper coverage."""

import numpy as np
import pytest

from repro.sim.instructions import (
    Instr,
    Op,
    Phase,
    PHASE_LABELS,
    alu,
    as_index_array,
    atomic,
    counter,
    eghw_fetch,
    eghw_push,
    load,
    nop,
    shmem_load,
    shmem_store,
    store,
    sync,
    weaver_dec_id,
    weaver_dec_loc,
    weaver_reg,
    weaver_skip,
)
from repro.sim.stats import (
    CacheStats,
    KernelStats,
    StallCat,
    STALL_LABELS,
    stall_category,
)


# ----------------------------------------------------------------------
# Instruction helpers
# ----------------------------------------------------------------------
def test_factory_helpers_set_ops():
    assert alu(Phase.GATHER).op == Op.ALU
    assert load(Phase.GATHER, None, [1]).op == Op.LOAD
    assert store(Phase.GATHER, None, [1]).op == Op.STORE
    assert shmem_load(Phase.SCHEDULE).op == Op.SHMEM_LOAD
    assert shmem_store(Phase.SCHEDULE).op == Op.SHMEM_STORE
    assert atomic(Phase.GATHER, None, [1]).op == Op.ATOMIC
    assert sync(Phase.OTHER).op == Op.SYNC
    assert weaver_reg(Phase.REGISTRATION, []).op == Op.WEAVER_REG
    assert weaver_dec_id(Phase.SCHEDULE).op == Op.WEAVER_DEC_ID
    assert weaver_dec_loc(Phase.SCHEDULE).op == Op.WEAVER_DEC_LOC
    assert weaver_skip(Phase.GATHER, 3).payload == 3
    assert eghw_push(Phase.REGISTRATION, [1]).op == Op.EGHW_PUSH
    assert eghw_fetch(Phase.SCHEDULE).op == Op.EGHW_FETCH
    assert counter("x", 2).payload == ("x", 2)
    assert nop().op == Op.NOP


def test_alu_count_carried():
    assert alu(Phase.GATHER, 7).count == 7


def test_as_index_array_normalizes():
    assert as_index_array(5).tolist() == [5]
    assert as_index_array([1, 2]).dtype == np.int64
    assert as_index_array(np.array([3])).tolist() == [3]


def test_every_phase_has_label():
    for phase in Phase:
        assert phase in PHASE_LABELS


def test_instr_repr():
    text = repr(Instr(Op.ALU, Phase.GATHER, count=3))
    assert "ALU" in text and "count=3" in text


# ----------------------------------------------------------------------
# Stall taxonomy
# ----------------------------------------------------------------------
def test_stall_categories_cover_ops():
    assert stall_category(Op.LOAD) == StallCat.MEMORY
    assert stall_category(Op.SHMEM_LOAD) == StallCat.SHARED
    assert stall_category(Op.SYNC) == StallCat.SYNC
    assert stall_category(Op.WEAVER_DEC_ID) == StallCat.WEAVER
    assert stall_category(Op.EGHW_FETCH) == StallCat.EGHW
    assert stall_category(Op.ALU) == StallCat.EXEC_DEP


def test_every_stall_has_label():
    for cat in StallCat:
        assert cat in STALL_LABELS


# ----------------------------------------------------------------------
# KernelStats
# ----------------------------------------------------------------------
def test_merge_accumulates_everything():
    a = KernelStats(total_cycles=100, instructions=10, warps_launched=2)
    a.phase_cycles[Phase.GATHER] = 50
    a.stall_cycles[StallCat.MEMORY] = 30
    a.op_counts[Op.LOAD] = 5
    a.counters["warp_iterations"] = 7
    a.cache["L1"] = CacheStats(hits=3, misses=1)
    b = KernelStats(total_cycles=40, instructions=4, warps_launched=2)
    b.phase_cycles[Phase.GATHER] = 20
    b.stall_cycles[StallCat.MEMORY] = 10
    b.op_counts[Op.LOAD] = 2
    b.counters["warp_iterations"] = 3
    b.cache["L1"] = CacheStats(hits=1, misses=1)
    a.merge(b)
    assert a.total_cycles == 140
    assert a.instructions == 14
    assert a.phase_cycles[Phase.GATHER] == 70
    assert a.stall_cycles[StallCat.MEMORY] == 40
    assert a.op_counts[Op.LOAD] == 7
    assert a.warp_iterations == 10
    assert a.cache["L1"].hits == 4


def test_issue_cycles():
    s = KernelStats(total_cycles=100)
    s.stall_cycles[StallCat.MEMORY] = 60
    assert s.issue_cycles == 40


def test_breakdowns_use_labels():
    s = KernelStats()
    s.phase_cycles[Phase.SCHEDULE] = 5
    s.stall_cycles[StallCat.WEAVER] = 3
    assert s.phase_breakdown() == {"Work ID calc": 5}
    assert s.stall_breakdown() == {"Weaver unit": 3}


def test_cache_stats_properties():
    cs = CacheStats(hits=3, misses=1)
    assert cs.accesses == 4
    assert cs.hit_rate == pytest.approx(0.75)
    assert CacheStats().hit_rate == 0.0
