"""Property tests: the cache lines of one access.

Element ``i`` of a region lies in line ``(base + i * itemsize) >>
log2(line_bytes)``, for every integer ``i``: an index outside ``[0,
length)`` is not checked and gets that line too.  ``lines_of`` must
return exactly the sorted set of those lines, and the compiler must
turn every index input ``as_index_array`` accepts into the record the
per-lane definition gives.  Bool and float inputs are refused: they
would otherwise become other indices.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import CacheConfig, GPUConfig
from repro.sim.gpu import _FIXED, _READ, _WRITE, GPU
from repro.sim.instructions import (Op, Phase, as_index_array, atomic, load,
                                    store)
from repro.sim.memory import MemoryHierarchy, Region
from repro.sim.stats import KernelStats, stall_category

LINE_BYTES = (32, 64, 128, 256)
#: Power-of-two itemsizes, plus one that is not.
ITEMSIZES = (1, 2, 4, 8, 16, 12)


def config(line_bytes: int) -> GPUConfig:
    return GPUConfig(l1=CacheConfig(line_bytes * 8, line_bytes=line_bytes,
                                    ways=2),
                     l2=None, l3=None)


def defined_lines(region: Region, line_bytes: int, indices) -> list:
    shift = line_bytes.bit_length() - 1
    return sorted({(region.base + i * region.itemsize) >> shift
                   for i in indices})


@st.composite
def regions(draw):
    line_bytes = draw(st.sampled_from(LINE_BYTES))
    base = draw(st.integers(min_value=0, max_value=1 << 34))
    if draw(st.booleans()):
        base -= base % line_bytes
    length = draw(st.integers(min_value=1, max_value=300))
    region = Region("r", base, draw(st.sampled_from(ITEMSIZES)), length)
    return region, line_bytes


def index_values(length: int, min_value: int = None):
    """0-80 indices, unsorted and with duplicates, in range or not."""
    lo = -2 * length - 3 if min_value is None else min_value
    return st.lists(st.integers(min_value=lo, max_value=2 * length + 3),
                    max_size=80)


@given(regions(), st.data())
@settings(max_examples=300, deadline=None)
def test_lines_of_matches_definition(region_line, data):
    region, line_bytes = region_line
    values = data.draw(index_values(region.length))
    # ``lines_of`` takes int64 arrays; narrower dtypes reach it through
    # the compiler, which the next test covers.
    indices = np.array(values, dtype=np.int64)
    lines = MemoryHierarchy(config(line_bytes)).lines_of(region, indices)
    assert lines == defined_lines(region, line_bytes, values)
    assert all(type(line) is int for line in lines)


def index_inputs(length: int):
    """Every kind of index input a kernel may hand a memory helper."""
    ints = st.integers(min_value=-2 * length - 3, max_value=2 * length + 3)
    signed = st.sampled_from((np.int8, np.int16, np.int32, np.int64))
    unsigned = st.sampled_from((np.uint8, np.uint16, np.uint32, np.uint64))
    return st.one_of(
        ints,
        ints.map(np.int64),
        ints.map(np.int32),
        ints.map(lambda v: np.array(v)),
        index_values(length),
        st.tuples(index_values(length), signed).map(
            lambda a: np.array(a[0]).astype(a[1])),
        st.tuples(index_values(length, 0), unsigned).map(
            lambda a: np.array(a[0]).astype(a[1])),
    )


def defined_record(cfg: GPUConfig, op: Op, region: Region, raw,
                   totals: KernelStats) -> tuple:
    """The record of a memory op by the per-lane definition, folding
    what compiling it folds into ``totals``."""
    values = as_index_array(raw).tolist()
    cat = stall_category(Op.LOAD)
    totals.instructions += 1
    totals.op_counts[op] += 1
    totals.phase_cycles[Phase.GATHER] += 1
    if not values:
        return (_FIXED, 1, 1, Phase.GATHER, cat, None, op)
    lines = defined_lines(region, cfg.l1.line_bytes, values)
    if op is Op.LOAD:
        totals.counters["elements_loaded:" + region.name] += len(values)
        return (_READ, 1, 1, Phase.GATHER, cat, lines, op)
    if op is Op.STORE:
        return (_WRITE, 1, 1 + cfg.store_latency, Phase.GATHER, cat, lines,
                op)
    conflicts = len(values) - len(set(values))
    return (_READ, 1, 1 + cfg.atomic_extra * (1 + conflicts), Phase.GATHER,
            cat, lines, op)


@given(regions(), st.data())
@settings(max_examples=300, deadline=None)
def test_every_index_input_compiles_to_its_defined_record(region_line,
                                                          data):
    region, line_bytes = region_line
    cfg = config(line_bytes)
    raw = data.draw(index_inputs(region.length))
    totals, expected = KernelStats(), KernelStats()
    compile = GPU(cfg)._compiler(totals, 1000)
    for op, helper in ((Op.LOAD, load), (Op.STORE, store),
                       (Op.ATOMIC, atomic)):
        record = compile(helper(Phase.GATHER, region, raw))
        assert record == defined_record(cfg, op, region, raw, expected)
    assert totals.instructions == expected.instructions
    assert dict(totals.op_counts) == dict(expected.op_counts)
    assert dict(totals.phase_cycles) == dict(expected.phase_cycles)
    assert dict(totals.counters) == dict(expected.counters)


@given(regions(), st.data())
@settings(max_examples=100, deadline=None)
def test_bool_and_float_indices_are_refused(region_line, data):
    region, line_bytes = region_line
    # An empty list stays accepted: NumPy types it float64.
    raw = data.draw(st.one_of(
        index_values(region.length).filter(len).map(
            lambda v: np.array(v, dtype=np.float64)),
        st.lists(st.booleans(), min_size=1, max_size=80).map(np.array),
    ))
    with pytest.raises(SimulationError):
        as_index_array(raw)
    compile = GPU(config(line_bytes))._compiler(KernelStats(), 1000)
    for helper in (load, store, atomic):
        with pytest.raises(SimulationError):
            compile(helper(Phase.GATHER, region, raw))
    with pytest.raises(SimulationError):
        MemoryHierarchy(config(line_bytes)).access(0, region, raw)
