"""EGHW unit: record generation, serial timeline, batch protocol."""

import numpy as np
import pytest

from repro.core.eghw import EGHWUnit
from repro.errors import SimulationError
from repro.graph import from_edge_list
from repro.sim import GPUConfig, CacheConfig, MemoryMap
from repro.sim.config import KB
from repro.sim.instructions import Op
from repro.sim.memory import MemoryHierarchy


def make_unit(graph, lanes=4, mlp=4, core_id=0):
    cfg = GPUConfig(
        num_sockets=1, cores_per_socket=1, warps_per_core=2,
        threads_per_warp=lanes,
        l1=CacheConfig(1 * KB, ways=2), l2=CacheConfig(4 * KB, ways=4),
        eghw_mlp=mlp,
    )
    mem = MemoryHierarchy(cfg)
    mm = MemoryMap()
    regions = {
        "row_ptr": mm.alloc_like("row_ptr", graph.row_ptr),
        "col": mm.alloc_like("col", graph.col_idx),
        "w": mm.alloc_like("w", graph.weights),
    }
    unit = EGHWUnit(core_id, cfg, mem, regions["row_ptr"], regions["col"],
                    regions["w"], graph.row_ptr, graph.col_idx,
                    graph.weights)
    return unit


@pytest.fixture
def small_graph():
    return from_edge_list(
        [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 1.0), (2, 0, 5.0)],
        num_vertices=3,
    )


def test_push_then_fetch_returns_records(small_graph):
    u = make_unit(small_graph)
    u.handle(Op.EGHW_PUSH, 0, 1, [0, 1, 2])
    done, batch = u.handle(Op.EGHW_FETCH, 0, 10, None)
    assert batch.vids.tolist() == [0, 0, 1, 2]
    assert batch.eids.tolist() == [0, 1, 2, 3]
    assert batch.others.tolist() == [1, 2, 2, 0]
    assert batch.weights.tolist() == [2.0, 3.0, 1.0, 5.0]
    assert done > 10  # serial memory time elapsed


def test_fetch_drains_then_empty(small_graph):
    u = make_unit(small_graph)
    u.handle(Op.EGHW_PUSH, 0, 1, [0, 1, 2])
    u.handle(Op.EGHW_FETCH, 0, 10, None)
    _, empty = u.handle(Op.EGHW_FETCH, 0, 2000, None)
    assert empty.exhausted
    assert u.drained


def test_zero_degree_vertices_produce_nothing(small_graph):
    u = make_unit(small_graph)
    u.handle(Op.EGHW_PUSH, 0, 1, [1])
    _, batch = u.handle(Op.EGHW_FETCH, 0, 10, None)
    assert batch.vids.tolist() == [1, -1, -1, -1]


def test_partial_batches_across_fetches(small_graph):
    u = make_unit(small_graph, lanes=2)
    u.handle(Op.EGHW_PUSH, 0, 1, [0, 1, 2])
    _, b1 = u.handle(Op.EGHW_FETCH, 0, 10, None)
    _, b2 = u.handle(Op.EGHW_FETCH, 0, 2000, None)
    seen = b1.eids[b1.mask].tolist() + b2.eids[b2.mask].tolist()
    assert sorted(seen) == [0, 1, 2, 3]


def test_serial_timeline_slower_than_mlp(small_graph):
    slow = make_unit(small_graph, mlp=1)
    fast = make_unit(small_graph, mlp=8)
    for u in (slow, fast):
        u.handle(Op.EGHW_PUSH, 0, 1, [0, 1, 2])
    done_slow, _ = slow.handle(Op.EGHW_FETCH, 0, 10, None)
    done_fast, _ = fast.handle(Op.EGHW_FETCH, 0, 10, None)
    assert done_slow > done_fast


def test_edges_generated_counter(small_graph):
    u = make_unit(small_graph)
    u.handle(Op.EGHW_PUSH, 0, 1, [0, 1, 2])
    u.handle(Op.EGHW_FETCH, 0, 10, None)
    assert u.edges_generated == 4


def test_incremental_pushes_append(small_graph):
    u = make_unit(small_graph, lanes=2)
    u.handle(Op.EGHW_PUSH, 0, 1, [0])
    u.handle(Op.EGHW_PUSH, 0, 2, [2])
    _, b1 = u.handle(Op.EGHW_FETCH, 0, 10, None)
    _, b2 = u.handle(Op.EGHW_FETCH, 0, 3000, None)
    seen = b1.eids[b1.mask].tolist() + b2.eids[b2.mask].tolist()
    assert sorted(seen) == [0, 1, 3]


def test_reset_clears_state(small_graph):
    u = make_unit(small_graph)
    u.handle(Op.EGHW_PUSH, 0, 1, [0])
    u.reset()
    assert u.drained
    _, batch = u.handle(Op.EGHW_FETCH, 0, 10, None)
    assert batch.exhausted


def test_unknown_op_rejected(small_graph):
    u = make_unit(small_graph)
    with pytest.raises(SimulationError):
        u.handle(Op.WEAVER_REG, 0, 1, None)


@pytest.mark.parametrize("core_id", [-1, 1])
def test_out_of_range_core_rejected(small_graph, core_id):
    with pytest.raises(SimulationError, match="out of range"):
        u = make_unit(small_graph, core_id=core_id)
        u.handle(Op.EGHW_PUSH, 0, 1, [0])
        u.handle(Op.EGHW_FETCH, 0, 10, None)
