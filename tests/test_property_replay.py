"""Property tests: the fast engine replays gathers exactly.

A unit gather is planned once per run: one home record stream per warp
plus one body per work batch.  On replay the real unit keeps its
timeline and its reply picks the body a warp runs next.  Every replay
must match the reference engine exactly, on graphs that stress the
plan (zero-degree vertices, self-loops, duplicate edges, a hub wider
than several warps) and under every unit knob.  Two guards keep a
replay from silently handing out the wrong body.

A replayed launch applies its captured edge updates in one call after
its loop, concatenated in issue order.  On a wide hub the software
schedules' atomics make that order depend on the launch's timing, so
their replays must match the reference bit for bit too.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import make_algorithm
from repro.core.eghw import EGHWUnit
from repro.core.unit import WeaverUnit
from repro.errors import SimulationError
from repro.frontend import GraphProcessor
from repro.graph import from_edge_list
from repro.sched import SparseWeaverSchedule
from repro.sim import GPUConfig, MemoryMap
from repro.sim import engines
from repro.sim.fast import FastGPU
from repro.sim.gpu import HOME
from repro.sim.instructions import Op
from repro.sim.memory import MemoryHierarchy


class _SpyEngine:
    """The fast engine, keeping every GPU it builds."""

    name = "fast-spy-for-replay-test"

    def __init__(self) -> None:
        self.built = []

    def build_gpu(self, config, schedule=None):
        self.built.append(FastGPU(config))
        return self.built[-1]


@st.composite
def stress_graphs(draw):
    """A small graph plus a hub whose in-edges (the pull gather's
    work) span several warps, with duplicates and a self-loop among
    them, and isolated vertices at the end."""
    n = draw(st.integers(4, 80))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=80))
    hub = draw(st.integers(0, n - 1))
    width = draw(st.integers(3 * 32 + 1, 5 * 32))
    edges += [((hub + 3 * i) % n, hub) for i in range(width)]
    edges += [(v, v) for v in draw(st.lists(st.integers(0, n - 1),
                                            max_size=4))]
    return from_edge_list(edges, num_vertices=n + draw(st.integers(1, 6)))


@st.composite
def unit_launches(draw):
    """A config, ST size and hardware-unit schedule."""
    config = getattr(GPUConfig, draw(st.sampled_from(
        ["vortex_tiny", "vortex_bench"])))()
    lanes = config.threads_per_warp
    entries = draw(st.sampled_from([lanes, 2 * lanes, 512]))
    kind = draw(st.sampled_from(["sparseweaver", "eghw", "hybrid_ell"]))
    if kind == "sparseweaver":
        schedule = SparseWeaverSchedule(
            prefetch_depth=draw(st.sampled_from([1, 4])),
            zero_skip_width=draw(st.sampled_from([None, 1])),
            dt_bypass=draw(st.booleans()))
    else:
        schedule = kind
    mlp = draw(st.sampled_from([1, 4])) if kind == "eghw" else 1
    return replace(config, weaver_entries=entries, eghw_mlp=mlp), schedule


def _assert_fast_matches_reference(graph, algorithm, schedule, config):
    """Run both engines; the fast run must equal the reference bit for
    bit.  Returns whether the fast run stored a gather trace."""
    spy = _SpyEngine()
    engines.register_engine(spy)
    results = {}
    try:
        for engine in ("reference", spy.name):
            results[engine] = GraphProcessor(
                algorithm, schedule=schedule, config=config, engine=engine).run(graph)
    finally:
        engines._ENGINES.pop(spy.name, None)
    (gpu,) = spy.built
    ref, fast = results["reference"], results[spy.name]
    assert fast.total_cycles == ref.total_cycles
    assert fast.stats.to_summary_dict() == ref.stats.to_summary_dict()
    assert dict(fast.stats.stall_cells) == dict(ref.stats.stall_cells)
    assert fast.values.tobytes() == ref.values.tobytes()
    return gpu.has_trace("gather")


@given(stress_graphs(), unit_launches())
@settings(max_examples=150, deadline=None)
def test_unit_gather_replay_matches_reference(graph, launch):
    config, schedule = launch
    assert _assert_fast_matches_reference(
        graph, make_algorithm("pagerank", iterations=2), schedule, config)


@given(stress_graphs(),
       st.sampled_from(["vortex_tiny", "vortex_bench"]),
       st.sampled_from(["vertex_map", "edge_map", "warp_map", "cta_map"]),
       st.sampled_from(["pull", "push"]))
@settings(max_examples=80, deadline=None)
def test_software_gather_replay_matches_reference(graph, config, schedule,
                                                  direction):
    """Push PageRank's gather has a base filter, so it runs live on
    both engines; the pull gather replays."""
    stored = _assert_fast_matches_reference(
        graph,
        make_algorithm("pagerank", iterations=3, direction=direction),
        schedule, getattr(GPUConfig, config)())
    assert stored == (direction == "pull")


# ----------------------------------------------------------------------
# Replay guards
# ----------------------------------------------------------------------
def _eghw(graph, config):
    mm = MemoryMap()
    return EGHWUnit(0, config, MemoryHierarchy(config),
                    mm.alloc_like("row_ptr", graph.row_ptr),
                    mm.alloc_like("col_idx", graph.col_idx),
                    mm.alloc_like("weights", graph.weights),
                    graph.row_ptr, graph.col_idx, graph.weights)


def test_replaying_eghw_rejects_pushes_in_another_order():
    """Degrees 2, 1, 3 on 4 lanes: pushed as 0, 1, 2 the batches are
    4 records from edge 0 and 2 from edge 4; pushed as 2, 1, 0 the
    first batch starts at edge 3, which is not the planned body."""
    graph = from_edge_list([(0, 1), (0, 2), (1, 2), (2, 0), (2, 1),
                            (2, 2)], num_vertices=3)
    config = GPUConfig.vortex_tiny()
    planner = _eghw(graph, config)
    log = planner.plan()
    planner.handle(Op.EGHW_PUSH, 0, 0, [0, 1, 2])
    while not planner.handle(Op.EGHW_FETCH, 0, 0, None)[1].exhausted:
        pass
    assert log == [(0, 4), (4, 2)]
    # Planning reads no memory: the GPU's caches stay cold.
    assert planner.memory.dram_accesses == 0
    bodies = [("body", k) for k in range(len(log))]

    unit = _eghw(graph, config)
    unit.replay(log, bodies)
    unit.handle(Op.EGHW_PUSH, 0, 1, [0, 1, 2])
    replies = [unit.handle(Op.EGHW_FETCH, 0, 2, None)[1]
               for _ in range(3)]
    assert replies == bodies + [HOME]

    unit = _eghw(graph, config)
    unit.replay(log, bodies)
    unit.handle(Op.EGHW_PUSH, 0, 1, [2, 1, 0])
    with pytest.raises(SimulationError, match="another order"):
        unit.handle(Op.EGHW_FETCH, 0, 2, None)


def test_replaying_weaver_rejects_skip():
    """A skip would change the scan the plan was taken from."""
    config = GPUConfig.vortex_tiny()
    planner = WeaverUnit(config)
    log = planner.plan()
    planner.handle(Op.WEAVER_REG, 0, 0, [(0, 7, 0, 6)])
    while not planner.handle(Op.WEAVER_DEC_ID, 0, 0, None)[1].exhausted:
        pass
    assert [empty for _cycles, empty in log[0]] == [False, False]
    bodies = [("body", 0), ("body", 1)]

    unit = WeaverUnit(config)
    unit.replay(log, bodies)
    unit.handle(Op.WEAVER_REG, 0, 1, [(0, 7, 0, 6)])
    assert unit.handle(Op.WEAVER_DEC_ID, 0, 2, None)[1] == bodies[0]
    with pytest.raises(SimulationError, match="WEAVER_SKIP"):
        unit.handle(Op.WEAVER_SKIP, 0, 3, 7)


def _planned_weaver(config):
    """A one-epoch plan of two batches (a degree-6 vertex on 4 lanes)."""
    planner = WeaverUnit(config)
    log = planner.plan()
    planner.handle(Op.WEAVER_REG, 0, 0, [(0, 7, 0, 6)])
    while not planner.handle(Op.WEAVER_DEC_ID, 0, 0, None)[1].exhausted:
        pass
    return log


def test_replaying_weaver_names_an_epoch_the_plan_lacks():
    """A launch that opens more epochs than were planned, as a compile
    bug would, fails naming the core and epoch, not with a bare
    StopIteration."""
    config = GPUConfig.vortex_tiny()
    log = _planned_weaver(config)
    unit = WeaverUnit(config, core_id=1)
    unit.replay(log, [("body", 0), ("body", 1)])
    unit.handle(Op.WEAVER_REG, 0, 1, [(0, 7, 0, 6)])
    while unit.handle(Op.WEAVER_DEC_ID, 0, 2, None)[1] is not HOME:
        pass
    with pytest.raises(SimulationError,
                       match="core 1: epoch 1 opened but the plan holds "
                             "1 epochs"):
        unit.handle(Op.WEAVER_REG, 0, 9, [(0, 7, 0, 6)])


def test_replaying_weaver_names_a_batch_the_plan_lacks():
    """A plan with fewer bodies than decodes with work fails naming the
    core and batch.  The prefetching scan decodes both batches while
    serving the first request."""
    config = GPUConfig.vortex_tiny()
    log = _planned_weaver(config)
    unit = WeaverUnit(config, core_id=1)
    unit.replay(log, [("body", 0)])
    unit.handle(Op.WEAVER_REG, 0, 1, [(0, 7, 0, 6)])
    with pytest.raises(SimulationError,
                       match="core 1: batch 1 decoded but the plan holds "
                             "1 bodies"):
        unit.handle(Op.WEAVER_DEC_ID, 0, 2, None)
