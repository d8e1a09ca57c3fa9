"""Property tests: SparseWeaver's compiled gather trace is the drain's.

The fast engine stores an unfiltered SparseWeaver gather as
``compile_gather`` lays it out from the registered topology, without
resuming a warp generator or running a planning unit.  The drain
(``FastGPU._drain``: every generator run against a planning unit) is
the oracle: the compiled trace must equal it record for record — every
warp's home stream, every core's plan log and bodies, the captured
edge updates (by value) and the static totals — on graphs that stress
the scan, under every unit knob and ST size.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import make_algorithm
from repro.errors import SimulationError
from repro.frontend.udf import Algorithm, Direction
from repro.graph import community_graph, from_edge_list
from repro.sched import SparseWeaverSchedule
from repro.sched.base import KernelEnv
from repro.sim import GPUConfig, MemoryMap
from repro.sim.fast import FastGPU


def _weighted_gather(direction: Direction, target: str) -> Algorithm:
    """An unfiltered algorithm that reads edge weights and two
    edge-value arrays, accumulating into ``target``'s endpoint."""

    def init_state(graph):
        n = graph.num_vertices
        return {"x": np.zeros(n), "acc": np.zeros(n),
                "a": np.arange(n, dtype=float), "b": np.ones(n)}

    def edge_update(state, bases, others, weights, eids):
        ends = bases if target == "base" else others
        np.add.at(state["acc"], ends,
                  weights * (state["a"][others] + state["b"][others]))

    def apply_update(state, graph, iteration):
        state["x"][:] = state["acc"]
        state["acc"][:] = 0.0
        return 0

    return Algorithm(
        name="weighted-gather", direction=direction, init_state=init_state,
        edge_update=edge_update, apply_update=apply_update,
        converged=lambda state, iteration, changed: iteration >= 1,
        result_array="x", acc_array="acc", edge_value_arrays=("a", "b"),
        uses_weights=True, gather_alu=3, accumulate_target=target)


ALGORITHMS = {
    "pagerank": lambda: make_algorithm("pagerank", iterations=2),
    "weighted-pull": lambda: _weighted_gather(Direction.PULL, "base"),
    "weighted-push": lambda: _weighted_gather(Direction.PUSH, "other"),
}


def _launch(graph, algorithm, config):
    """A fast GPU and a gather environment on it that records its edge
    batches in ``env.capture``, as ``GraphProcessor.run`` sets it up
    for a drain."""
    traversal = (graph.reverse() if algorithm.direction is Direction.PULL
                 else graph)
    gpu = FastGPU(config)
    env = KernelEnv(graph=traversal, algorithm=algorithm,
                    state=algorithm.make_state(graph), config=config,
                    memory_map=MemoryMap())
    env.memory = gpu.memory
    env.capture = []
    return gpu, env, env.capture


def _drained(graph, algorithm, schedule, config, max_instructions=10**9):
    gpu, env, capture = _launch(graph, algorithm, config)
    return gpu._drain(schedule.warp_factory(env),
                      schedule.unit_factory(env), capture, max_instructions)


def _compiled(graph, algorithm, schedule, config, max_instructions=10**9):
    gpu, env, _capture = _launch(graph, algorithm, config)
    return gpu._build(schedule.trace_builder(env), max_instructions)


def _traces(graph, algorithm, schedule, config):
    """The gather trace the drain records and the one the schedule
    compiles, for one launch on ``graph``."""
    return (_drained(graph, algorithm, schedule, config),
            _compiled(graph, algorithm, schedule, config))


def _by_value(effects):
    if effects is None:
        return None
    return {index: [tuple((a.dtype.str, a.tolist()) for a in update)
                    for update in updates]
            for index, updates in effects.items()}


def _assert_same_trace(drained, compiled):
    assert len(compiled.cores) == len(drained.cores)
    for ours, theirs in zip(compiled.cores, drained.cores):
        assert [(slot, records) for slot, records, _eff in ours] == [
            (slot, records) for slot, records, _eff in theirs]
        assert [_by_value(eff) for _s, _r, eff in ours] == [
            _by_value(eff) for _s, _r, eff in theirs]
    assert len(compiled.plans) == len(drained.plans)
    for (log, bodies), (their_log, their_bodies) in zip(compiled.plans,
                                                        drained.plans):
        assert log == their_log
        assert [records for records, _eff in bodies] == [
            records for records, _eff in their_bodies]
        assert [_by_value(eff) for _r, eff in bodies] == [
            _by_value(eff) for _r, eff in their_bodies]
    assert (compiled.totals.to_summary_dict()
            == drained.totals.to_summary_dict())


@st.composite
def stress_graphs(draw):
    """Zero-degree vertices, self-loops, duplicate edges and a hub wider
    than several warps, or no edges at all."""
    n = draw(st.integers(1, 80))
    if draw(st.integers(0, 9)) == 0:
        return from_edge_list([], num_vertices=n)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=80))
    hub = draw(st.integers(0, n - 1))
    width = draw(st.integers(0, 5 * 32))
    edges += [((hub + 3 * i) % n, hub) for i in range(width)]
    edges += [(hub, (hub + 5 * i) % n) for i in range(width // 2)]
    edges += [(v, v) for v in draw(st.lists(st.integers(0, n - 1),
                                            max_size=4))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=8))
    weighted = [(a, b, 1.0 + (a * 7 + b) % 5) for a, b in edges]
    return from_edge_list(weighted, num_vertices=n + draw(st.integers(0, 6)))


@st.composite
def sparseweaver_launches(draw):
    """A config with a one-warp, two-warp or 512-entry ST, and every
    unit knob of the schedule."""
    config = getattr(GPUConfig, draw(st.sampled_from(
        ["vortex_tiny", "vortex_bench"])))()
    lanes = config.threads_per_warp
    entries = draw(st.sampled_from([lanes, 2 * lanes, 512]))
    schedule = SparseWeaverSchedule(
        prefetch_depth=draw(st.sampled_from([1, 4])),
        zero_skip_width=draw(st.sampled_from([None, 1, 3])),
        dt_bypass=draw(st.booleans()))
    return replace(config, weaver_entries=entries), schedule


@given(stress_graphs(), sparseweaver_launches(),
       st.sampled_from(sorted(ALGORITHMS)))
@settings(max_examples=150, deadline=None)
def test_compiled_gather_equals_drained_gather(graph, launch, algorithm):
    config, schedule = launch
    drained, compiled = _traces(graph, ALGORITHMS[algorithm](), schedule,
                                config)
    _assert_same_trace(drained, compiled)


def test_multi_epoch_community_graph_compiles_as_it_drains():
    """``ablation_reordering``'s 6,000-vertex community graph: twelve
    Weaver epochs per launch on the benchmark preset."""
    graph = community_graph(60, 100, 400, 1200, seed=5)
    config = GPUConfig.vortex_bench().with_weaver_penalty()
    drained, compiled = _traces(graph, ALGORITHMS["pagerank"](),
                                SparseWeaverSchedule(), config)
    assert len(compiled.plans[0][0]) == 12
    _assert_same_trace(drained, compiled)


def test_instruction_cap_raises_as_in_the_drain():
    """A launch one instruction over ``max_instructions`` fails the
    compile with the drain's error; at the cap both succeed."""
    launch = (community_graph(4, 30, 40, 60, seed=2),
              ALGORITHMS["pagerank"](), SparseWeaverSchedule(),
              GPUConfig.vortex_bench())
    cap = _drained(*launch).totals.instructions
    _assert_same_trace(_drained(*launch, max_instructions=cap),
                       _compiled(*launch, max_instructions=cap))
    for record in (_drained, _compiled):
        with pytest.raises(SimulationError,
                           match=f"exceeded {cap - 1} instructions"):
            record(*launch, max_instructions=cap - 1)


def test_filtered_and_early_exit_gathers_are_not_compiled():
    """Their batches depend on state the kernel mutates."""
    graph = community_graph(4, 30, 40, 60, seed=2)
    env = KernelEnv(graph=graph, algorithm=make_algorithm("bfs", source=0),
                    state=make_algorithm("bfs", source=0).make_state(graph),
                    config=GPUConfig.vortex_tiny(), memory_map=MemoryMap())
    assert SparseWeaverSchedule().trace_builder(env) is None
