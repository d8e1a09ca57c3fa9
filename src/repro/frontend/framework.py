"""GraphProcessor: the SparseWeaver runtime driver.

Plays the role of the paper's compiler + runtime: given an algorithm
(UDF spec), a schedule and a GPU configuration, it builds the kernel
environment, runs init / gather / apply kernels on the simulator each
iteration, performs the functional state updates, and stops on the
algorithm's convergence condition. Results carry both the computed
vertex properties and the merged :class:`~repro.sim.stats.KernelStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from functools import partial
from typing import Dict, List, Optional, Union

import numpy as np

from repro.errors import SimulationError
from repro.frontend.udf import Algorithm, Direction
from repro.graph.csr import CSRGraph
from repro.sched.base import KernelEnv, Schedule
from repro.sched.registry import make_schedule
from repro.sim.config import GPUConfig
from repro.sim.engines import get_engine
from repro.sim.fast import ReplayHint
from repro.sim.instructions import Phase, alu, load, store
from repro.sim.memory import MemoryMap
from repro.sim.stats import KernelStats

@dataclass
class RunResult:
    """Outcome of one algorithm run."""

    values: np.ndarray
    iterations: int
    stats: KernelStats
    state: Dict[str, np.ndarray]
    per_iteration: List[KernelStats] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        """Simulated cycles across all kernels."""
        return self.stats.total_cycles


class GraphProcessor:
    """Run a UDF algorithm on the simulated GPU under a given schedule."""

    def __init__(
        self,
        algorithm: Algorithm,
        schedule: Union[str, Schedule] = "sparseweaver",
        config: Optional[GPUConfig] = None,
        apply_weaver_penalty: bool = True,
        symmetrize: bool = False,
        time_init: bool = True,
        time_apply: bool = True,
        validate: bool = False,
        exec_tracer=None,
        engine: Optional[str] = None,
    ) -> None:
        """``validate=True`` arms the edge-coverage check: every gather
        launch must hand each traversal edge to ``edge_update`` at most
        once — and, for algorithms without filters or early exit,
        exactly once. Catches schedules that drop or double-process
        work (they would otherwise just produce subtly wrong floats).

        ``exec_tracer`` (a :class:`repro.sim.trace.ExecutionTracer`) is
        handed to every kernel launch to capture the simulated-cycle
        instruction/stall timeline.  It defaults to off and then adds
        no per-instruction work.

        ``engine`` selects the simulator execution engine by name
        (``reference``, ``fast``, ``auto``, or any registered engine;
        ``None`` resolves via ``REPRO_ENGINE`` then the default).  The
        engine never changes simulated results — only how fast they
        are produced.
        """
        self._engine = get_engine(engine)
        self.engine_name = self._engine.name
        self.algorithm = algorithm
        self.schedule = make_schedule(schedule)
        base_config = config or GPUConfig.vortex_bench()
        if apply_weaver_penalty and self.schedule.name == "sparseweaver":
            # Section V: SparseWeaver runs are charged half the L1 to
            # pay for the 512-entry ST/DT tables.
            base_config = base_config.with_weaver_penalty()
        self.config = base_config
        self.symmetrize = symmetrize
        self.time_init = time_init
        self.time_apply = time_apply
        self.validate = validate
        self.exec_tracer = exec_tracer

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        max_iterations: Optional[int] = None,
        collect_per_iteration: bool = False,
        flush_caches: bool = False,
    ) -> RunResult:
        """Execute the algorithm to convergence (or the iteration cap)."""
        alg = self.algorithm
        work_graph = graph.undirected() if self.symmetrize else graph
        traversal = (
            work_graph.reverse() if alg.direction is Direction.PULL
            else work_graph
        )
        state = alg.make_state(work_graph)
        edge_counter = None
        if self.validate:
            alg, edge_counter = _counting_algorithm(alg)
        gpu = self._engine.build_gpu(self.config, schedule=self.schedule)
        env = KernelEnv(
            graph=traversal,
            algorithm=alg,
            state=state,
            config=self.config,
            memory_map=MemoryMap(),
        )
        env.memory = gpu.memory

        # Replay hints: a replay-capable GPU traces each kernel once
        # and replays it on later launches.  The gather kernel is only
        # eligible when its instruction stream cannot depend on state
        # the kernel itself mutates (``trace_safe`` schedules, no
        # filters / early exit); a hardware unit's replies then only
        # pick which stored batch body runs next.  During the trace
        # drain a recording ``edge_update`` captures argument tuples
        # instead of mutating state; every replay collects them in
        # issue order and applies them in one call on their
        # concatenation, so float accumulation order matches reference.
        # Init/apply are grid-stride elementwise kernels, so a replay
        # GPU compiles their traces analytically (contiguous per-warp
        # index ranges) and never needs the warp generators.
        fast_elementwise = gpu.supports_replay
        if fast_elementwise:
            init_hint = ReplayHint("init", elementwise=(
                [],
                [env.region(name) for name in _vertex_sized_arrays(env)],
                1, Phase.INIT, env.num_vertices))
            apply_hint = ReplayHint("apply", elementwise=(
                [env.region(alg.acc_array),
                 env.region(alg.result_array)],
                [env.region(alg.result_array),
                 env.region(alg.acc_array)],
                alg.apply_alu, Phase.APPLY, env.num_vertices))
        else:
            init_hint = ReplayHint("init")
            apply_hint = ReplayHint("apply")
        fast_gather = (
            gpu.supports_replay
            and self.schedule.trace_safe
            and not (alg.has_base_filter or alg.has_other_filter
                     or alg.has_early_exit)
        )
        gather_hint = None
        recording_alg = None
        if fast_gather:
            gather_capture: List = []
            record = gather_capture.append

            def recording_edge_update(state, bases, others, weights,
                                      eids):
                record((bases, others, weights, eids))

            recording_alg = dc_replace(alg,
                                       edge_update=recording_edge_update)
            gather_hint = ReplayHint("gather", capture=gather_capture,
                                     effect=partial(alg.edge_update, state))

        total = KernelStats()
        per_iteration: List[KernelStats] = []
        if self.time_init:
            total.merge(gpu.run_kernel(
                None if fast_elementwise else _init_kernel_factory(env),
                flush_caches=flush_caches,
                tracer=self.exec_tracer,
                replay=init_hint,
            ))
        cap = max_iterations if max_iterations is not None else (
            alg.max_iterations
        )
        if cap < 1:
            raise SimulationError("iteration cap must be at least 1")

        iterations = 0
        while True:
            # Factories are rebuilt per launch: schedules with shared
            # per-launch state (block registries, hardware tables) must
            # start each gather kernel fresh.  A stored trace replaces
            # the warp factory entirely — eligible streams are identical
            # across iterations — so replays skip the rebuild; a unit
            # still serves every launch, replayed or not.
            swap = recording_alg is not None and not gpu.has_trace("gather")
            if swap:
                env.algorithm = recording_alg
            try:
                warp_factory = (None if gpu.has_trace("gather")
                                else self.schedule.warp_factory(env))
                unit_factory = (
                    self.schedule.unit_factory(env)
                    if self.schedule.uses_hardware_unit else None
                )
                if edge_counter is not None:
                    edge_counter["count"] = 0
                gather_stats = gpu.run_kernel(
                    warp_factory, unit_factory=unit_factory,
                    tracer=self.exec_tracer,
                    replay=gather_hint,
                )
            finally:
                if swap:
                    env.algorithm = alg
            if edge_counter is not None:
                _check_edge_coverage(alg, env, edge_counter["count"])
            if self.time_apply:
                apply_stats = gpu.run_kernel(
                    None if (fast_elementwise or gpu.has_trace("apply"))
                    else _apply_kernel_factory(env),
                    tracer=self.exec_tracer,
                    replay=apply_hint,
                )
            else:
                apply_stats = KernelStats()
            changed = alg.apply_update(state, work_graph, iterations)
            iter_stats = KernelStats()
            iter_stats.merge(gather_stats)
            iter_stats.merge(apply_stats)
            total.merge(iter_stats)
            if collect_per_iteration:
                per_iteration.append(iter_stats)
            iterations += 1
            if alg.converged(state, iterations - 1, changed):
                break
            if iterations >= cap:
                break
        return RunResult(
            values=state[alg.result_array].copy(),
            iterations=iterations,
            stats=total,
            state=state,
            per_iteration=per_iteration,
        )


# ----------------------------------------------------------------------
# Validation (edge-coverage failure detection)
# ----------------------------------------------------------------------
def _counting_algorithm(alg: Algorithm):
    """Wrap ``edge_update`` so every handed-over edge is counted."""
    from dataclasses import replace as dc_replace

    counter = {"count": 0}
    original = alg.edge_update

    def counting_edge_update(state, bases, others, weights, eids):
        counter["count"] += len(bases)
        original(state, bases, others, weights, eids)

    return dc_replace(alg, edge_update=counting_edge_update), counter


def _check_edge_coverage(alg: Algorithm, env: KernelEnv,
                         count: int) -> None:
    """A gather launch may hand out each edge at most once; with no
    filters or early exit it must hand out all of them."""
    total = env.num_edges
    if count > total:
        raise SimulationError(
            f"schedule processed {count} edges but the traversal graph "
            f"has only {total}: duplicated work detected"
        )
    exhaustive = not (alg.has_base_filter or alg.has_other_filter
                      or alg.has_early_exit)
    if exhaustive and count != total:
        raise SimulationError(
            f"schedule processed {count} of {total} edges: dropped "
            "work detected"
        )


# ----------------------------------------------------------------------
# Init / apply kernels (identical across schedules)
# ----------------------------------------------------------------------
def _vertex_sized_arrays(env: KernelEnv) -> List[str]:
    n = env.num_vertices
    return [
        name
        for name, arr in env.state.items()
        if arr.size == n and not name.startswith("_")
    ]


def _elementwise_factory(env: KernelEnv, reads: List[str],
                         writes: List[str], alu_ops: int, phase: Phase):
    """Grid-stride elementwise kernel over vertices (timing only)."""
    num_epochs = max(
        1, math.ceil(env.num_vertices / env.config.total_threads)
    )
    stride = env.config.total_threads
    n = env.num_vertices

    def factory(ctx):
        if ctx.thread_ids[0] >= n:
            return None

        def kernel():
            for epoch in range(num_epochs):
                vids = ctx.thread_ids + epoch * stride
                vids = vids[vids < n]
                if vids.size == 0:
                    break
                for name in reads:
                    yield load(phase, env.region(name), vids)
                yield alu(phase, alu_ops)
                for name in writes:
                    yield store(phase, env.region(name), vids)

        return kernel()

    return factory


def _init_kernel_factory(env: KernelEnv):
    """Init kernel: every vertex-sized state array gets stored once."""
    arrays = _vertex_sized_arrays(env)
    return _elementwise_factory(env, [], arrays, 1, Phase.INIT)


def _apply_kernel_factory(env: KernelEnv):
    """Apply kernel: read accumulator + result, write result back."""
    alg = env.algorithm
    reads = [alg.acc_array, alg.result_array]
    writes = [alg.result_array, alg.acc_array]
    return _elementwise_factory(env, reads, writes, alg.apply_alu,
                                Phase.APPLY)
