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
from dataclasses import dataclass
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
        symmetrize: bool = False,
        time_init: bool = True,
        time_apply: bool = True,
        exec_tracer=None,
        engine: Optional[str] = None,
    ) -> None:
        """Every run checks edge coverage: each gather launch must hand
        each traversal edge to ``edge_update`` at most once — and, for
        algorithms without filters or early exit, exactly once. A
        schedule that drops or double-processes work raises
        :class:`~repro.errors.SimulationError` instead of producing
        subtly wrong floats.

        ``exec_tracer`` (a :class:`repro.sim.trace.ExecutionTracer`) is
        handed to every kernel launch to capture the simulated-cycle
        instruction/stall timeline.  It defaults to off and then adds
        no per-instruction work.

        ``engine`` selects the simulator execution engine by name
        (``reference``, ``fast``, ``auto``, or any registered engine;
        ``None`` runs the default, ``fast``).  The engine never changes
        simulated results — only how fast they are produced.
        """
        self._engine = get_engine(engine)
        self.engine_name = self._engine.name
        self.algorithm = algorithm
        self.schedule = make_schedule(schedule)
        base_config = config or GPUConfig.vortex_bench()
        if self.schedule.name == "sparseweaver":
            # Section V: SparseWeaver runs are charged half the L1 to
            # pay for the 512-entry ST/DT tables.
            base_config = base_config.with_weaver_penalty()
        self.config = base_config
        self.symmetrize = symmetrize
        self.time_init = time_init
        self.time_apply = time_apply
        self.exec_tracer = exec_tracer

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        max_iterations: Optional[int] = None,
    ) -> RunResult:
        """Execute the algorithm to convergence (or the iteration cap)."""
        alg = self.algorithm
        cap = max_iterations if max_iterations is not None else (
            alg.max_iterations
        )
        if cap < 1:
            raise SimulationError("iteration cap must be at least 1")
        work_graph = graph.undirected() if self.symmetrize else graph
        traversal = (
            work_graph.reverse() if alg.direction is Direction.PULL
            else work_graph
        )
        state = alg.make_state(work_graph)
        gpu = self._engine.build_gpu(self.config, schedule=self.schedule)
        env = KernelEnv(
            graph=traversal,
            algorithm=alg,
            state=state,
            config=self.config,
            memory_map=MemoryMap(),
        )
        env.memory = gpu.memory

        # Replay hints: a replay-capable GPU stores each kernel's trace
        # once and replays it on later launches; the reference engine
        # ignores them.  The fast engine compiles the init/apply traces
        # from their hints and never calls their warp factories.  The
        # gather kernel is only eligible when its instruction stream
        # cannot depend on state the kernel itself mutates
        # (``trace_safe`` schedules, no filters / early exit); a
        # hardware unit's replies then only pick which stored batch
        # body runs next.  A schedule that lays out its own gather
        # trace (SparseWeaver) needs no generators: its bodies carry
        # their updates.  Otherwise the drain runs the generators with
        # ``env.capture`` set, so ``env.edge_update`` records batches
        # instead of applying them.  A replay applies its batches
        # through ``env.apply_edges`` in one call on their
        # concatenation in issue order, so float accumulation order
        # matches the reference.
        init_factory, init_hint = _elementwise_kernel(
            env, "init", [], _vertex_sized_arrays(env), 1, Phase.INIT)
        apply_factory, apply_hint = _elementwise_kernel(
            env, "apply", [alg.acc_array, alg.result_array],
            [alg.result_array, alg.acc_array], alg.apply_alu, Phase.APPLY)
        gather_hint = None
        build = None
        if (gpu.supports_replay and self.schedule.trace_safe
                and not (alg.has_base_filter or alg.has_other_filter
                         or alg.has_early_exit)):
            build = self.schedule.trace_builder(env)
            gather_hint = ReplayHint("gather", build=build,
                                     effect=env.apply_edges)
            if build is None:
                env.capture = gather_hint.capture = []

        total = KernelStats()
        if self.time_init:
            total.merge(gpu.run_kernel(
                init_factory,
                tracer=self.exec_tracer,
                replay=init_hint,
            ))

        iterations = 0
        while True:
            # Factories are rebuilt per launch: schedules with shared
            # per-launch state (block registries, hardware tables) must
            # start each gather kernel fresh.  A stored trace replaces
            # the warp factory entirely — eligible streams are identical
            # across iterations — so replays skip the rebuild; a unit
            # still serves every launch, replayed or not.
            warp_factory = (None if build or gpu.has_trace("gather")
                            else self.schedule.warp_factory(env))
            unit_factory = (
                self.schedule.unit_factory(env)
                if self.schedule.uses_hardware_unit else None
            )
            env.edges_applied = 0
            gather_stats = gpu.run_kernel(
                warp_factory, unit_factory=unit_factory,
                tracer=self.exec_tracer,
                replay=gather_hint,
            )
            _check_edge_coverage(env)
            if self.time_apply:
                apply_stats = gpu.run_kernel(
                    apply_factory,
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
        )


# ----------------------------------------------------------------------
# Edge-coverage check
# ----------------------------------------------------------------------
def _check_edge_coverage(env: KernelEnv) -> None:
    """A gather launch may hand out each edge at most once; with no
    filters or early exit it must hand out all of them."""
    alg = env.algorithm
    count = env.edges_applied
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


def _elementwise_kernel(env: KernelEnv, key: str, reads: List[str],
                        writes: List[str], alu_ops: int, phase: Phase):
    """Grid-stride elementwise kernel over vertices (timing only): its
    warp factory and the replay hint that describes the same kernel.
    Init stores every vertex-sized state array once; apply reads the
    accumulator and the result and writes both back."""
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

    return factory, ReplayHint(key, elementwise=(
        [env.region(name) for name in reads],
        [env.region(name) for name in writes], alu_ops, phase, n))
