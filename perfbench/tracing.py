"""Per-layer spans recorded from the benchmark side of the API boundary.

The simulator is driven through its public engine registry: a traced
engine wraps whichever engine a workload names, times every kernel
launch its GPU makes, and classifies the launch by the path it took —

* ``replayed``: served from a trace stored by an earlier launch;
* ``recorded``: the launch compiled and stored a new trace, then
  replayed it;
* ``interp``: the per-instruction reference loop ran it, either
  because the launch drives a hardware unit (``interp_unit``) or for
  any other reason (``interp_other``: no replay hint, filters, a plain
  reference GPU).

The classification only reads ``supports_replay`` / ``has_trace``, so
it follows the engine when a later version widens what it replays.
Totals accumulate per round in :class:`KernelSpans`; the in-simulator
phase split comes from the program's own ``PhaseProfiler``, enabled on
alternate rounds only because its hooks slow the loop they time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict

from repro.obs.profile import disable_profiling, enable_profiling, get_profiler
from repro.sim.engines import get_engine, register_engine

#: Kernel paths, in report order.
PATHS = ("replayed", "recorded", "interp_unit", "interp_other")

#: Top-level phases of the reference loop (``sim/gpu.py``); their sum
#: is the profiled interpreter time the loop shares divide.
LOOP_PHASES = ("setup", "schedule", "kernel", "execute", "account",
               "finalize")

#: Opcode prefixes executed by a hardware unit (Weaver or EGHW).
UNIT_OP_PREFIXES = ("WEAVER_", "EGHW_")

#: Per-layer shares of the profiled reference loop, in report order.
LOOP_SHARES = ("loop_schedule_share", "loop_warp_gen_share",
               "loop_execute_share", "loop_mem_walk_share",
               "loop_unit_op_share")


class KernelSpans:
    """Host seconds, launches and simulated cycles per kernel path."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.launches: Counter = Counter()
        self.cycles: Dict[str, int] = defaultdict(int)

    def add(self, path: str, seconds: float, cycles: int) -> None:
        self.seconds[path] += seconds
        self.launches[path] += 1
        self.cycles[path] += cycles

    def take(self) -> "KernelSpans":
        """Hand over the totals so far and start a fresh set."""
        done = KernelSpans()
        done.seconds, self.seconds = self.seconds, defaultdict(float)
        done.launches, self.launches = self.launches, Counter()
        done.cycles, self.cycles = self.cycles, defaultdict(int)
        return done


class TracedEngine:
    """An engine that times each kernel launch of another engine."""

    def __init__(self, inner: str, spans: KernelSpans) -> None:
        self.inner = get_engine(inner)
        self.name = f"perfbench-{inner}"
        self.spans = spans

    def build_gpu(self, config, schedule=None):
        gpu = self.inner.build_gpu(config, schedule=schedule)
        run_kernel = gpu.run_kernel
        spans = self.spans

        def traced_run_kernel(warp_factory=None, unit_factory=None,
                              **kwargs):
            hint = kwargs.get("replay")
            key = hint.key if gpu.supports_replay and hint else None
            had_trace = key is not None and gpu.has_trace(key)
            start = perf_counter()
            stats = run_kernel(warp_factory, unit_factory=unit_factory,
                               **kwargs)
            seconds = perf_counter() - start
            if had_trace:
                path = "replayed"
            elif key is not None and gpu.has_trace(key):
                path = "recorded"
            elif unit_factory is not None:
                path = "interp_unit"
            else:
                path = "interp_other"
            spans.add(path, seconds, stats.total_cycles)
            return stats

        gpu.run_kernel = traced_run_kernel
        return gpu


def traced_engine(inner: str, spans: KernelSpans) -> str:
    """Register a traced wrapper of engine ``inner``; returns its name."""
    return register_engine(TracedEngine(inner, spans)).name


class PhaseWindow:
    """Turns the program's PhaseProfiler on for one round at a time."""

    def __enter__(self) -> "PhaseWindow":
        enable_profiling().clear()
        return self

    def __exit__(self, *_exc) -> None:
        profiler = get_profiler()
        self.phases = {name: sec for name, (sec, _calls)
                       in profiler.phases.items()}
        self.unit_ops = sum(
            sec for op, (sec, _count, _buckets) in profiler.ops.items()
            if op.startswith(UNIT_OP_PREFIXES))
        disable_profiling(clear=True)

    def loop_shares(self) -> Dict[str, float]:
        """Reference-loop layers as shares of the profiled loop time:
        scheduler, warp generators, execute (which holds the memory walk
        and the unit's opcodes, reported as shares of their own)."""
        loop = sum(self.phases.get(name, 0.0) for name in LOOP_PHASES)
        seconds = (self.phases.get("schedule", 0.0),
                   self.phases.get("kernel", 0.0),
                   self.phases.get("execute", 0.0),
                   self.phases.get("mem/access", 0.0),
                   self.unit_ops)
        return {name: (sec / loop if loop > 0 else 0.0)
                for name, sec in zip(LOOP_SHARES, seconds)}
