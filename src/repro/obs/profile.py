"""Section timers of the simulator's event loop, read by perfbench.

Everything else in :mod:`repro.obs` attributes *simulated* cycles;
this module attributes **host wall-time** inside
:meth:`repro.sim.gpu.GPU.run_kernel`: the setup, schedule, kernel
(record draw), execute, account and finalize sections, the nested
``mem/access`` walk, and per-opcode execute time.  The one reader is
the repository benchmark (``perfbench/tracing.py``'s ``PhaseWindow``,
``--trace 1``), which turns the profiler on for alternate rounds and
reports each layer's share of the profiled loop.

Disabled by default: every hook is behind a single local truth test,
so a disabled profiler reads no clocks and simulated cycles are
bit-identical either way.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Tuple

#: Per-opcode execute-time bucket bounds (seconds).  One simulated
#: instruction's host cost sits in the hundreds of nanoseconds to
#: tens of microseconds; the tail buckets catch pathological ops.
OP_BUCKETS: Tuple[float, ...] = (
    5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 1e-3, 1e-2,
)


class PhaseProfiler:
    """Wall-time and call-count accumulation per simulator phase.

    Phases are flat named accumulators; the hot path calls
    :meth:`add` / :meth:`add_op` only when :attr:`enabled` is true
    (callers hoist the check into a local), so a disabled profiler
    costs nothing and cannot perturb simulated cycle counts.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: phase name -> [seconds, calls]
        self.phases: Dict[str, List[float]] = {}
        #: opcode name -> [seconds, calls, per-bucket counts]
        self.ops: Dict[str, List[Any]] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Accumulate one timed section into phase ``name``."""
        cell = self.phases.get(name)
        if cell is None:
            self.phases[name] = [seconds, calls]
        else:
            cell[0] += seconds
            cell[1] += calls

    def add_op(self, op: str, seconds: float) -> None:
        """Accumulate one instruction execute into the op histogram.

        Also feeds the top-level ``execute`` phase, so the per-opcode
        view decomposes it rather than adding to it.
        """
        self.add("execute", seconds)
        cell = self.ops.get(op)
        if cell is None:
            cell = [0.0, 0, [0] * (len(OP_BUCKETS) + 1)]
            self.ops[op] = cell
        cell[0] += seconds
        cell[1] += 1
        cell[2][bisect_left(OP_BUCKETS, seconds)] += 1

    def clear(self) -> None:
        """Drop every accumulator (enabled/disabled state is kept)."""
        self.phases.clear()
        self.ops.clear()


#: The process-global profiler the simulator hooks consult.
_PROFILER = PhaseProfiler()


def get_profiler() -> PhaseProfiler:
    """The process-global profiler the simulator hot path consults."""
    return _PROFILER


def enable_profiling() -> PhaseProfiler:
    """Turn the global profiler on; returns it for convenience."""
    _PROFILER.enabled = True
    return _PROFILER


def disable_profiling(clear: bool = False) -> PhaseProfiler:
    """Turn the global profiler off (optionally dropping its data)."""
    _PROFILER.enabled = False
    if clear:
        _PROFILER.clear()
    return _PROFILER
