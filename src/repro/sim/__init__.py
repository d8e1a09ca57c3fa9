"""Cycle-level SIMT GPU simulator (Vortex / SimX analog).

The simulator executes *warp instruction streams*: each warp is a Python
generator yielding :class:`~repro.sim.instructions.Instr` objects. One
warp instruction issues per core per cycle; a warp blocks until its
instruction's latency elapses while other warps issue in the gap — the
latency-hiding mechanism the paper's Figures 12 and 13 depend on.

Fidelity notes live in DESIGN.md §5. The headline: this is an
event-driven model with true cache tag state, per-phase cycle accounting
and a stall taxonomy, not an RTL-equivalent simulator.
"""

#: Timing-model version. Bump whenever a change alters simulated cycle
#: counts; the runtime result cache (:mod:`repro.runtime.cache`) keys
#: entries on it, so a bump invalidates every memoized result at once.
SIMULATOR_VERSION = 2

from repro.sim.config import CacheConfig, GPUConfig
from repro.sim.instructions import Instr, Op, Phase
from repro.sim.stats import KernelStats, StallCat
from repro.sim.memory import Cache, MemoryMap, Region, MemoryHierarchy
from repro.sim.gpu import GPU, WarpContext
from repro.sim.fast import FastGPU, ReplayHint
from repro.sim.engines import (
    DEFAULT_ENGINE,
    SimulatorEngine,
    available_engines,
    build_gpu,
    get_engine,
    register_engine,
    resolve_engine_name,
)

__all__ = [
    "SIMULATOR_VERSION",
    "CacheConfig",
    "GPUConfig",
    "Instr",
    "Op",
    "Phase",
    "KernelStats",
    "StallCat",
    "MemoryMap",
    "Region",
    "MemoryHierarchy",
    "Cache",
    "GPU",
    "WarpContext",
    "FastGPU",
    "ReplayHint",
    "SimulatorEngine",
    "available_engines",
    "build_gpu",
    "get_engine",
    "register_engine",
    "resolve_engine_name",
    "DEFAULT_ENGINE",
]
