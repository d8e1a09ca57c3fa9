"""Simulator engine registry: the first-class ``engine=`` surface.

An *engine* decides which execution loop a run's kernels go through:

* ``reference`` — :class:`repro.sim.gpu.GPU`: the event loop fed by
  live warp generators.  Always available, always correct; the
  ground truth every other engine must match bit-for-bit.
* ``fast`` — :class:`repro.sim.fast.FastGPU`: the same loop fed by
  stored kernel traces where a kernel is covered, live generators for
  the rest.  Bit-identical cycles, stall cells, summary dicts and
  provenance ledgers.
* ``auto`` — an alias of ``fast``, kept so that command lines and
  job specs naming it still resolve.

Engines are deliberately *excluded* from job identity: the same spec
produces the same cycles under every engine, so cache keys and journal
entries are engine-blind.  Each run-journal line records the engine
outside its summary instead.

A run names its engine through ``--engine``, ``engine=`` or
:attr:`~repro.runtime.jobspec.JobSpec.engine`; naming none runs
``fast``.  ``reference`` stays the oracle that parity checks select
by name.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, runtime_checkable

from repro.errors import ConfigError
from repro.sim.config import GPUConfig
from repro.sim.fast import FastGPU
from repro.sim.gpu import GPU

#: Engine used when a run names none.
DEFAULT_ENGINE = "fast"


@runtime_checkable
class SimulatorEngine(Protocol):
    """What an execution engine must provide.

    ``build_gpu`` returns the GPU object a run drives; ``schedule``
    (when the caller has one) lets an engine pick a loop per workload.
    A registered engine's GPU must produce bit-identical
    :class:`~repro.sim.stats.KernelStats` to the reference interpreter
    — see ``docs/engines.md`` for the validation recipe.
    """

    name: str

    def build_gpu(self, config: GPUConfig, schedule=None) -> GPU:
        """Construct the GPU this engine runs kernels on."""
        ...


class ReferenceEngine:
    """The per-instruction interpreter (ground truth)."""

    name = "reference"

    def build_gpu(self, config: GPUConfig, schedule=None) -> GPU:
        return GPU(config)


class FastEngine:
    """Trace-and-replay, running uncovered kernels live."""

    name = "fast"

    def build_gpu(self, config: GPUConfig, schedule=None) -> GPU:
        return FastGPU(config)


_ENGINES: Dict[str, SimulatorEngine] = {}


def register_engine(engine: SimulatorEngine) -> SimulatorEngine:
    """Register an engine under its ``name`` (last writer wins)."""
    name = getattr(engine, "name", None)
    if not name or not isinstance(name, str):
        raise ConfigError("engines must expose a non-empty string 'name'")
    if not callable(getattr(engine, "build_gpu", None)):
        raise ConfigError(
            f"engine {name!r} must expose build_gpu(config, schedule=None)")
    _ENGINES[name] = engine
    return engine


def available_engines() -> List[str]:
    """Sorted names of every registered engine."""
    return sorted(_ENGINES)


def resolve_engine_name(name: Optional[str] = None) -> str:
    """The engine a run names, else :data:`DEFAULT_ENGINE`."""
    return DEFAULT_ENGINE if name is None else str(name)


def get_engine(name: Optional[str] = None) -> SimulatorEngine:
    """Look an engine up by name (``None`` = :data:`DEFAULT_ENGINE`)."""
    resolved = resolve_engine_name(name)
    try:
        return _ENGINES[resolved]
    except KeyError:
        raise ConfigError(
            f"unknown simulator engine {resolved!r}; available: "
            f"{', '.join(available_engines())}"
        ) from None


def build_gpu(config: GPUConfig, engine: Optional[str] = None,
              schedule=None) -> GPU:
    """Registry-routed replacement for direct ``GPU(config)`` calls."""
    return get_engine(engine).build_gpu(config, schedule=schedule)


register_engine(ReferenceEngine())
register_engine(FastEngine())
_ENGINES["auto"] = _ENGINES["fast"]
