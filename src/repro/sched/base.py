"""Schedule interface and the kernel environment.

A :class:`KernelEnv` bundles everything a gather kernel needs: the
traversal-direction CSR graph, the algorithm UDFs, live state arrays,
the memory regions backing them, and the GPU configuration.  It is the
kernels' one door to algorithm state: a schedule hands each gathered
edge batch to :meth:`KernelEnv.edge_update`, never to the algorithm's
``edge_update``.  A :class:`Schedule` turns an environment into a warp
factory for :meth:`repro.sim.gpu.GPU.run_kernel`, plus (optionally) a
hardware-unit factory for SparseWeaver / EGHW launches.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional

import numpy as np

from repro.errors import ScheduleError
from repro.graph.csr import CSRGraph

if False:  # pragma: no cover - import avoided at runtime (circular)
    from repro.frontend.udf import Algorithm  # noqa: F401
from repro.sim.config import GPUConfig
from repro.sim.gpu import WarpContext
from repro.sim.memory import MemoryHierarchy, MemoryMap, Region


@dataclass
class KernelEnv:
    """Everything a gather kernel closes over.

    ``graph`` is the *traversal* graph: for pull-direction algorithms it
    is the transpose of the input, so each row's base vertex is the
    gathering destination and the row's column entries are the opposite
    endpoints.

    ``capture`` is the list :meth:`edge_update` records batches in
    while the fast engine drains the gather (``None`` otherwise);
    ``edges_applied`` counts the edges :meth:`apply_edges` applied.
    """

    graph: CSRGraph
    algorithm: "Algorithm"
    state: Dict[str, np.ndarray]
    config: GPUConfig
    memory_map: MemoryMap
    regions: Dict[str, Region] = field(default_factory=dict)
    memory: Optional[MemoryHierarchy] = None
    capture: Optional[list] = None
    edges_applied: int = 0

    def __post_init__(self) -> None:
        if not self.regions:
            self._allocate_regions()

    def _allocate_regions(self) -> None:
        mm = self.memory_map
        g = self.graph
        self.regions["row_ptr"] = mm.alloc_like("row_ptr", g.row_ptr)
        self.regions["col_idx"] = mm.alloc_like("col_idx", g.col_idx)
        self.regions["weights"] = mm.alloc_like("weights", g.weights)
        # Second-endpoint array: only edge mapping reads it, but it is
        # part of the dataset's footprint either way.
        self.regions["edge_src"] = mm.alloc(
            "edge_src", g.num_edges, g.col_idx.itemsize
        )
        for name, arr in self.state.items():
            self.regions[name] = mm.alloc_like(f"state:{name}", arr)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Vertices of the traversal graph."""
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Edges of the traversal graph."""
        return self.graph.num_edges

    @property
    def lanes(self) -> int:
        """Threads per warp."""
        return self.config.threads_per_warp

    def region(self, name: str) -> Region:
        """Region backing a named array."""
        if name not in self.regions:
            raise ScheduleError(f"no region allocated for {name!r}")
        return self.regions[name]

    def vertex_epochs(self) -> int:
        """Grid-stride epochs needed to cover all vertices."""
        return max(1, math.ceil(self.num_vertices / self.config.total_threads))

    def edge_epochs(self) -> int:
        """Grid-stride epochs needed to cover all edges."""
        return max(1, math.ceil(self.num_edges / self.config.total_threads))

    def edge_update(self, bases: np.ndarray, others: np.ndarray,
                    weights: np.ndarray, eids: np.ndarray) -> None:
        """Hand one gathered edge batch to the algorithm: recorded in
        :attr:`capture` during a drain, else :meth:`apply_edges`."""
        if self.capture is not None:
            self.capture.append((bases, others, weights, eids))
        else:
            self.apply_edges(bases, others, weights, eids)

    def apply_edges(self, bases: np.ndarray, others: np.ndarray,
                    weights: np.ndarray, eids: np.ndarray) -> None:
        """Apply the algorithm's ``edge_update`` to live state and count
        the edges (a replay calls it once, on its batches concatenated
        in issue order)."""
        self.edges_applied += len(bases)
        self.algorithm.edge_update(self.state, bases, others, weights, eids)


WarpFactory = Callable[[WarpContext], Optional[Iterator]]
UnitFactory = Callable[[int], Any]


class Schedule(ABC):
    """A work-distribution scheme for the gather kernel."""

    #: Paper-style short name (S_vm, S_em, ... or sparseweaver/eghw).
    name: str = "abstract"
    #: Human label used in benchmark tables.
    label: str = "abstract"
    #: Whether :meth:`unit_factory` must be passed to the kernel launch.
    uses_hardware_unit: bool = False
    #: Whether the gather instruction stream is *response-independent*:
    #: it may depend on topology and launch geometry, but never on
    #: simulated latencies or state values the kernel itself mutates.
    #: Shared per-launch state is allowed only if pre-barrier writes are
    #: slot-keyed and post-barrier combination is idempotent.  A unit
    #: reply may only select which stored batch body runs next, and the
    #: unit's batch contents must not depend on request timing.  Opting
    #: in lets the fast engine trace one launch and replay it
    #: bit-identically (see ``docs/engines.md``).
    trace_safe: bool = False

    @abstractmethod
    def warp_factory(self, env: KernelEnv) -> WarpFactory:
        """Build the gather kernel's per-warp generator factory."""

    def unit_factory(self, env: KernelEnv) -> Optional[UnitFactory]:
        """Per-core hardware unit constructor (None for software-only)."""
        return None

    def trace_builder(self, env: KernelEnv) -> Optional[Callable]:
        """Lay out the gather's stored trace without its generators.

        A trace-safe schedule may return ``build(compile, compile_run)
        -> (homes, plans)`` (see :func:`repro.sched.sparseweaver.
        compile_gather`); the fast engine then stores what it returns
        instead of draining :meth:`warp_factory`.  ``None``, the
        default, drains.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
