"""User-Defined Function (UDF) model of a graph algorithm.

Section IV: "The UDFs consist of four different methods: init, gather,
apply, and filter." An :class:`Algorithm` bundles those callables with
the metadata the kernel generators need to emit the right memory
traffic:

* ``edge_value_arrays`` — state arrays read per edge at the *opposite*
  endpoint (the gather inputs).
* ``base_filter_arrays`` — state arrays read per *base* vertex during
  registration-time filtering.
* ``acc_array`` — the accumulator written by gather.

Terminology: in pull direction the *base* vertex is the gathering
destination and the *other* endpoint is the source; in push direction
the base is the frontier source and the other is the destination. The
filters are expressed against base/other so one kernel generator serves
both directions, exactly like the paper's compiler placing dest/source
filters by direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

State = Dict[str, np.ndarray]


class Direction(Enum):
    """Gather traversal direction (Section III-C)."""

    PUSH = "push"   # iterate outgoing edges of active sources
    PULL = "pull"   # iterate incoming edges of destinations


@dataclass
class Algorithm:
    """A graph algorithm in UDF form.

    Callables (all vectorized over numpy arrays):

    ``init_state(graph, **params) -> state dict``
        Allocate and initialize all state arrays.
    ``edge_update(state, bases, others, weights, eids)``
        The gather+sum step for a batch of edges (duplicate bases must
        be handled with ``np.add.at``-style unbuffered ops).  One call
        on several batches concatenated must leave the state the calls
        one batch at a time, in order, leave: an in-order ``ufunc.at``
        scatter or an idempotent store does.  A replayed launch of the
        fast engine applies a whole launch's batches in one such call.
    ``base_filter(state, vids) -> bool mask``
        True where the base vertex is *filtered out* (registration-time
        degree-zeroing). ``None`` when the algorithm has no base filter.
    ``other_filter(state, others) -> bool mask``
        True where the opposite endpoint contributes nothing (edge-time
        filter). ``None`` when absent.
    ``early_exit(state, bases) -> bool mask``
        True where the base vertex needs no further gathering (the
        WEAVER_SKIP trigger). ``None`` when absent.
    ``apply_update(state, graph, iteration) -> int``
        The apply kernel: fold accumulators into vertex values; returns
        the number of vertices that changed.
    ``converged(state, iteration, changed) -> bool``
        Whether the algorithm is done after this iteration.
    """

    name: str
    direction: Direction
    init_state: Callable[..., State]
    edge_update: Callable[[State, np.ndarray, np.ndarray, np.ndarray,
                           np.ndarray], None]
    apply_update: Callable[[State, CSRGraph, int], int]
    converged: Callable[[State, int, int], bool]
    result_array: str
    acc_array: str
    edge_value_arrays: Tuple[str, ...] = ()
    base_filter_arrays: Tuple[str, ...] = ()
    uses_weights: bool = False
    base_filter: Optional[Callable[[State, np.ndarray], np.ndarray]] = None
    other_filter: Optional[Callable[[State, np.ndarray], np.ndarray]] = None
    early_exit: Optional[Callable[[State, np.ndarray], np.ndarray]] = None
    gather_alu: int = 1
    apply_alu: int = 2
    max_iterations: int = 100
    #: Which endpoint the gather accumulates into: "base" (pull —
    #: lanes own their accumulator, vertex mapping needs no atomics) or
    #: "other" (push — scatter, every scheme pays atomics).
    accumulate_target: str = "base"

    def __post_init__(self) -> None:
        if not self.name:
            raise AlgorithmError("algorithm name must be non-empty")
        if self.base_filter is not None and not self.base_filter_arrays:
            # A filter that reads no state is legal but unusual; allow it.
            pass
        if self.max_iterations < 1:
            raise AlgorithmError("max_iterations must be at least 1")
        if self.accumulate_target not in ("base", "other"):
            raise AlgorithmError(
                f"accumulate_target must be 'base' or 'other', got "
                f"{self.accumulate_target!r}"
            )

    # ------------------------------------------------------------------
    @property
    def has_base_filter(self) -> bool:
        """Whether registration applies a base-vertex filter."""
        return self.base_filter is not None

    @property
    def has_other_filter(self) -> bool:
        """Whether edge processing filters on the opposite endpoint."""
        return self.other_filter is not None

    @property
    def has_early_exit(self) -> bool:
        """Whether gathering for a base vertex can stop early (BFS)."""
        return self.early_exit is not None

    def make_state(self, graph: CSRGraph, **params) -> State:
        """Initialize state and validate the declared arrays exist."""
        state = self.init_state(graph, **params)
        missing = [
            name
            for name in (self.result_array, self.acc_array,
                         *self.edge_value_arrays, *self.base_filter_arrays)
            if name not in state
        ]
        if missing:
            raise AlgorithmError(
                f"algorithm {self.name!r} init_state did not produce "
                f"declared arrays: {missing}"
            )
        return state

    def filtered_degrees(self, state: State, vids: np.ndarray,
                         degrees: np.ndarray) -> np.ndarray:
        """Apply the base filter by zeroing degrees (Section III-C:
        "SparseWeaver inserts code that changes the degree to zero when
        a vertex is filtered")."""
        if self.base_filter is None:
            return degrees
        out = degrees.copy()
        out[self.base_filter(state, vids)] = 0
        return out
