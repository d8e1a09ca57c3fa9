"""Edge-Generating HardWare (EGHW) baseline — Case Study 1 (Fig. 18).

EGHW models the SCU / GraphPEG family: a per-core accelerator that takes
vertex ids from a shared-memory buffer, *itself* reads graph topology and
edge information from the memory hierarchy, and writes complete edge
records back to a shared-memory buffer for the GPU to consume.

The decisive difference from Weaver: EGHW performs its own memory reads
serially on its private timeline, so it cannot hide memory latency
behind warp-level parallelism, and it needs extra shared-memory traffic
to stage the generated edge records — the two effects the paper blames
for SparseWeaver's 3.64x advantage.

For the fast engine a launch is planned once (:meth:`EGHWUnit.plan`:
no memory reads, each work batch's ``(first eid, count)`` logged) and
then replayed (:meth:`EGHWUnit.replay`): staging and the memory
timeline run as live, only the reply is the batch's stored body.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.config import GPUConfig
from repro.sim.gpu import HOME
from repro.sim.instructions import Op
from repro.sim.memory import MemoryHierarchy, Region


@dataclass
class EdgeBatch:
    """One warp-wide batch of generated edge records."""

    vids: np.ndarray
    eids: np.ndarray
    others: np.ndarray   # opposite endpoint of each edge
    weights: np.ndarray
    mask: np.ndarray

    @property
    def exhausted(self) -> bool:
        """True when the batch carries no work (unit drained)."""
        return not bool(self.mask.any())


class EGHWUnit:
    """Per-core edge-generating hardware with a serial memory timeline."""

    def __init__(
        self,
        core_id: int,
        config: GPUConfig,
        memory: MemoryHierarchy,
        row_ptr_region: Region,
        col_region: Region,
        weight_region: Region,
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.memory = memory
        self.row_ptr_region = row_ptr_region
        self.col_region = col_region
        self.weight_region = weight_region
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.weights = weights
        self.lanes = config.threads_per_warp
        if not 0 <= core_id < len(memory.l1):
            raise SimulationError(f"core id {core_id} out of range")
        self._mlp = max(1, config.eghw_mlp)
        self._inputs: List[int] = []
        # Staged edge records, one ``[vid, first_eid, end_eid, ready]``
        # run per warp-width chunk of a vertex's edge list.
        self._runs: Deque[List[int]] = deque()
        self._staged = 0
        self._next_input = 0
        self._unit_time = 0
        self._free_at = 0
        self._log: Optional[list] = None    # planning: (first, count)s
        self._plan: Optional[list] = None   # replaying: the planned log
        self._bodies: list = []
        self._batch = 0
        self.edges_generated = 0

    # ------------------------------------------------------------------
    # Planned launches (fast engine)
    # ------------------------------------------------------------------
    def plan(self) -> list:
        """Serve requests without memory reads (the GPU's caches and
        DRAM counters stay untouched); returns the log of each work
        batch's ``(first eid, count)``, in reply order."""
        self._log = []
        return self._log

    def replay(self, log: list, bodies: list) -> None:
        """Replay a planned launch: batch ``k`` with work answers with
        ``bodies[k]``, an empty batch with :data:`~repro.sim.gpu.HOME`.
        Staging and the memory timeline run as live."""
        self._plan = log
        self._bodies = bodies

    # ------------------------------------------------------------------
    # Simulator unit protocol
    # ------------------------------------------------------------------
    def handle(
        self, op: Op, warp_slot: int, now: int, payload: Any
    ) -> Tuple[int, Any]:
        """Serve EGHW_PUSH / EGHW_FETCH; returns ``(done_time, response)``."""
        start = max(now, self._free_at)
        if op == Op.EGHW_PUSH:
            # GPU writes vertex ids into the unit's shared-memory buffer.
            vids = [int(v) for v in payload]
            self._inputs.extend(vids)
            done = start + self.config.shmem_latency
            self._unit_time = max(self._unit_time, done)
            self._free_at = done
            return done, None
        if op == Op.EGHW_FETCH:
            batch, ready = self._fetch(start)
            done = max(start, ready) + self.config.shmem_latency
            self._free_at = done
            return done, batch
        raise SimulationError(f"EGHWUnit cannot handle {op.name}")

    # ------------------------------------------------------------------
    def _read(self, region: Region, first: int, end: int) -> None:
        """Charge the contiguous element span ``region[first:end]`` on
        the unit's timeline.

        The unit keeps ``eghw_mlp`` memory requests in flight (a small
        fixed MSHR budget), so its serial timeline advances by
        ``latency / mlp`` per access — better than fully serial, but far
        from the GPU pipeline's warp-level hiding, which is the paper's
        point in Case Study 1.
        """
        if self._log is not None:
            return
        memory = self.memory
        latency = memory.walk(self.core_id,
                              memory.span_lines(region, first, end),
                              self._unit_time)
        self._unit_time += -(-latency // self._mlp)

    def _produce_one(self) -> bool:
        """Stage records for the next input vertex; False when drained."""
        shmem = self.config.shmem_latency
        lanes = self.lanes
        while self._next_input < len(self._inputs):
            vid = self._inputs[self._next_input]
            self._next_input += 1
            # Shared-memory read of the vid buffer.
            self._unit_time += shmem
            # Topology read: row_ptr[vid], row_ptr[vid+1].
            self._read(self.row_ptr_region, vid, vid + 2)
            start, end = int(self.row_ptr[vid]), int(self.row_ptr[vid + 1])
            if start == end:
                continue
            # Edge-information reads, one warp-width chunk at a time.
            for first in range(start, end, lanes):
                last = min(first + lanes, end)
                self._read(self.col_region, first, last)
                self._read(self.weight_region, first, last)
                # Stage the chunk into the shared-memory output buffer.
                self._unit_time += shmem
                self._runs.append([vid, first, last, self._unit_time])
            self._staged += end - start
            self.edges_generated += end - start
            return True
        return False

    def _fetch(self, now: int) -> Tuple[Any, int]:
        """Return up to one warp of records and their availability time."""
        self._unit_time = max(self._unit_time, now)
        lanes = self.lanes
        while self._staged < lanes and self._next_input < len(self._inputs):
            self._produce_one()
        vids: List[int] = []
        eids: List[int] = []
        ready = now
        runs = self._runs
        while runs and len(eids) < lanes:
            run = runs[0]
            vid, first, end, at = run
            last = min(end, first + lanes - len(eids))
            vids += [vid] * (last - first)
            eids += range(first, last)
            if at > ready:
                ready = at
            if last == end:
                runs.popleft()
            else:
                run[1] = last
        take = len(eids)
        self._staged -= take
        if self._plan is not None:
            return self._planned_body(eids[0] if take else -1, take), ready
        if self._log is not None and take:
            self._log.append((eids[0], take))
        pad = [-1] * (lanes - take)
        vid_row = np.array(vids + pad, dtype=np.int64)
        eid_row = np.array(eids + pad, dtype=np.int64)
        others = np.full(lanes, -1, dtype=np.int64)
        weights = np.zeros(lanes, dtype=np.float64)
        taken = eid_row[:take]
        others[:take] = self.col_idx[taken]
        weights[:take] = self.weights[taken]
        batch = EdgeBatch(vid_row, eid_row, others, weights, vid_row >= 0)
        return batch, ready

    def _planned_body(self, first: int, take: int) -> Any:
        """The reply of a replaying unit, checked against the plan."""
        if not take:
            return HOME
        k = self._batch
        planned = self._plan[k] if k < len(self._plan) else None
        if planned != (first, take):
            raise SimulationError(
                f"EGHW core {self.core_id}: batch {k} is {take} records "
                f"from edge {first} but the plan has {planned}; the "
                "vertex ids were pushed in another order than planned")
        self._batch = k + 1
        return self._bodies[k]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear buffers for a new epoch."""
        self._inputs.clear()
        self._runs.clear()
        self._staged = 0
        self._next_input = 0

    @property
    def drained(self) -> bool:
        """True when every pushed vertex's edges have been fetched."""
        return not self._runs and self._next_input >= len(self._inputs)
