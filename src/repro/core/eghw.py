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
from typing import Any, Deque, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.config import GPUConfig
from repro.sim.gpu import HOME
from repro.sim.instructions import Op
from repro.sim.memory import MemoryHierarchy, Region

_PUSH, _FETCH = Op.EGHW_PUSH, Op.EGHW_FETCH


class EdgeBatch:
    """One warp-wide batch of generated edge records.

    Lane-wide arrays: the first ``count`` lanes hold the records,
    which ``mask`` marks; the rest are padding (-1, weights 0.0).
    """

    __slots__ = ("vids", "eids", "others", "weights", "count", "exhausted")

    def __init__(self, vids: np.ndarray, eids: np.ndarray,
                 others: np.ndarray, weights: np.ndarray,
                 count: int) -> None:
        self.vids = vids
        self.eids = eids
        self.others = others      # opposite endpoint of each edge
        self.weights = weights
        self.count = count
        #: True when the batch carries no work (unit drained).
        self.exhausted = not count

    @property
    def mask(self) -> np.ndarray:
        """Lanes holding a record."""
        return self.vids >= 0


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
        # A batch's ``others``/``weights`` gather these, so they stay
        # int64/float64 whatever arrays the caller passes.
        self.col_idx = np.asarray(col_idx, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
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
        # Every empty fetch gets the same batch; nothing writes to a
        # reply's arrays.
        lanes = self.lanes
        idle = np.full(lanes, -1, dtype=np.int64)
        self._empty = EdgeBatch(idle, idle, idle,
                                np.zeros(lanes, dtype=np.float64), 0)

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
        start = now if now > self._free_at else self._free_at
        if op is _FETCH:
            batch, ready = self._fetch(start)
            done = ready + self.config.shmem_latency
            self._free_at = done
            return done, batch
        if op is _PUSH:
            # GPU writes vertex ids into the unit's shared-memory buffer.
            self._inputs += map(int, payload)
            done = start + self.config.shmem_latency
            if done > self._unit_time:
                self._unit_time = done
            self._free_at = done
            return done, None
        raise SimulationError(f"EGHWUnit cannot handle {op.name}")

    # ------------------------------------------------------------------
    def _produce(self) -> None:
        """Stage input vertices' edge records until a warp's worth is
        staged or the inputs run out.

        Per vertex: a shared-memory read of the vid buffer, the topology
        read ``row_ptr[vid:vid+2]``, then per warp-width chunk of its
        edge list the edge-information reads (``col_idx`` and
        ``weights``) and a shared-memory write staging the chunk.  Each
        read walks the element span's cache lines on the unit's
        timeline (a planning unit reads nothing).  The unit keeps
        ``eghw_mlp`` memory requests in flight (a small fixed MSHR
        budget), so its serial timeline advances by ``latency / mlp``
        per access — better than fully serial, but far from the GPU
        pipeline's warp-level hiding, which is the paper's point in
        Case Study 1.
        """
        inputs = self._inputs
        pending = len(inputs)
        i = self._next_input
        lanes = self.lanes
        staged = self._staged
        if staged >= lanes or i >= pending:
            return
        t = self._unit_time
        shmem = self.config.shmem_latency
        endpoint = self.row_ptr.item
        runs = self._runs
        reads = self._log is None
        if reads:
            memory = self.memory
            walk = memory.walk
            core = self.core_id
            mlp = self._mlp
            # Each read is ``MemoryHierarchy.span_lines`` of its span.
            shift = memory.line_shift
            rp_base = self.row_ptr_region.base
            rp_size = self.row_ptr_region.itemsize
            col_base = self.col_region.base
            col_size = self.col_region.itemsize
            w_base = self.weight_region.base
            w_size = self.weight_region.itemsize
        generated = 0
        while staged < lanes and i < pending:
            vid = inputs[i]
            i += 1
            t += shmem
            if reads:
                a = rp_base + vid * rp_size
                t += -(-walk(core, range(a >> shift,
                                         ((a + rp_size) >> shift) + 1),
                             t) // mlp)
            start = endpoint(vid)
            end = endpoint(vid + 1)
            if start == end:
                continue
            for first in range(start, end, lanes):
                last = first + lanes
                if last > end:
                    last = end
                if reads:
                    t += -(-walk(core, range(
                        (col_base + first * col_size) >> shift,
                        ((col_base + (last - 1) * col_size) >> shift) + 1),
                        t) // mlp)
                    t += -(-walk(core, range(
                        (w_base + first * w_size) >> shift,
                        ((w_base + (last - 1) * w_size) >> shift) + 1),
                        t) // mlp)
                t += shmem
                runs.append([vid, first, last, t])
            staged += end - start
            generated += end - start
        self._next_input = i
        self._staged = staged
        self._unit_time = t
        self.edges_generated += generated

    def _fetch(self, now: int) -> Tuple[Any, int]:
        """Return up to one warp of records and their availability time.

        A replaying unit needs only the batch's first edge, record count
        and ready time to pick the planned body; live and planning units
        build the lane-wide :class:`EdgeBatch`.
        """
        if self._unit_time < now:
            self._unit_time = now
        self._produce()
        lanes = self.lanes
        runs = self._runs
        ready = now
        take = 0
        first_eid = runs[0][1] if runs else -1
        batch = self._plan is None
        if batch:
            vids: List[int] = []
            eids: List[int] = []
        while runs and take < lanes:
            run = runs[0]
            vid, first, end, at = run
            last = first + lanes - take
            if last < end:
                run[1] = last
            else:
                last = end
                runs.popleft()
            if batch:
                vids += [vid] * (last - first)
                eids += range(first, last)
            take += last - first
            if at > ready:
                ready = at
        self._staged -= take
        if not batch:
            return self._planned_body(first_eid, take), ready
        if not take:
            return self._empty, ready
        if self._log is not None:
            self._log.append((first_eid, take))
        if take < lanes:
            pad = [-1] * (lanes - take)
            vids += pad
            eids += pad
        eid_row = np.array(eids, dtype=np.int64)
        others = self.col_idx[eid_row]
        weights = self.weights[eid_row]
        if take < lanes:
            others[take:] = -1
            weights[take:] = 0.0
        return EdgeBatch(np.array(vids, dtype=np.int64), eid_row, others,
                         weights, take), ready

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
