"""Timed per-core Weaver unit.

Wraps the pure FSM with the Section III-C / V-D timing model:

* The unit serves one request at a time (``_free_at`` serialization) —
  it sits in the SFU slot of the Vortex pipeline.
* ``WEAVER_REG`` costs one ST write (tables live in shared memory, so
  the cost is the configurable table latency the Fig. 13 sweep varies).
* ``WEAVER_DEC_ID`` costs the FSM cycles visited plus one table-read
  latency per ST fetch plus one DT write.
* ``WEAVER_DEC_LOC`` costs one DT read.
* ``WEAVER_SKIP`` costs a single cycle.
* A ``WEAVER_REG`` arriving while the FSM is in END (or before any
  decode) starts a fresh epoch: tables and skip set are cleared and the
  FSM returns to S0 — the reset rule stated under Fig. 6.

The scan does not depend on requests, so with no ``WEAVER_SKIP`` an
epoch's decode sequence follows from its registrations alone.  The fast
engine takes a launch's plan once, as each epoch's ``(fsm_cycles,
empty)`` decodes of the real FSM scan (SparseWeaver's compile reads
them from :meth:`WeaverFSM.scan_epoch`; a drained ``hybrid_ell``
gather logs them through :meth:`WeaverUnit.plan`), and replays it
(:meth:`WeaverUnit.replay` pops those decodes through the same
timeline, with no FSM, ST or DT work).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Tuple

from repro.errors import SimulationError, WeaverError
from repro.core.fsm import WeaverFSM, WeaverState
from repro.core.tables import DenseWorkIDTable, SparseWorkloadTable
from repro.sim.config import GPUConfig
from repro.sim.gpu import HOME
from repro.sim.instructions import Op

_REG, _DEC_ID = Op.WEAVER_REG, Op.WEAVER_DEC_ID
_DEC_LOC, _SKIP = Op.WEAVER_DEC_LOC, Op.WEAVER_SKIP
_INIT, _END = WeaverState.INIT, WeaverState.END


class WeaverUnit:
    """One core's Weaver, driven by the simulator's unit protocol.

    The FSM scan runs on a background timeline: after serving a decode
    request the unit immediately precomputes the next OD batches (depth
    ``prefetch_depth``), so a later ``WEAVER_DEC_ID`` usually pops a
    ready batch and pays only the DT-write latency. This is the
    pipelining that makes Fig. 13 flat — ST read latency is absorbed in
    unit idle time unless the GPU outruns the scan, in which case the
    request blocks until the batch is ready (the unit *can* become the
    bottleneck, as Section II-B warns for offload-everything designs).
    Work is still handed out strictly in request-arrival order (dynamic
    distribution), since batch contents are request-agnostic.

    Note: a ``WEAVER_SKIP`` takes effect on the FSM scan (CED + future
    entries); already-precomputed batches keep their work items, which
    the kernel's own filters handle — matching the paper's advisory
    skip semantics.
    """

    #: Write-buffer bypass latency for DEC_LOC (cycles).
    DT_BYPASS_LATENCY = 4

    def __init__(self, config: GPUConfig, prefetch_depth: int = 4,
                 zero_skip_width: Optional[int] = None,
                 core_id: int = 0) -> None:
        self.config = config
        self.core_id = core_id
        self.lanes = config.threads_per_warp
        self.st = SparseWorkloadTable(config.weaver_capacity)
        self.dt = DenseWorkIDTable(config.warps_per_core, self.lanes)
        self.fsm = WeaverFSM(self.st, self.lanes, zero_skip_width)
        self.prefetch_depth = max(1, prefetch_depth)
        self._ready: deque = deque()    # (reply, ready_time) pairs
        self._scan_time = 0             # background FSM timeline
        self._scan_started = False
        self._scan_end = False          # the epoch's scan reached S8
        self._free_at = 0
        self._epoch_open = False
        self._log: Optional[list] = None    # planning: per-epoch decodes
        self._plan: Optional[list] = None   # replaying: per-epoch decodes
        self._planned: deque = deque()      # replaying: epoch's decodes
        self._bodies: list = []             # replaying: bodies, in order
        self._epoch = 0                     # replaying: epochs opened
        self._batch = 0                     # replaying: bodies replied
        self.registrations = 0
        self.decodes = 0
        self.skips = 0

    # ------------------------------------------------------------------
    # Planned launches (fast engine)
    # ------------------------------------------------------------------
    def plan(self) -> list:
        """Serve requests live and log every epoch's FSM decodes.

        Returns the log: one list of ``(fsm_cycles, empty)`` per epoch,
        in scan order, up to and including the decode that reached S8.
        """
        self._log = []
        return self._log

    def replay(self, log: list, bodies: list) -> None:
        """Replay a planned launch without the FSM.

        Decodes pop from ``log`` through the unchanged prefetch
        timeline; a decode with work answers with the next of
        ``bodies`` (reply order), an empty one with
        :data:`~repro.sim.gpu.HOME`.  The ST and DT are not written.
        A launch that opens more epochs, or asks for more bodies, than
        the plan holds raises :class:`SimulationError`.
        """
        self._plan = log
        self._bodies = bodies
        self._epoch = self._batch = 0
        self._scan_end = True   # no epoch's decodes until a registration

    # ------------------------------------------------------------------
    # Simulator unit protocol
    # ------------------------------------------------------------------
    def handle(
        self, op: Op, warp_slot: int, now: int, payload: Any
    ) -> Tuple[int, Any]:
        """Serve one Weaver instruction; returns ``(done_time, response)``.

        Latency model: table *writes* (REG, the DT row during DEC_ID)
        are fire-and-forget — the issuing warp continues next cycle
        while the banked table absorbs the write; table *reads* with a
        data dependency (DEC_LOC) block the reading warp for the table
        latency but do not occupy the unit (the core reads the shared-
        memory-backed row directly).
        """
        if op is _DEC_ID:
            start = now if now > self._free_at else self._free_at
            latency, reply = self._decode_ids(warp_slot, start)
            done = start + latency
            self._free_at = done
            return done, reply
        if op is _DEC_LOC:
            # The row was written by this warp's own DEC_ID moments ago;
            # a write-buffer bypass forwards it, capping the read cost.
            # (Without the bypass the full table latency would leak into
            # every distribution round and Fig. 13 could not be flat.)
            latency = min(self.config.weaver_table_latency,
                          self.DT_BYPASS_LATENCY)
            if self._plan is not None:
                return now + latency, None
            return now + latency, self.dt.read(warp_slot)
        if op is _REG:
            # Banked ST: one warp-wide row lands per cycle; the write
            # latency itself is covered by the scan-fill charge.
            start = now if now > self._free_at else self._free_at
            self._register(warp_slot, payload)
            self._free_at = start + 1
            return start + 1, None
        if op is _SKIP:
            if self._plan is not None:
                raise SimulationError(
                    "WEAVER_SKIP reached a replaying Weaver: a skip "
                    "changes the scan, so the planned batches are void")
            self.fsm.skip(int(payload))
            self.skips += 1
            return now + 1, None
        raise WeaverError(f"WeaverUnit cannot handle {op.name}")

    # ------------------------------------------------------------------
    def _register(self, warp_slot: int, entries: Any) -> None:
        """Write a warp's registration tuples into the ST.

        ``entries`` is an iterable of ``(lane, vid, loc, degree)``. A
        registration arriving after the previous epoch's distribution
        finished resets the unit for a new epoch.
        """
        if not self._epoch_open:
            self._ready.clear()
            self._scan_started = False
            self._epoch_open = True
            if self._plan is not None:
                # The planned decodes already hold this epoch's scan.
                epoch = self._epoch
                if epoch == len(self._plan):
                    raise SimulationError(
                        f"Weaver core {self.core_id}: epoch {epoch} "
                        f"opened but the plan holds {epoch} epochs")
                self._epoch = epoch + 1
                self._planned = deque(self._plan[epoch])
                self._scan_end = not self._planned
            else:
                self.st.clear()
                self.dt.clear()
                self.fsm.reset()
                self._scan_end = False
                if self._log is not None:
                    self._log.append([])
        if self._plan is not None:
            return
        if self.fsm.state is not _INIT:
            raise WeaverError(
                "WEAVER_REG received while distribution is in flight; "
                "the kernel must synchronize between stages"
            )
        self.registrations += self.st.register_warp(
            warp_slot * self.lanes, self.lanes, entries)

    def _decode(self) -> Tuple[int, Any]:
        """The scan's next OD batch as ``(fsm_cycles, reply)``; notes
        when the scan reaches S8 (live: the FSM's END; replaying: no
        planned decode left)."""
        if self._plan is not None:
            cycles, empty = self._planned.popleft()
            self._scan_end = not self._planned
            if empty:
                return cycles, HOME
            batch = self._batch
            if batch == len(self._bodies):
                raise SimulationError(
                    f"Weaver core {self.core_id}: batch {batch} decoded "
                    f"but the plan holds {batch} bodies")
            self._batch = batch + 1
            return cycles, self._bodies[batch]
        result = self.fsm.decode()
        if self._log is not None:
            self._log[-1].append((result.fsm_cycles, result.exhausted))
        self._scan_end = self.fsm.state is _END
        return result.fsm_cycles, result

    def _refill(self) -> None:
        """Precompute OD batches on the background timeline.

        ST reads are pipelined: the scan cursor is sequential and
        request-independent, so the decoupled prefetcher streams entries
        at one FSM cycle per state visited. The table-read latency is
        paid once per epoch as pipeline fill, not per entry — which is
        what keeps Fig. 13 flat as the table latency grows.
        """
        if self._scan_end:
            return
        if not self._scan_started:
            # Pipeline fill: first ST read of the epoch.
            self._scan_time += self.config.weaver_table_latency
            self._scan_started = True
        ready = self._ready
        depth = self.prefetch_depth
        # An exhausted batch leaves the FSM in S8, which ends the loop.
        while len(ready) < depth:
            cycles, reply = self._decode()
            self._scan_time += cycles
            ready.append((reply, self._scan_time))
            if self._scan_end:
                return

    def _decode_ids(self, warp_slot: int, now: int) -> Tuple[int, Any]:
        """Serve one DEC_ID request; park EIDs in the DT.

        Pops a precomputed batch when one is ready; otherwise waits for
        the background scan. The DT-row write is fire-and-forget (it
        only matters to the *same* warp's later DEC_LOC, which in
        program order cannot overtake it). Requests are served in
        arrival order (dynamic work distribution): the caller's
        ``_free_at`` serialization provides exactly that.
        """
        if self._scan_time < now:
            self._scan_time = now
        ready = self._ready
        if not ready:
            self._refill()
        if ready:
            reply, ready_time = ready.popleft()
            wait = ready_time - now if ready_time > now else 0
        elif self._plan is not None:
            reply, wait = HOME, WeaverFSM.END_CYCLES
        else:
            # FSM already exhausted: answer -1s in one cycle.
            reply = self.fsm.decode()
            wait = reply.fsm_cycles
        self.decodes += 1
        if self._plan is None:
            self.dt.write(warp_slot, reply.eids)
        self._refill()
        if self._scan_end and not ready:
            # Distribution drained: the next WEAVER_REG opens a new epoch.
            self._epoch_open = False
        return wait + 1, reply

    # ------------------------------------------------------------------
    @property
    def total_fsm_cycles(self) -> int:
        """FSM cycles consumed so far (for unit-level assertions)."""
        return self.fsm.total_fsm_cycles
