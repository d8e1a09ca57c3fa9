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
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.errors import WeaverError
from repro.core.fsm import DecodeResult, WeaverFSM, WeaverState
from repro.core.tables import DenseWorkIDTable, SparseWorkloadTable
from repro.sim.config import GPUConfig
from repro.sim.instructions import Op


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

    def __init__(self, config: GPUConfig, prefetch_depth: int = 4) -> None:
        self.config = config
        self.lanes = config.threads_per_warp
        capacity = min(
            config.weaver_entries,
            config.warps_per_core * config.threads_per_warp,
        )
        self.st = SparseWorkloadTable(capacity)
        self.dt = DenseWorkIDTable(config.warps_per_core, self.lanes)
        self.fsm = WeaverFSM(self.st, self.lanes)
        self.prefetch_depth = max(1, prefetch_depth)
        self._ready: list = []          # [(DecodeResult, ready_time)]
        self._scan_time = 0             # background FSM timeline
        self._scan_started = False
        self._free_at = 0
        self._epoch_open = False
        self.registrations = 0
        self.decodes = 0
        self.skips = 0

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
        if op == Op.WEAVER_REG:
            # Banked ST: one warp-wide row lands per cycle; the write
            # latency itself is covered by the scan-fill charge.
            start = max(now, self._free_at)
            self._register(warp_slot, payload)
            self._free_at = start + 1
            return start + 1, None
        if op == Op.WEAVER_DEC_ID:
            start = max(now, self._free_at)
            latency, response = self._decode_ids(warp_slot, start)
            done = start + latency
            self._free_at = done
            return done, response
        if op == Op.WEAVER_DEC_LOC:
            # The row was written by this warp's own DEC_ID moments ago;
            # a write-buffer bypass forwards it, capping the read cost.
            # (Without the bypass the full table latency would leak into
            # every distribution round and Fig. 13 could not be flat.)
            latency = min(self.config.weaver_table_latency,
                          self.DT_BYPASS_LATENCY)
            return now + latency, self.dt.read(warp_slot)
        if op == Op.WEAVER_SKIP:
            self.fsm.skip(int(payload))
            self.skips += 1
            return now + 1, None
        raise WeaverError(f"WeaverUnit cannot handle {op.name}")

    # ------------------------------------------------------------------
    def _register(self, warp_slot: int, entries: Any) -> int:
        """Write a warp's registration tuples into the ST.

        ``entries`` is an iterable of ``(lane, vid, loc, degree)``. A
        registration arriving after the previous epoch's distribution
        finished resets the unit for a new epoch.
        """
        if not self._epoch_open:
            self.st.clear()
            self.dt.clear()
            self.fsm.reset()
            self._ready.clear()
            self._scan_started = False
            self._epoch_open = True
        if self.fsm.state != WeaverState.INIT:
            raise WeaverError(
                "WEAVER_REG received while distribution is in flight; "
                "the kernel must synchronize between stages"
            )
        base = warp_slot * self.lanes
        count = 0
        for lane, vid, loc, degree in entries:
            if not 0 <= lane < self.lanes:
                raise WeaverError(f"lane {lane} out of range [0, {self.lanes})")
            self.st.register(base + lane, int(vid), int(loc), int(degree))
            count += 1
        self.registrations += count
        # Parallel bank write: one table-write latency per warp request.
        return self.config.weaver_table_latency if count else 1

    def _scan_cost(self, result: DecodeResult) -> int:
        """Background FSM cycles one batch costs.

        ST reads are pipelined: the scan cursor is sequential and
        request-independent, so the decoupled prefetcher streams entries
        at one FSM cycle per state visited. The table-read latency is
        paid once per epoch as pipeline fill (charged by the first
        ``_refill``), not per entry — which is what keeps Fig. 13 flat
        as the table latency grows.
        """
        return result.fsm_cycles

    def _refill(self) -> None:
        """Precompute OD batches on the background timeline."""
        if not self._scan_started and not self.fsm.exhausted:
            # Pipeline fill: first ST read of the epoch.
            self._scan_time += self.config.weaver_table_latency
            self._scan_started = True
        # An exhausted batch leaves the FSM in S8, which ends the loop.
        while len(self._ready) < self.prefetch_depth and not self.fsm.exhausted:
            result = self.fsm.decode()
            self._scan_time += self._scan_cost(result)
            self._ready.append((result, self._scan_time))

    def _decode_ids(self, warp_slot: int, now: int) -> Tuple[int, DecodeResult]:
        """Serve one DEC_ID request; park EIDs in the DT.

        Pops a precomputed batch when one is ready; otherwise waits for
        the background scan. The DT-row write is fire-and-forget (it
        only matters to the *same* warp's later DEC_LOC, which in
        program order cannot overtake it). Requests are served in
        arrival order (dynamic work distribution): the caller's
        ``_free_at`` serialization provides exactly that.
        """
        self._scan_time = max(self._scan_time, now)
        if not self._ready:
            self._refill()
        if self._ready:
            result, ready_time = self._ready.pop(0)
            wait = max(0, ready_time - now)
        else:
            # FSM already exhausted: answer -1s in one cycle.
            result = self.fsm.decode()
            wait = result.fsm_cycles
        self.decodes += 1
        self.dt.write(warp_slot, result.eids)
        latency = wait + 1
        self._refill()
        if self.fsm.exhausted and not self._ready:
            # Distribution drained: the next WEAVER_REG opens a new epoch.
            self._epoch_open = False
        return latency, result

    # ------------------------------------------------------------------
    @property
    def total_fsm_cycles(self) -> int:
        """FSM cycles consumed so far (for unit-level assertions)."""
        return self.fsm.total_fsm_cycles
