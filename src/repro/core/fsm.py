"""The Weaver finite state machine (paper Fig. 6).

State roles, matching the figure:

* ``S0 INIT`` — idle; entered on reset / new registration epoch.
* ``S1 LOAD_FIRST`` — load the first ST entry into the CED buffer.
* ``S2 DECODE`` — fill Output Data (OD) slots from the CED.
* ``S3 FETCH`` — advance the ST scan cursor (low-degree path
  ``S3 -> S4 -> S2``).
* ``S4 UPDATE_CED`` — latch the fetched entry into the CED.
* ``S5 UPDATE_DT`` — OD full: write the warp's EID row to the DT
  (high-degree entries refill OD repeatedly via ``S5 -> S6 -> S2``).
* ``S6 WAIT`` — wait for the next decode request.
* ``S7 DRAIN`` — ST exhausted: flush a partial OD.
* ``S8 END`` — all work distributed; requests return -1 rows.

Each visited state costs one FSM cycle; ST reads additionally cost the
table-read latency, charged by the timed wrapper in
:mod:`repro.core.unit` (this module is pure logic so tests can replay
the paper's worked example cycle by cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.errors import WeaverError
from repro.core.tables import STEntry, SparseWorkloadTable


class WeaverState(Enum):
    """FSM states S0..S8 of Fig. 6."""

    INIT = "S0"
    LOAD_FIRST = "S1"
    DECODE = "S2"
    FETCH = "S3"
    UPDATE_CED = "S4"
    UPDATE_DT = "S5"
    WAIT = "S6"
    DRAIN = "S7"
    END = "S8"


#: State tails of one S2 visit: OD full (S5 -> S6), refill from the
#: next ST entry (S3 -> S4), and ST exhausted (S7 -> S8).
_OD_FULL = (WeaverState.UPDATE_DT, WeaverState.WAIT)
_REFILL = (WeaverState.FETCH, WeaverState.UPDATE_CED)
_DRAIN = (WeaverState.DRAIN, WeaverState.END)


@dataclass
class DecodeResult:
    """What one ``WEAVER_DEC_ID`` request produced.

    ``vids``/``eids`` are lane-wide arrays padded with -1; ``mask`` marks
    lanes holding valid work (the hardware thread-activation clue).
    ``fsm_cycles`` counts states visited and ``st_reads`` counts ST
    fetches — the timed unit converts both into latency.
    """

    vids: np.ndarray
    eids: np.ndarray
    mask: np.ndarray
    fsm_cycles: int
    st_reads: int
    states: List[WeaverState] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        """True when every lane returned -1 (distribution-loop exit)."""
        return not bool(self.mask.any())

    @property
    def work_count(self) -> int:
        """Number of valid lanes."""
        return int(self.mask.sum())


class WeaverFSM:
    """Pure-logic Weaver FSM over an ST scan.

    Zero-degree entries (filtered vertices, or vertices hit by
    ``WEAVER_SKIP`` before their entry is reached) are skipped through a
    valid bitmap rather than the full S3/S4 fetch path:
    ``zero_skip_width`` entries of the bitmap are scanned per cycle, so
    a frontier algorithm whose registration is mostly degree-zero (BFS
    with a small frontier) does not pay a full entry fetch per idle
    vertex.
    """

    #: Bitmap-scan width: zero entries skipped per FSM cycle.
    zero_skip_width = 32

    #: FSM cycles to answer a request in S8 (with -1s).
    END_CYCLES = 1

    def __init__(self, table: SparseWorkloadTable, lanes: int) -> None:
        if lanes < 1:
            raise WeaverError("Weaver needs at least one lane")
        self.table = table
        self.lanes = lanes
        self.state = WeaverState.INIT
        self._entries: List[STEntry] = []
        self._scan_pos = 0
        # Current Entry Data (CED) buffer: the in-flight ST entry's vid,
        # next edge id and remaining work items (vid None: no entry).
        self._ced_vid: Optional[int] = None
        self._ced_cursor = 0
        self._ced_remaining = 0
        self._skipped: Set[int] = set()
        self.total_fsm_cycles = 0
        self.total_st_reads = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Back to S0 (called when a new registration epoch begins)."""
        self.state = WeaverState.INIT
        self._entries = []
        self._scan_pos = 0
        self._ced_vid = None
        self._ced_remaining = 0
        self._skipped = set()

    def skip(self, vid: int) -> None:
        """``WEAVER_SKIP``: stop emitting work items for ``vid``.

        Effective immediately on the CED if it currently holds ``vid``
        (the supernode mid-decode case the paper motivates with BFS).
        """
        self._skipped.add(vid)
        if self._ced_vid == vid:
            self._ced_remaining = 0

    @property
    def exhausted(self) -> bool:
        """True once the FSM has reached S8."""
        return self.state == WeaverState.END

    # ------------------------------------------------------------------
    def decode(self) -> DecodeResult:
        """Serve one decode request: run states until OD is full or the
        scan ends, then emit the OD as a lane-wide result.

        Each S2 visit moves ``min(free lanes, CED remaining)`` work items
        into the OD at once, as one ``(vid, first_eid, count)`` run, so
        the host cost follows ST entries rather than work items.
        """
        if self.state == WeaverState.END:
            return self._finish([], [], 0, self.END_CYCLES)
        states: List[WeaverState] = []
        st_reads = 0
        bitmap_cycles = 0
        if self.state == WeaverState.INIT:
            self._entries = list(self.table.scan())
            self._scan_pos = 0
            bitmap_cycles += self._skip_zeros()
            states.append(WeaverState.LOAD_FIRST)
            st_reads += 1
            self._load_ced()
        # else WAIT: resume with the current CED at S2.

        # Decode loop: S2 with refills (S3/S4) until OD full or drained.
        od: List[Tuple[int, int, int]] = []
        free = self.lanes
        while True:
            states.append(WeaverState.DECODE)
            if self._ced_remaining > 0:
                count = min(free, self._ced_remaining)
                od.append((self._ced_vid, self._ced_cursor, count))
                self._ced_cursor += count
                self._ced_remaining -= count
                free -= count
            if not free:
                states += _OD_FULL
                break
            bitmap_cycles += self._skip_zeros()
            if self._scan_pos < len(self._entries):
                states += _REFILL
                st_reads += 1
                self._load_ced()
                continue
            # ST exhausted: drain the partial OD and end.
            states += _DRAIN
            break
        self.state = states[-1]
        return self._finish(od, states, st_reads,
                            len(states) + bitmap_cycles)

    # ------------------------------------------------------------------
    def _skip_zeros(self) -> int:
        """Advance the scan cursor over zero-degree / skipped entries via
        the valid bitmap; returns the bitmap cycles spent
        (``zero_skip_width`` entries per cycle)."""
        entries, skipped = self._entries, self._skipped
        pos = start = self._scan_pos
        while pos < len(entries):
            vid, _, degree = entries[pos]
            if degree > 0 and vid not in skipped:
                break
            pos += 1
        self._scan_pos = pos
        return -(-(pos - start) // self.zero_skip_width)

    def _load_ced(self) -> None:
        """Latch the entry under the scan cursor into the CED (none left:
        the CED stays empty).  The entry is live: ``_skip_zeros`` just
        stepped over every zero-degree or skipped one."""
        if self._scan_pos < len(self._entries):
            vid, loc, degree = self._entries[self._scan_pos]
            self._scan_pos += 1
            self._ced_vid, self._ced_cursor = vid, loc
            self._ced_remaining = degree
        else:
            self._ced_vid, self._ced_remaining = None, 0

    def _finish(
        self, od: List[Tuple[int, int, int]], states: List[WeaverState],
        st_reads: int, cycles: int,
    ) -> DecodeResult:
        vids: List[int] = []
        eids: List[int] = []
        for vid, first, count in od:
            vids += [vid] * count
            eids += range(first, first + count)
        pad = [-1] * (self.lanes - len(vids))
        vid_row = np.array(vids + pad, dtype=np.int64)
        self.total_fsm_cycles += cycles
        self.total_st_reads += st_reads
        return DecodeResult(
            vids=vid_row,
            eids=np.array(eids + pad, dtype=np.int64),
            mask=vid_row >= 0,
            fsm_cycles=cycles,
            st_reads=st_reads,
            states=states,
        )
