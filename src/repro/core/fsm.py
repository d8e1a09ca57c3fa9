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

from enum import Enum
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.errors import WeaverError
from repro.core.tables import SparseWorkloadTable


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


_INIT, _END = WeaverState.INIT, WeaverState.END

#: State tails of one S2 visit: OD full (S5 -> S6), refill from the
#: next ST entry (S3 -> S4), and ST exhausted (S7 -> S8).
_OD_FULL = (WeaverState.UPDATE_DT, WeaverState.WAIT)
_REFILL = (WeaverState.FETCH, WeaverState.UPDATE_CED)
_DRAIN = (WeaverState.DRAIN, WeaverState.END)


class DecodeResult:
    """What one ``WEAVER_DEC_ID`` request produced.

    ``vids``/``eids`` are lane-wide arrays padded with -1: the first
    ``work_count`` lanes hold work, which ``mask`` marks (the hardware
    thread-activation clue).  ``exhausted`` is True when no lane holds
    work (the distribution-loop exit).  ``fsm_cycles`` counts states
    visited and ``st_reads`` counts ST fetches — the timed unit converts
    both into latency.

    ``states`` is the decode's Fig. 6 trail, rebuilt on request from
    ``st_reads`` and how the decode started and ended: every trail is
    ``[S1]`` (from S0 only), one ``S2 S3 S4`` per ST refill, then ``S2``
    and the tail ``S5 S6`` (OD full) or ``S7 S8`` (ST drained).  A
    request answered in S8 visits no state.
    """

    __slots__ = ("vids", "eids", "fsm_cycles", "st_reads", "work_count",
                 "exhausted", "_trail")

    def __init__(self, vids: np.ndarray, eids: np.ndarray, fsm_cycles: int,
                 st_reads: int, work_count: int,
                 trail: Optional[Tuple[bool, tuple]] = None) -> None:
        self.vids = vids
        self.eids = eids
        self.fsm_cycles = fsm_cycles
        self.st_reads = st_reads
        self.work_count = work_count
        self.exhausted = not work_count
        #: ``(started in S0, tail states)``; None for a request in S8.
        self._trail = trail

    @property
    def mask(self) -> np.ndarray:
        """Lanes holding valid work."""
        return self.vids >= 0

    @property
    def states(self) -> List[WeaverState]:
        """The Fig. 6 states this decode visited, in order."""
        if self._trail is None:
            return []
        from_init, tail = self._trail
        head = [WeaverState.LOAD_FIRST] if from_init else []
        refill = [WeaverState.DECODE, *_REFILL]
        return (head + refill * (self.st_reads - from_init)
                + [WeaverState.DECODE, *tail])


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

    def __init__(self, table: Optional[SparseWorkloadTable], lanes: int,
                 zero_skip_width: Optional[int] = None) -> None:
        if lanes < 1:
            raise WeaverError("Weaver needs at least one lane")
        self.table = table
        self.lanes = lanes
        if zero_skip_width is not None:
            self.zero_skip_width = zero_skip_width
        self.state = WeaverState.INIT
        self._entries: List[Tuple[int, int, int]] = []
        self._scan_pos = 0
        # Current Entry Data (CED) buffer: the in-flight ST entry's vid,
        # next edge id and remaining work items (vid None: no entry).
        self._ced_vid: Optional[int] = None
        self._ced_cursor = 0
        self._ced_remaining = 0
        self._skipped: Set[int] = set()
        self.total_fsm_cycles = 0
        self.total_st_reads = 0
        # Every request in S8 gets the same all -1 reply; nothing writes
        # to a reply's rows.
        idle = np.full(lanes, -1, dtype=np.int64)
        self._end_reply = DecodeResult(idle, idle, self.END_CYCLES, 0, 0)

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
        return self.state is _END

    # ------------------------------------------------------------------
    def decode(self) -> DecodeResult:
        """Serve one decode request: run states until OD is full or the
        scan ends, then emit the OD as a lane-wide result.

        S1 (from S0) reads the ST's rows; :meth:`advance` walks them,
        and the runs it moved into the OD fill the VID/EID rows.
        """
        if self.state is _END:
            self.total_fsm_cycles += self.END_CYCLES
            return self._end_reply
        from_init = self.state is _INIT
        if from_init:
            self._entries = self.table.rows()
        cycles, st_reads, runs = self.advance()
        vids: List[int] = []
        eids: List[int] = []
        for vid, first, count in runs:
            vids += [vid] * count
            eids += range(first, first + count)
        work = len(vids)
        free = self.lanes - work
        if free:
            pad = [-1] * free
            vids += pad
            eids += pad
        tail = _DRAIN if self.state is _END else _OD_FULL
        return DecodeResult(np.array(vids, dtype=np.int64),
                            np.array(eids, dtype=np.int64), cycles,
                            st_reads, work, (from_init, tail))

    def advance(self) -> Tuple[int, int, List[Tuple[int, int, int]]]:
        """One decode's pass over the ST rows, without lane rows.

        Returns ``(fsm_cycles, st_reads, runs)``: ``runs`` are the
        ``(vid, first eid, count)`` runs moved into the OD, in lane
        order (none once the scan is drained).  Each S2 visit moves
        ``min(free lanes, CED remaining)`` work items at once, so the
        host cost follows ST entries rather than work items.  Before
        each ST fetch the valid bitmap steps over zero-degree and
        skipped entries, ``zero_skip_width`` per cycle.  The FSM must
        not be in S8; from S0 it scans the rows S1 loaded.
        """
        lanes = self.lanes
        width = self.zero_skip_width
        skipped = self._skipped
        entries = self._entries
        from_init = self.state is _INIT
        # S1 starts the scan at the first row; S6 resumes with the
        # current CED at S2.
        pos = 0 if from_init else self._scan_pos
        end = len(entries)
        vid = self._ced_vid
        cursor = self._ced_cursor
        remaining = self._ced_remaining
        runs = []
        free = lanes
        st_reads = 0
        bitmap_cycles = 0
        fetch = from_init
        while True:
            if fetch:
                # The valid bitmap, then the S1/S3 fetch into the CED.
                start = pos
                while pos < end:
                    entry = entries[pos]
                    if entry[2] > 0 and entry[0] not in skipped:
                        break
                    pos += 1
                bitmap_cycles += -(-(pos - start) // width)
                if pos < end:
                    vid, cursor, remaining = entries[pos]
                    pos += 1
                    st_reads += 1
                elif from_init and not st_reads:
                    # S1 with nothing live: the CED stays empty.
                    vid, remaining = None, 0
                    st_reads = 1
                else:
                    tail = _DRAIN
                    break
            fetch = True
            # S2: move one run from the CED into the OD.
            if remaining > 0:
                count = free if free < remaining else remaining
                runs.append((vid, cursor, count))
                cursor += count
                remaining -= count
                free -= count
                if not free:
                    tail = _OD_FULL
                    break
        self._scan_pos = pos
        self._ced_vid = vid
        self._ced_cursor = cursor
        self._ced_remaining = remaining
        self.state = tail[1]
        # One cycle per state: S1 from S0, S2 S3 S4 per refill, then S2
        # and the two tail states.
        cycles = (from_init + 3 * (st_reads - from_init) + 3
                  + bitmap_cycles)
        self.total_fsm_cycles += cycles
        self.total_st_reads += st_reads
        return cycles, st_reads, runs

    def scan_epoch(self, rows: List[Tuple[int, int, int]]
                   ) -> List[Tuple[int, list]]:
        """A whole epoch's decodes over ``rows``, with no requests and
        no skips: resets the FSM, then :meth:`advance` until S8.

        Returns one ``(fsm_cycles, runs)`` per decode, in scan order,
        up to and including the one that reaches S8: the decodes a
        live unit's scan makes over an ST holding ``rows``.
        """
        self.reset()
        self._entries = rows
        decodes = []
        while self.state is not _END:
            cycles, _st_reads, runs = self.advance()
            decodes.append((cycles, runs))
        return decodes
