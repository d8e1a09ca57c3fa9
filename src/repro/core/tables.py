"""The Weaver's two tables: ST and DT.

The *Sparse Workload Information Table* (ST) buffers registration data —
``(vid, start location, degree)`` triples — indexed by hardware warp id
and thread id so that scanning entries in index order visits vertices in
software-thread-id order (the "out-of-order registration, ordered scan"
design decision of Section III-C).

The *Dense Work ID Table* (DT) holds, per warp, the EID row produced by
the most recent ``WEAVER_DEC_ID`` so a following ``WEAVER_DEC_LOC`` can
read it back.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import WeaverError


class STEntry(namedtuple("STEntry", "vid loc degree")):
    """One registered workload: base vertex, edge-run start, degree."""

    __slots__ = ()

    def __new__(cls, vid: int, loc: int, degree: int) -> "STEntry":
        if degree < 0:
            raise WeaverError(f"negative degree {degree} for vid {vid}")
        if loc < 0:
            raise WeaverError(f"negative location {loc} for vid {vid}")
        return tuple.__new__(cls, (vid, loc, degree))


class SparseWorkloadTable:
    """Fixed-capacity ST with index-ordered scan.

    Entries are written at explicit indices (``warp_id * threads_per_warp
    + thread_id``); unwritten slots are skipped during the scan, which
    happens when a thread's stride loop has no vertex left to register.
    A slot holds its entry as a plain ``(vid, loc, degree)`` tuple.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise WeaverError("ST capacity must be at least 1")
        self.capacity = capacity
        self._entries: List[Optional[Tuple[int, int, int]]] = [None] * capacity
        self._count = 0
        self.writes = 0

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        """Drop all entries (new registration epoch)."""
        self._entries = [None] * self.capacity
        self._count = 0

    def register(self, index: int, vid: int, loc: int, degree: int) -> None:
        """Write an entry at ``index``; re-registering a slot is an error
        within one epoch (each thread owns exactly one slot)."""
        self.register_warp(index, 1, ((0, vid, loc, degree),))

    def register_warp(self, base: int, lanes: int,
                      entries: Iterable[Tuple[int, int, int, int]]) -> int:
        """Write one warp's ``(lane, vid, loc, degree)`` registrations at
        ``base + lane``; returns how many were written.

        A lane outside ``[0, lanes)``, an index outside the table, a slot
        already written this epoch and a negative degree or location
        are errors.
        """
        slots = self._entries
        capacity = self.capacity
        count = 0
        try:
            for lane, vid, loc, degree in entries:
                if not 0 <= lane < lanes:
                    raise WeaverError(
                        f"lane {lane} out of range [0, {lanes})")
                index = base + lane
                if not 0 <= index < capacity:
                    raise WeaverError(
                        f"ST index {index} out of range [0, {capacity}); "
                        "the kernel must chunk registration into epochs"
                    )
                if slots[index] is not None:
                    raise WeaverError(
                        f"ST slot {index} registered twice in one epoch"
                    )
                if degree < 0 or loc < 0:
                    STEntry(vid, loc, degree)  # raises, naming the field
                slots[index] = (vid, loc, degree)
                count += 1
        finally:
            # Entries before a rejected one stay written, and counted.
            self._count += count
            self.writes += count
        return count

    def get(self, index: int) -> Optional[STEntry]:
        """Entry at ``index`` or None."""
        if not 0 <= index < self.capacity:
            raise WeaverError(f"ST index {index} out of range")
        entry = self._entries[index]
        return None if entry is None else STEntry._make(entry)

    def rows(self) -> List[Tuple[int, int, int]]:
        """Registered ``(vid, loc, degree)`` triples in index order (the
        FSM's scan input)."""
        return [entry for entry in self._entries if entry is not None]

    def scan(self) -> Iterator[STEntry]:
        """Iterate registered entries in index (== software thread) order."""
        return map(STEntry._make, self.rows())

    def total_degree(self) -> int:
        """Sum of registered degrees (total work items this epoch)."""
        return sum(degree for _, _, degree in self.rows())


class DenseWorkIDTable:
    """Per-warp EID rows parked between DEC_ID and DEC_LOC."""

    def __init__(self, num_warps: int, lanes: int) -> None:
        if num_warps < 1 or lanes < 1:
            raise WeaverError("DT needs at least one warp and one lane")
        self.num_warps = num_warps
        self.lanes = lanes
        self._rows: Dict[int, np.ndarray] = {}
        self.writes = 0
        self.reads = 0

    def write(self, warp_id: int, eids: np.ndarray) -> None:
        """Park a warp's EID row (padded with -1 for idle lanes).

        The table keeps the array itself: the writer hands over a row
        it no longer writes to (the unit's rows are fresh per decode).
        """
        self._check_warp(warp_id)
        if len(eids) != self.lanes:
            raise WeaverError(
                f"DT row must have {self.lanes} lanes, got {len(eids)}"
            )
        self._rows[warp_id] = eids
        self.writes += 1

    def read(self, warp_id: int) -> np.ndarray:
        """Read back a warp's EID row; DEC_LOC before DEC_ID is an error."""
        self._check_warp(warp_id)
        row = self._rows.get(warp_id)
        if row is None:
            raise WeaverError(
                f"warp {warp_id} issued WEAVER_DEC_LOC before WEAVER_DEC_ID"
            )
        self.reads += 1
        return row

    def clear(self) -> None:
        """Drop all rows (new epoch)."""
        self._rows.clear()

    def _check_warp(self, warp_id: int) -> None:
        if not 0 <= warp_id < self.num_warps:
            raise WeaverError(
                f"warp id {warp_id} out of range [0, {self.num_warps})"
            )
