"""Abstract warp-instruction set for the simulator.

A kernel generator yields :class:`Instr` objects; the engine charges
issue and latency cycles and, for request/response ops (Weaver decode,
EGHW fetch), sends the hardware unit's reply back into the generator.

Every instruction carries a :class:`Phase` tag so the engine can build
the five-phase execution breakdown of Figs. 17-18 (Init, Registration,
Work-ID calculation, Edge-information access, Gather & Sum).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, Optional

import numpy as np


class Op(IntEnum):
    """Warp instruction opcodes."""

    ALU = 0
    LOAD = 1
    STORE = 2
    SHMEM_LOAD = 3
    SHMEM_STORE = 4
    ATOMIC = 5
    SYNC = 6
    WEAVER_REG = 7
    WEAVER_DEC_ID = 8
    WEAVER_DEC_LOC = 9
    WEAVER_SKIP = 10
    EGHW_PUSH = 11
    EGHW_FETCH = 12
    COUNTER = 13
    NOP = 14


class Phase(IntEnum):
    """Execution-breakdown phases (Fig. 17/18 categories)."""

    INIT = 0
    REGISTRATION = 1
    SCHEDULE = 2       # "Work ID calculation" / edge schedule
    EDGE_ACCESS = 3    # edge information access
    GATHER = 4         # gather & sum
    APPLY = 5
    OTHER = 6


PHASE_LABELS = {
    Phase.INIT: "Init",
    Phase.REGISTRATION: "Registration",
    Phase.SCHEDULE: "Work ID calc",
    Phase.EDGE_ACCESS: "Edge info access",
    Phase.GATHER: "Gather & Sum",
    Phase.APPLY: "Apply",
    Phase.OTHER: "Other",
}


class Instr:
    """One warp-wide instruction.

    Nothing mutates an Instr once built (the engine only reads it,
    compiling it into a record), so sharing one object is safe: the
    helpers below may return shared objects, and a kernel may yield
    one object any number of times.

    Attributes
    ----------
    op:
        Opcode.
    phase:
        Breakdown phase this instruction's cycles are charged to.
    region:
        For memory ops: the :class:`~repro.sim.memory.Region` addressed.
    indices:
        For memory ops: per-lane element indices into ``region``
        (inactive lanes excluded). May be an int for a scalar access.
    count:
        For ALU/SHMEM ops: number of back-to-back operations this
        instruction stands for (charged ``count`` issue cycles).
    payload:
        Op-specific data (Weaver registration tuples, counter names...).
    """

    __slots__ = ("op", "phase", "region", "indices", "count", "payload")

    def __init__(
        self,
        op: Op,
        phase: Phase,
        region: Optional[Any] = None,
        indices: Optional[Any] = None,
        count: int = 1,
        payload: Optional[Any] = None,
    ) -> None:
        self.op = op
        self.phase = phase
        self.region = region
        self.indices = indices
        self.count = count
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Instr({self.op.name}, {self.phase.name}, count={self.count})"
        )


# ----------------------------------------------------------------------
# Factory helpers: kernels read far better with these than raw Instr().
# ----------------------------------------------------------------------
# The per-edge-batch helpers name their opcodes by module globals and
# build positionally: an enum attribute lookup and keyword binding cost
# more than the rest of the call.
_ALU, _LOAD, _STORE, _ATOMIC = Op.ALU, Op.LOAD, Op.STORE, Op.ATOMIC


def alu(phase: Phase, count: int = 1) -> Instr:
    """``count`` back-to-back arithmetic ops."""
    return Instr(_ALU, phase, None, None, count)


def load(phase: Phase, region: Any, indices: Any) -> Instr:
    """Global-memory load of ``region[indices]`` across active lanes."""
    return Instr(_LOAD, phase, region, indices)


def store(phase: Phase, region: Any, indices: Any) -> Instr:
    """Global-memory store to ``region[indices]``."""
    return Instr(_STORE, phase, region, indices)


def shmem_load(phase: Phase, count: int = 1) -> Instr:
    """Shared-memory read (``count`` accesses)."""
    return Instr(Op.SHMEM_LOAD, phase, count=count)


def shmem_store(phase: Phase, count: int = 1) -> Instr:
    """Shared-memory write (``count`` accesses)."""
    return Instr(Op.SHMEM_STORE, phase, count=count)


def atomic(phase: Phase, region: Any, indices: Any) -> Instr:
    """Atomic read-modify-write on ``region[indices]``; conflicting
    lanes (same element) serialize."""
    return Instr(_ATOMIC, phase, region, indices)


def sync(phase: Phase) -> Instr:
    """Core-wide barrier (all resident warps must arrive)."""
    return Instr(Op.SYNC, phase)


def weaver_reg(phase: Phase, entries: Any) -> Instr:
    """``WEAVER_REG``: register ``(lane, vid, loc, degree)`` tuples."""
    return Instr(Op.WEAVER_REG, phase, payload=entries)


def weaver_dec_id(phase: Phase) -> Instr:
    """``WEAVER_DEC_ID``: request next warp-wide VID vector.

    The engine replies (via ``generator.send``) with a
    :class:`~repro.core.unit.DecodeResult`.
    """
    return Instr(Op.WEAVER_DEC_ID, phase)


def weaver_dec_loc(phase: Phase) -> Instr:
    """``WEAVER_DEC_LOC``: read the warp's EID row from the DT."""
    return Instr(Op.WEAVER_DEC_LOC, phase)


def weaver_skip(phase: Phase, vid: int) -> Instr:
    """``WEAVER_SKIP``: stop distributing work for ``vid``."""
    return Instr(Op.WEAVER_SKIP, phase, payload=vid)


def eghw_push(phase: Phase, vids: Any) -> Instr:
    """EGHW: push registered vertex ids into the unit's input buffer."""
    return Instr(Op.EGHW_PUSH, phase, payload=vids)


def eghw_fetch(phase: Phase) -> Instr:
    """EGHW: fetch the next batch of generated edge records (blocking)."""
    return Instr(Op.EGHW_FETCH, phase)


def counter(name: str, value: int = 1) -> Instr:
    """Zero-cost statistics counter bump (not a hardware instruction)."""
    return Instr(Op.COUNTER, Phase.OTHER, payload=(name, value))


def nop(phase: Phase = Phase.OTHER) -> Instr:
    """One idle issue slot."""
    return Instr(Op.NOP, phase)


def as_index_array(indices: Any) -> np.ndarray:
    """Normalize scalar / list / array lane indices to an int64 array."""
    arr = np.asarray(indices, dtype=np.int64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr
