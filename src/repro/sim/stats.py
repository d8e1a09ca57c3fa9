"""Cycle, stall and phase accounting.

The stall taxonomy mirrors the Nsight Compute categories of Fig. 4 as
closely as a simulator can: MEMORY = waiting on a global-memory load
(long scoreboard), SHARED = waiting on shared memory (short scoreboard),
SYNC = waiting at a barrier, WEAVER / EGHW = waiting on the hardware
unit, EXEC_DEP = waiting on an in-flight ALU result, IDLE = no warp had
anything to issue.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Tuple

from repro.obs.provenance import get_digester
from repro.sim.instructions import Op, Phase, PHASE_LABELS


class StallCat(IntEnum):
    """Why a core cycle was spent not issuing."""

    MEMORY = 0
    SHARED = 1
    SYNC = 2
    WEAVER = 3
    EGHW = 4
    EXEC_DEP = 5
    IDLE = 6


STALL_LABELS = {
    StallCat.MEMORY: "Memory (long scoreboard)",
    StallCat.SHARED: "Shared (short scoreboard)",
    StallCat.SYNC: "Barrier",
    StallCat.WEAVER: "Weaver unit",
    StallCat.EGHW: "EGHW unit",
    StallCat.EXEC_DEP: "Execution dependency",
    StallCat.IDLE: "Idle",
}

_OP_TO_STALL = {
    Op.LOAD: StallCat.MEMORY,
    Op.STORE: StallCat.MEMORY,
    Op.ATOMIC: StallCat.MEMORY,
    Op.SHMEM_LOAD: StallCat.SHARED,
    Op.SHMEM_STORE: StallCat.SHARED,
    Op.SYNC: StallCat.SYNC,
    Op.WEAVER_REG: StallCat.WEAVER,
    Op.WEAVER_DEC_ID: StallCat.WEAVER,
    Op.WEAVER_DEC_LOC: StallCat.WEAVER,
    Op.WEAVER_SKIP: StallCat.WEAVER,
    Op.EGHW_PUSH: StallCat.EGHW,
    Op.EGHW_FETCH: StallCat.EGHW,
}


def stall_category(op: Op) -> StallCat:
    """Stall category charged when a warp is blocked on ``op``."""
    return _OP_TO_STALL.get(op, StallCat.EXEC_DEP)


@dataclass
class CacheStats:
    """Hit/miss counts of one cache level."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction; 0.0 when the level was never accessed."""
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another level's counts into this one."""
        self.hits += other.hits
        self.misses += other.misses


@dataclass
class KernelStats:
    """Everything the engine measured while running one kernel."""

    total_cycles: int = 0
    instructions: int = 0
    warps_launched: int = 0
    phase_cycles: Dict[Phase, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    stall_cycles: Dict[StallCat, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    op_counts: Dict[Op, int] = field(default_factory=lambda: defaultdict(int))
    counters: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    cache: Dict[str, CacheStats] = field(default_factory=dict)
    dram_accesses: int = 0
    #: Stall attribution cells: (core, warp slot, category) -> cycles.
    #: Always populated by the engine; sums exactly to ``stall_cycles``
    #: (the Fig. 4 per-core/per-warp view).
    stall_cells: Dict[Tuple[int, int, StallCat], int] = field(
        default_factory=lambda: defaultdict(int)
    )

    # ------------------------------------------------------------------
    @property
    def issue_cycles(self) -> int:
        """Cycles spent issuing (total minus stalls)."""
        return self.total_cycles - sum(self.stall_cycles.values())

    @property
    def warp_iterations(self) -> int:
        """Gather-loop rounds executed (the Fig. 2a metric)."""
        return self.counters.get("warp_iterations", 0)

    def merge(self, other: "KernelStats") -> None:
        """Accumulate another kernel's stats (multi-kernel algorithms).

        ``total_cycles`` adds because kernels run back-to-back.
        """
        digester = get_digester()
        if digester.enabled:
            # Merge order and content are part of a run's provenance:
            # an aggregation bug diverges here even when every kernel's
            # own records agree.
            digester.note_merge(other.total_cycles, other.instructions)
        self.total_cycles += other.total_cycles
        self.instructions += other.instructions
        self.warps_launched += other.warps_launched
        self.dram_accesses += other.dram_accesses
        for k, v in other.phase_cycles.items():
            self.phase_cycles[k] += v
        for k, v in other.stall_cycles.items():
            self.stall_cycles[k] += v
        for k, v in other.op_counts.items():
            self.op_counts[k] += v
        for k, v in other.counters.items():
            self.counters[k] += v
        for name, cs in other.cache.items():
            self.cache.setdefault(name, CacheStats()).merge(cs)
        for cell, v in other.stall_cells.items():
            self.stall_cells[cell] += v

    # ------------------------------------------------------------------
    def phase_breakdown(self) -> Dict[str, int]:
        """Human-readable phase -> cycles mapping (Fig. 17 rows)."""
        return {
            PHASE_LABELS[p]: c for p, c in sorted(self.phase_cycles.items())
        }

    def stall_breakdown(self) -> Dict[str, int]:
        """Human-readable stall -> cycles mapping (Fig. 4 rows)."""
        return {
            STALL_LABELS[s]: c for s, c in sorted(self.stall_cycles.items())
        }

    # ------------------------------------------------------------------
    def stall_by_core(self) -> Dict[int, Dict[StallCat, int]]:
        """Attributed stall cycles folded to core granularity."""
        out: Dict[int, Dict[StallCat, int]] = {}
        for (core, _warp, cat), cycles in self.stall_cells.items():
            out.setdefault(core, defaultdict(int))[cat] += cycles
        return {core: dict(cats) for core, cats in sorted(out.items())}

    def stall_by_warp(self, core: int) -> Dict[int, Dict[StallCat, int]]:
        """Attributed stall cycles of one core, per warp slot."""
        out: Dict[int, Dict[StallCat, int]] = {}
        for (c, warp, cat), cycles in self.stall_cells.items():
            if c == core:
                out.setdefault(warp, defaultdict(int))[cat] += cycles
        return {warp: dict(cats) for warp, cats in sorted(out.items())}

    def stall_cells_total(self) -> Dict[StallCat, int]:
        """Attribution cells folded back to categories.

        Equals ``stall_cycles`` whenever the stats came from the
        engine — the consistency check behind Fig. 4's attribution.
        """
        out: Dict[StallCat, int] = defaultdict(int)
        for (_core, _warp, cat), cycles in self.stall_cells.items():
            out[cat] += cycles
        return dict(out)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (for tooling and archival)."""
        return {
            "total_cycles": self.total_cycles,
            "instructions": self.instructions,
            "warps_launched": self.warps_launched,
            "dram_accesses": self.dram_accesses,
            "phases": self.phase_breakdown(),
            "stalls": self.stall_breakdown(),
            "ops": {op.name: count for op, count in
                    sorted(self.op_counts.items())},
            "counters": dict(self.counters),
            "cache": {
                name: {"hits": cs.hits, "misses": cs.misses}
                for name, cs in self.cache.items()
            },
        }

    def to_summary_dict(self) -> Dict[str, object]:
        """Lossless, picklable/JSON-able snapshot for process transport.

        Unlike :meth:`to_dict` (whose phase/stall keys are display
        labels), keys here are enum *names* so
        :meth:`from_summary_dict` can rebuild an equivalent object on
        the other side of a process or cache-file boundary.
        """
        out = {
            "total_cycles": self.total_cycles,
            "instructions": self.instructions,
            "warps_launched": self.warps_launched,
            "dram_accesses": self.dram_accesses,
            "phase_cycles": {p.name: c for p, c in
                             sorted(self.phase_cycles.items())},
            "stall_cycles": {s.name: c for s, c in
                             sorted(self.stall_cycles.items())},
            "op_counts": {op.name: c for op, c in
                          sorted(self.op_counts.items())},
            "counters": dict(self.counters),
            "cache": {
                name: {"hits": cs.hits, "misses": cs.misses}
                for name, cs in self.cache.items()
            },
        }
        if self.stall_cells:
            out["stall_cells"] = {
                f"{core}/{warp}/{cat.name}": cycles
                for (core, warp, cat), cycles
                in sorted(self.stall_cells.items())
            }
        return out

    @classmethod
    def from_summary_dict(cls, data: Dict[str, object]) -> "KernelStats":
        """Rebuild a :class:`KernelStats` from :meth:`to_summary_dict`."""
        stats = cls(
            total_cycles=int(data.get("total_cycles", 0)),
            instructions=int(data.get("instructions", 0)),
            warps_launched=int(data.get("warps_launched", 0)),
            dram_accesses=int(data.get("dram_accesses", 0)),
        )
        for name, c in data.get("phase_cycles", {}).items():
            stats.phase_cycles[Phase[name]] = int(c)
        for name, c in data.get("stall_cycles", {}).items():
            stats.stall_cycles[StallCat[name]] = int(c)
        for name, c in data.get("op_counts", {}).items():
            stats.op_counts[Op[name]] = int(c)
        for name, c in data.get("counters", {}).items():
            stats.counters[name] = int(c)
        for name, counts in data.get("cache", {}).items():
            stats.cache[name] = CacheStats(
                hits=int(counts["hits"]), misses=int(counts["misses"])
            )
        for cell, cycles in data.get("stall_cells", {}).items():
            core, warp, cat = cell.split("/")
            stats.stall_cells[(int(core), int(warp),
                               StallCat[cat])] = int(cycles)
        return stats

    def summary(self) -> str:
        """Multi-line textual summary for reports."""
        lines = [
            f"cycles={self.total_cycles} instructions={self.instructions} "
            f"warps={self.warps_launched}",
            "phases: "
            + ", ".join(f"{k}={v}" for k, v in self.phase_breakdown().items()),
            "stalls: "
            + ", ".join(f"{k}={v}" for k, v in self.stall_breakdown().items()),
        ]
        if self.cache:
            lines.append(
                "cache: "
                + ", ".join(
                    f"{name} {cs.hits}/{cs.accesses} hits"
                    for name, cs in self.cache.items()
                )
            )
        return "\n".join(lines)
