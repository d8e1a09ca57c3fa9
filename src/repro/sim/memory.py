"""Global-memory address space and the cache hierarchy walker.

Kernels never fabricate raw addresses; they allocate named
:class:`Region` objects from a :class:`MemoryMap` (one per kernel
environment) and issue loads/stores as ``(region, element indices)``.
The hierarchy converts lane indices to cache lines, walks L1 -> L2 ->
(L3) -> DRAM per line, and returns the instruction's latency under the
coalescing model of DESIGN.md §5: worst-level latency plus a per-extra-
line throughput charge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.sim.cache import Cache
from repro.sim.config import GPUConfig
from repro.sim.stats import CacheStats


class Region:
    """A named, contiguous global-memory allocation."""

    __slots__ = ("name", "base", "itemsize", "length")

    def __init__(self, name: str, base: int, itemsize: int, length: int) -> None:
        self.name = name
        self.base = base
        self.itemsize = itemsize
        self.length = length

    @property
    def nbytes(self) -> int:
        """Size of the region in bytes."""
        return self.itemsize * self.length

    def addr(self, index: int) -> int:
        """Byte address of element ``index``."""
        return self.base + index * self.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Region({self.name!r}, base=0x{self.base:x}, "
            f"itemsize={self.itemsize}, length={self.length})"
        )


class MemoryMap:
    """Sequential allocator of :class:`Region` objects.

    Regions are aligned to 256 bytes and padded by one line so that two
    regions never share a cache line — which keeps the cache model's
    attribution of hits per array honest.
    """

    ALIGN = 256

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        self._regions: Dict[str, Region] = {}

    def alloc(self, name: str, length: int, itemsize: int = 8) -> Region:
        """Allocate ``length`` elements of ``itemsize`` bytes."""
        if length < 0 or itemsize <= 0:
            raise ConfigError("region length must be >= 0 and itemsize > 0")
        if name in self._regions:
            raise ConfigError(f"region {name!r} already allocated")
        region = Region(name, self._next, itemsize, length)
        nbytes = max(1, region.nbytes)
        self._next += (nbytes + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        self._next += self.ALIGN  # guard gap
        self._regions[name] = region
        return region

    def alloc_like(self, name: str, array: np.ndarray) -> Region:
        """Allocate a region shaped like a numpy array."""
        return self.alloc(name, int(array.size), int(array.itemsize))

    def __getitem__(self, name: str) -> Region:
        return self._regions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def regions(self) -> List[Region]:
        """All allocated regions in allocation order."""
        return list(self._regions.values())


class MemoryHierarchy:
    """Per-core L1s over a shared L2 (and optional L3) over DRAM.

    :meth:`walk` is the one per-line hierarchy walk: the event loop
    calls it with a compiled record's line list, hardware units and
    tests reach it through :meth:`access`.  ``observers`` are the
    running kernel's observers (set by the event loop); each walk
    reports to their ``on_mem``.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self._line_shift = config.l1.line_bytes.bit_length() - 1
        self.l1: List[Cache] = [
            Cache(config.l1, f"L1[{core}]") for core in range(config.num_cores)
        ]
        self.l2: Optional[Cache] = (
            Cache(config.l2, "L2") if config.l2 is not None else None
        )
        self.l3: Optional[Cache] = (
            Cache(config.l3, "L3") if config.l3 is not None else None
        )
        self.dram_accesses = 0
        self._dram_free = 0
        self.observers: tuple = ()
        if self.l2 is not None and config.l2.line_bytes != config.l1.line_bytes:
            raise ConfigError("all cache levels must share one line size")
        if self.l3 is not None and config.l3.line_bytes != config.l1.line_bytes:
            raise ConfigError("all cache levels must share one line size")
        # Walk constants, hoisted out of the per-line loop.
        self._l1_latency = config.l1.hit_latency
        self._l2_latency = config.l2.hit_latency if self.l2 is not None else 0
        self._l3_latency = config.l3.hit_latency if self.l3 is not None else 0
        self._dram_latency = config.dram_latency_cycles
        self._dram_service = config.dram_service_cycles
        self._line_throughput = config.line_throughput

    # ------------------------------------------------------------------
    def lines_of(self, region: Region, indices: np.ndarray) -> List[int]:
        """Sorted unique cache-line numbers touched by ``region[indices]``."""
        if indices.size <= 64:
            # Warp-sized accesses dominate; a python-set dedup beats
            # np.unique at this size.
            base = region.base
            its = region.itemsize
            shift = self._line_shift
            return sorted({(base + v * its) >> shift
                           for v in indices.tolist()})
        addrs = region.base + indices * region.itemsize
        return np.unique(addrs >> self._line_shift).tolist()

    def walk(self, core_id: int, lines: Sequence[int], now: int = 0) -> int:
        """Charge one coalesced access to ascending unique ``lines``.

        Each line walks L1 -> L2 -> (L3) -> DRAM.  DRAM fills
        additionally queue behind a shared memory-controller timeline
        (``dram_service_cycles`` occupancy per line), so total DRAM
        *traffic* costs time even when individual latencies are hidden
        by warp-level parallelism. This is the bandwidth term that makes
        graph processing memory-intensive (Fig. 12) and charges S_em for
        its doubled edge reads.

        Returns the worst per-line latency plus ``line_throughput``
        cycles for each line beyond the first (memory pipeline
        serialization).
        """
        l1 = self.l1[core_id]
        l2, l3 = self.l2, self.l3
        worst = 0
        for line in lines:
            if l1.lookup(line):
                latency = self._l1_latency
            elif l2 is not None and l2.lookup(line):
                latency = self._l2_latency
            elif l3 is not None and l3.lookup(line):
                latency = self._l3_latency
            else:
                self.dram_accesses += 1
                fill = self._dram_free
                if now > fill:
                    fill = now
                self._dram_free = fill + self._dram_service
                latency = fill - now + self._dram_latency
            if latency > worst:
                worst = latency
        total = worst + (len(lines) - 1) * self._line_throughput
        if self.observers:
            for observer in self.observers:
                observer.on_mem(now, core_id, len(lines), total)
        return total

    def access(
        self, core_id: int, region: Region, indices: np.ndarray,
        now: int = 0,
    ) -> Tuple[int, int]:
        """Charge a coalesced warp access at time ``now``.

        Returns ``(latency_cycles, num_lines)``; see :meth:`walk`.
        """
        if not 0 <= core_id < len(self.l1):
            raise SimulationError(f"core id {core_id} out of range")
        lines = self.lines_of(region, indices)
        if not lines:
            return 0, 0
        return self.walk(core_id, lines, now), len(lines)

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, CacheStats]:
        """Aggregate per-level stats (L1s merged across cores)."""
        merged: Dict[str, CacheStats] = {}
        l1_total = CacheStats()
        for cache in self.l1:
            l1_total.merge(cache.stats)
        merged["L1"] = l1_total
        if self.l2 is not None:
            merged["L2"] = self.l2.stats
        if self.l3 is not None:
            merged["L3"] = self.l3.stats
        return merged

    def cache_counts(self) -> Dict[str, Tuple[int, int]]:
        """Cumulative ``(hits, misses)`` per merged level.

        The delta baseline for per-kernel cache counts — cache tag
        state (and so its counters) persists across kernels on one
        GPU, but metrics and digests want per-kernel increments.
        """
        return {name: (cs.hits, cs.misses)
                for name, cs in self.cache_stats().items()}

    def begin_kernel(self) -> None:
        """Reset the controller timeline — kernel clocks start at 0."""
        self._dram_free = 0

    def flush(self) -> None:
        """Invalidate every level (between unrelated kernels)."""
        for cache in self.l1:
            cache.flush()
        if self.l2 is not None:
            self.l2.flush()
        if self.l3 is not None:
            self.l3.flush()
